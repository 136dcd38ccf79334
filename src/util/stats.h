// Streaming statistics helpers used throughout metrics collection:
// RunningStat (Welford mean/variance), LatencyHistogram (log-linear
// buckets, for latency distributions), and exact percentile extraction over
// collected samples. Also the load-balance helpers the adaptive controllers
// share: the MaxMinLoadRatio imbalance metric and the PlanRebalance round.

#ifndef GROUTING_SRC_UTIL_STATS_H_
#define GROUTING_SRC_UTIL_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace grouting {

// Max/min ratio over per-entity load counts, the shared "imbalance" metric
// definition (ClusterMetrics::router_load_imbalance over router shards,
// ::storage_load_imbalance over storage servers): 1.0 = perfectly balanced,
// the min clamped to 1 so an idle entity reads as the max count rather than
// infinity. Fewer than two entities is vacuously balanced (0.0 for none).
inline double MaxMinLoadRatio(std::span<const uint64_t> loads) {
  if (loads.size() < 2) {
    return loads.empty() ? 0.0 : 1.0;
  }
  uint64_t lo = loads[0];
  uint64_t hi = loads[0];
  for (const uint64_t v : loads) {
    lo = lo < v ? lo : v;
    hi = hi > v ? hi : v;
  }
  return static_cast<double>(hi) / static_cast<double>(lo > 0 ? lo : 1);
}

// One thing a rebalance round may move between bins: a router session (key
// = query node, bin = shard) or a storage partition (key = partition id,
// bin = owner server), carrying its decayed access rate with it.
struct RebalanceItem {
  uint64_t key = 0;
  uint32_t bin = 0;
  double rate = 0.0;
  bool movable = true;
};

// One move planned by PlanRebalance.
struct RebalanceMove {
  uint64_t key = 0;
  uint32_t from = 0;
  uint32_t to = 0;
};

// Once triggered, a rebalance round drains down to kRebalanceHysteresis x
// threshold (a lower water mark in (0, 1]) so the next round does not
// immediately re-trigger.
inline constexpr double kRebalanceHysteresis = 0.9;
static_assert(kRebalanceHysteresis > 0.0 && kRebalanceHysteresis <= 1.0,
              "the hysteresis water mark must lie in (0, 1]");

// The greedy round both adaptive controllers run (PHD-Store-style dynamic
// repartitioning): ArrivalSplitter::Rebalance over router shards and
// PlanRepartition over storage servers. While fewer than `cap` moves are
// planned, it takes the most- and least-loaded bins (ties to the lowest
// index) and stops once their gap is within `noise_sigmas` Poisson sigmas
// of the hot bin's load (sampling noise, not actionable skew). The first
// move needs (max+1)/(min+1) above `threshold`; later ones continue down to
// the hysteresis water mark. The victim is the movable item on the hot bin
// that lands the pair closest to even, resulting spread |gap - 2 rate|,
// restricted to 0 < rate < gap so every move strictly narrows the spread
// (an item hotter than the whole gap would only relocate the hotspot and
// invite the next round to move it straight back). Equal spreads go to the
// lowest key. Each move lands at once: the item's rate shifts between the
// two `load` entries and its bin becomes the cold one.
std::vector<RebalanceMove> PlanRebalance(std::span<double> load,
                                         std::span<RebalanceItem> items, double threshold,
                                         uint32_t cap, double noise_sigmas);

// Numerically stable single-pass mean / variance / min / max.
class RunningStat {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

  void Merge(const RunningStat& other);

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Exact percentile over a sample vector (sorts a copy). p in [0, 100].
double Percentile(std::vector<double> samples, double p);

// O(1)-memory latency distribution: log-linear buckets (HDR-histogram
// style) over non-negative double microseconds — every power-of-two octave
// is split into kSubBuckets linear sub-buckets, so any quantile is read in
// one pass with a relative bucket error of at most 1/kSubBuckets (~3%).
// This replaces the engines' raw per-query sample vectors: memory no longer
// grows with the run length, and p50/p95/p99/p999 all come from the same
// single pass instead of a full sort per percentile.
//
// The mean is NOT bucketed: an embedded RunningStat accumulates the exact
// samples in Add order, so a histogram-backed mean is bit-identical to the
// pre-histogram sample-vector mean for the same Add sequence.
class LatencyHistogram {
 public:
  // Sub-buckets per power-of-two octave (the quantile resolution knob).
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 32 -> <=3.2% rel. error
  // Octave range: 2^kMinExp .. 2^(kMinExp + kOctaves) µs; values outside
  // clamp into the first/last bucket.
  static constexpr int kMinExp = -16;  // ~15 ns resolution floor
  static constexpr int kOctaves = 56;  // up to ~2^40 µs (= years)
  static constexpr int kBuckets = kOctaves * kSubBuckets;

  LatencyHistogram();

  void Add(double us);
  void Merge(const LatencyHistogram& other);

  int64_t count() const { return exact_.count(); }
  double mean() const { return exact_.mean(); }
  double min() const { return exact_.min(); }
  double max() const { return exact_.max(); }

  // Bucket-interpolated percentile, p in [0, 100]; within one bucket width
  // of the exact sorted-sample percentile (tests/util_test.cc pins this).
  double Percentile(double p) const;

  // [lower, upper) value bounds of the bucket holding `us` — the error bar
  // any quantile read out of this histogram carries.
  static double BucketLowerBound(double us);
  static double BucketUpperBound(double us);

 private:
  static int BucketIndex(double us);
  static double BucketLower(int index);

  std::vector<uint64_t> buckets_;
  RunningStat exact_;  // exact mean/min/max in Add order
};

}  // namespace grouting

#endif  // GROUTING_SRC_UTIL_STATS_H_
