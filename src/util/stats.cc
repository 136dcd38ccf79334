#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace grouting {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

int LatencyHistogram::BucketIndex(double us) {
  if (!(us > 0.0)) {
    return 0;  // zero / negative / NaN clamp into the first bucket
  }
  int exp = 0;
  const double m = std::frexp(us, &exp);  // us = m * 2^exp, m in [0.5, 1)
  const int octave = (exp - 1) - kMinExp;
  if (octave < 0) {
    return 0;
  }
  if (octave >= kOctaves) {
    return kBuckets - 1;
  }
  int sub = static_cast<int>((m * 2.0 - 1.0) * kSubBuckets);
  sub = std::min(std::max(sub, 0), kSubBuckets - 1);
  return octave * kSubBuckets + sub;
}

double LatencyHistogram::BucketLower(int index) {
  const int octave = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, kMinExp + octave);
}

double LatencyHistogram::BucketLowerBound(double us) {
  return BucketLower(BucketIndex(us));
}

double LatencyHistogram::BucketUpperBound(double us) {
  return BucketLower(BucketIndex(us) + 1);
}

void LatencyHistogram::Add(double us) {
  buckets_[BucketIndex(us)] += 1;
  exact_.Add(us);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  exact_.Merge(other.exact_);
}

double LatencyHistogram::Percentile(double p) const {
  GROUTING_CHECK(p >= 0.0 && p <= 100.0);
  const int64_t n = count();
  if (n == 0) {
    return 0.0;
  }
  // Same rank convention as the exact Percentile() above, so the two agree
  // up to bucket resolution on identical samples.
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const auto in_bucket = static_cast<int64_t>(buckets_[i]);
    if (static_cast<double>(seen + in_bucket) > rank) {
      // Interpolate within the bucket by rank position, then clamp into the
      // observed value range so extreme quantiles never exceed the true
      // min/max.
      const double frac =
          in_bucket <= 1 ? 0.5
                         : (rank - static_cast<double>(seen)) /
                               static_cast<double>(in_bucket - 1);
      const double lo = BucketLower(i);
      const double hi = BucketLower(i + 1);
      const double v = lo + frac * (hi - lo);
      return std::min(std::max(v, min()), max());
    }
    seen += in_bucket;
  }
  return max();
}

std::vector<RebalanceMove> PlanRebalance(std::span<double> load,
                                         std::span<RebalanceItem> items, double threshold,
                                         uint32_t cap, double noise_sigmas) {
  std::vector<RebalanceMove> moves;
  const auto num_bins = static_cast<uint32_t>(load.size());
  if (num_bins < 2) {
    return moves;
  }
  const double stop_ratio = std::max(1.0, kRebalanceHysteresis * threshold);
  bool triggered = false;
  while (moves.size() < cap) {
    uint32_t hottest = 0;
    uint32_t coolest = 0;
    for (uint32_t b = 1; b < num_bins; ++b) {
      if (load[b] > load[hottest]) {
        hottest = b;
      }
      if (load[b] < load[coolest]) {
        coolest = b;
      }
    }
    const double ratio = (load[hottest] + 1.0) / (load[coolest] + 1.0);
    const double gap = load[hottest] - load[coolest];
    if (gap <= noise_sigmas * std::sqrt(std::max(load[hottest], 1.0))) {
      break;  // the spread is within sampling noise: not actionable skew
    }
    if (!triggered) {
      if (ratio <= threshold) {
        break;  // below the trigger, leave the bins alone
      }
      triggered = true;
    } else if (ratio <= stop_ratio) {
      break;  // drained below the hysteresis water mark
    }

    size_t victim = items.size();
    double victim_spread = 0.0;
    for (size_t i = 0; i < items.size(); ++i) {
      const RebalanceItem& item = items[i];
      if (item.bin != hottest || !item.movable || item.rate <= 0.0 || item.rate >= gap) {
        continue;
      }
      const double spread = std::abs(gap - 2.0 * item.rate);
      if (victim == items.size() || spread < victim_spread ||
          (spread == victim_spread && item.key < items[victim].key)) {
        victim = i;
        victim_spread = spread;
      }
    }
    if (victim == items.size()) {
      break;  // nothing movable without widening the spread
    }

    RebalanceItem& moved = items[victim];
    load[hottest] -= moved.rate;
    load[coolest] += moved.rate;
    moved.bin = coolest;
    moves.push_back({moved.key, hottest, coolest});
  }
  return moves;
}

double Percentile(std::vector<double> samples, double p) {
  GROUTING_CHECK(p >= 0.0 && p <= 100.0);
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace grouting
