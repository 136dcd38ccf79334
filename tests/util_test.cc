// Unit tests for src/util: RNG, MurmurHash3, statistics, the shared
// rebalance round, table formatting, byte-size parsing, the MPMC queue, and
// the flat NodeId hash table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/util/check.h"
#include "src/util/mpmc_queue.h"
#include "src/util/murmur3.h"
#include "src/util/node_table.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace grouting {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.Next() == b.Next();
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.NextBounded(1), 0u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolRespectsProbabilityRoughly) {
  Rng rng(17);
  int trues = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    trues += rng.NextBool(0.25);
  }
  EXPECT_NEAR(static_cast<double>(trues) / n, 0.25, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    stat.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stat.mean(), 0.0, 0.03);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  Rng rng(23);
  Shuffle(v, rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(RngTest, ShuffleDeterministic) {
  std::vector<int> a(50);
  std::vector<int> b(50);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  Rng r1(5);
  Rng r2(5);
  Shuffle(a, r1);
  Shuffle(b, r2);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------------ Murmur3 ----

TEST(Murmur3Test, KnownVectors32) {
  // Reference values from Appleby's SMHasher verification.
  EXPECT_EQ(Murmur3_x86_32("", 0, 0), 0u);
  EXPECT_EQ(Murmur3_x86_32("", 0, 1), 0x514E28B7u);
  EXPECT_EQ(Murmur3_x86_32("\xff\xff\xff\xff", 4, 0), 0x76293B50u);
  EXPECT_EQ(Murmur3_x86_32("!Ce\x87", 4, 0), 0xF55B516Bu);
  EXPECT_EQ(Murmur3_x86_32("Hello, world!", 13, 0x9747b28cu), 0x24884CBAu);
}

TEST(Murmur3Test, SeedChangesOutput) {
  const uint64_t key = 12345;
  EXPECT_NE(Murmur3Hash64(key, 1), Murmur3Hash64(key, 2));
}

TEST(Murmur3Test, X64_128Deterministic) {
  uint64_t a[2];
  uint64_t b[2];
  const char* data = "the quick brown fox jumps over the lazy dog";
  Murmur3_x64_128(data, 43, 7, a);
  Murmur3_x64_128(data, 43, 7, b);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
}

TEST(Murmur3Test, X64_128TailLengthsAllWork) {
  // Exercise every tail-switch branch (lengths 0..16).
  uint8_t buf[17];
  for (int i = 0; i < 17; ++i) {
    buf[i] = static_cast<uint8_t>(i * 37);
  }
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (size_t len = 0; len <= 16; ++len) {
    uint64_t out[2];
    Murmur3_x64_128(buf, len, 0, out);
    seen.insert({out[0], out[1]});
  }
  EXPECT_EQ(seen.size(), 17u);  // all distinct
}

TEST(Murmur3Test, Distribution) {
  // Hashing sequential node ids should spread evenly over buckets.
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {0};
  for (uint64_t u = 0; u < 8000; ++u) {
    counts[Murmur3Hash64(u) % kBuckets] += 1;
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

// -------------------------------------------------------------- Stats ----

TEST(RunningStatTest, Empty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 10;
    ((i % 2 == 0) ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a;
  a.Add(1.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(PercentileTest, ExactValues) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
  EXPECT_NEAR(Percentile(v, 50), 5.5, 1e-9);
}

TEST(PercentileTest, EmptyIsZero) { EXPECT_EQ(Percentile({}, 50), 0.0); }

// -------------------------------------------------- LatencyHistogram ----

// The regression this pins: histogram percentiles replaced a full sort per
// percentile over raw sample vectors (satellite of the tracing PR). Every
// quantile must stay within one bucket width of the exact sorted-sample
// percentile, over distributions shaped like real latency data.
TEST(LatencyHistogramTest, PercentilesWithinOneBucketOfExact) {
  Rng rng(7);
  std::vector<double> samples;
  LatencyHistogram h;
  // Log-normal-ish heavy tail across several orders of magnitude, the
  // shape of per-query response times.
  for (int i = 0; i < 20000; ++i) {
    double v = std::exp(rng.NextGaussian() * 2.0 + 3.0);  // median e^3 µs
    samples.push_back(v);
    h.Add(v);
  }
  for (const double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = Percentile(samples, p);
    const double approx = h.Percentile(p);
    const double lo = LatencyHistogram::BucketLowerBound(exact);
    const double hi = LatencyHistogram::BucketUpperBound(exact);
    EXPECT_GE(approx, lo - 1e-12) << "p" << p;
    EXPECT_LE(approx, hi + 1e-12) << "p" << p;
  }
}

TEST(LatencyHistogramTest, MeanMinMaxAreExact) {
  // The mean comes from the embedded RunningStat, not the buckets: it is
  // bit-identical to a RunningStat fed the same Add sequence.
  RunningStat reference;
  LatencyHistogram h;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.NextDouble() * 1e4;
    reference.Add(v);
    h.Add(v);
  }
  EXPECT_EQ(h.mean(), reference.mean());
  EXPECT_EQ(h.min(), reference.min());
  EXPECT_EQ(h.max(), reference.max());
  EXPECT_EQ(h.count(), reference.count());
}

TEST(LatencyHistogramTest, MergeMatchesSequential) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram all;
  Rng rng(13);
  for (int i = 0; i < 4000; ++i) {
    const double v = std::exp(rng.NextGaussian() + 2.0);
    (i % 2 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (const double p : {50.0, 95.0, 99.0}) {
    // Identical bucket contents -> identical interpolated percentiles.
    EXPECT_DOUBLE_EQ(a.Percentile(p), all.Percentile(p));
  }
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9 * all.mean());
}

TEST(LatencyHistogramTest, EdgeCases) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  h.Add(0.0);  // clamps into the first bucket
  h.Add(5.0);
  h.Add(5.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_GE(h.Percentile(99.0), LatencyHistogram::BucketLowerBound(5.0));
  EXPECT_LE(h.Percentile(99.0), h.max());
  // Quantiles are clamped to the observed range.
  EXPECT_GE(h.Percentile(0.0), 0.0);
  EXPECT_LE(h.Percentile(100.0), 5.0 + 1e-12);
}

// ----------------------------------------------------- PlanRebalance ----

// Items 0..n-1 on `bin`, each with `rate`.
std::vector<RebalanceItem> UniformItems(uint32_t n, uint32_t bin, double rate) {
  std::vector<RebalanceItem> items;
  for (uint32_t i = 0; i < n; ++i) {
    items.push_back({i, bin, rate});
  }
  return items;
}

TEST(PlanRebalanceTest, BelowTheTriggerNothingMoves) {
  std::vector<double> load = {110.0, 100.0};  // (111 / 101) ~ 1.10
  auto items = UniformItems(10, 0, 5.0);
  EXPECT_TRUE(PlanRebalance(load, items, /*threshold=*/1.2, /*cap=*/8, 0.0).empty());
  EXPECT_EQ(load, (std::vector<double>{110.0, 100.0}));
  for (const RebalanceItem& item : items) {
    EXPECT_EQ(item.bin, 0u);
  }
}

TEST(PlanRebalanceTest, OnceTriggeredDrainsToTheHysteresisWaterMark) {
  // 10 per move: after 6 moves the ratio (241 / 161 ~ 1.50) is already
  // under the 1.5 trigger, but it stays above the 1.35 water mark until
  // the 8th move lands (221 / 181 ~ 1.22).
  constexpr double kThreshold = 1.5;
  std::vector<double> load = {300.0, 100.0};
  auto items = UniformItems(20, 0, 10.0);
  const auto moves = PlanRebalance(load, items, kThreshold, /*cap=*/100, 0.0);
  ASSERT_EQ(moves.size(), 8u);
  for (size_t i = 0; i < moves.size(); ++i) {
    EXPECT_EQ(moves[i].key, i);  // equal spreads: lowest key first
    EXPECT_EQ(moves[i].from, 0u);
    EXPECT_EQ(moves[i].to, 1u);
    EXPECT_EQ(items[i].bin, 1u);
  }
  EXPECT_EQ(items[8].bin, 0u);
  EXPECT_EQ(load, (std::vector<double>{220.0, 180.0}));
  EXPECT_LE((load[0] + 1.0) / (load[1] + 1.0), kRebalanceHysteresis * kThreshold);
}

TEST(PlanRebalanceTest, NoiseFloorBlocksASmallSpread) {
  // Gap 100 against a floor of sigmas x sqrt(200): 113 at 8 sigmas, 42 at 3.
  std::vector<double> load = {200.0, 100.0};
  auto items = UniformItems(10, 0, 10.0);
  EXPECT_TRUE(PlanRebalance(load, items, 1.2, 8, /*noise_sigmas=*/8.0).empty());
  EXPECT_FALSE(PlanRebalance(load, items, 1.2, 8, /*noise_sigmas=*/3.0).empty());
}

TEST(PlanRebalanceTest, RespectsTheMoveCap) {
  std::vector<double> load = {300.0, 100.0};
  auto items = UniformItems(20, 0, 10.0);
  EXPECT_EQ(PlanRebalance(load, items, 1.5, /*cap=*/3, 0.0).size(), 3u);
  EXPECT_EQ(load, (std::vector<double>{270.0, 130.0}));
}

TEST(PlanRebalanceTest, ItemAsHotAsTheGapNeverMoves) {
  // Gap 200: moving either item would only relocate the hotspot.
  std::vector<double> load = {300.0, 100.0};
  std::vector<RebalanceItem> items = {{0, 0, 200.0}, {1, 0, 250.0}};
  EXPECT_TRUE(PlanRebalance(load, items, 1.2, 8, 0.0).empty());
  EXPECT_EQ(items[0].bin, 0u);
  EXPECT_EQ(items[1].bin, 0u);
}

TEST(PlanRebalanceTest, ImmovableItemNeverMoves) {
  // Item 0 would even the pair exactly, but it is pinned; item 1 moves
  // instead and then nothing is left to move.
  std::vector<double> load = {300.0, 100.0};
  std::vector<RebalanceItem> items = {{0, 0, 100.0, /*movable=*/false}, {1, 0, 30.0}};
  const auto moves = PlanRebalance(load, items, 1.2, 8, 0.0);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].key, 1u);
  EXPECT_EQ(items[0].bin, 0u);
}

TEST(PlanRebalanceTest, EqualSpreadsMoveTheLowestKey) {
  // Gap 200: |200 - 2 x 120| == |200 - 2 x 80| == 40. The higher key comes
  // first in scan order, so only the tie-break can pick key 3.
  std::vector<double> load = {300.0, 100.0};
  std::vector<RebalanceItem> items = {{7, 0, 120.0}, {3, 0, 80.0}};
  const auto moves = PlanRebalance(load, items, 1.2, /*cap=*/1, 0.0);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].key, 3u);
}

// -------------------------------------------------------------- Table ----

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer-name", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, NumTrimsTrailingZeros) {
  EXPECT_EQ(Table::Num(1.5), "1.5");
  EXPECT_EQ(Table::Num(2.0), "2");
  EXPECT_EQ(Table::Num(0.25, 3), "0.25");
  EXPECT_EQ(Table::Int(-42), "-42");
}

TEST(TableTest, BytesHumanReadable) {
  EXPECT_EQ(Table::Bytes(512), "512.0 B");
  EXPECT_EQ(Table::Bytes(2048), "2.0 KB");
  EXPECT_EQ(Table::Bytes(3ULL << 30), "3.0 GB");
}

TEST(ParseByteSizeTest, Units) {
  EXPECT_EQ(ParseByteSize("512"), 512u);
  EXPECT_EQ(ParseByteSize("16MB"), 16ULL << 20);
  EXPECT_EQ(ParseByteSize("4GB"), 4ULL << 30);
  EXPECT_EQ(ParseByteSize("2kb"), 2048u);
  EXPECT_EQ(ParseByteSize("1TB"), 1ULL << 40);
}

// Malformed sizes are rejected, never read as 0 (which means "ample").
TEST(ParseByteSizeTest, Malformed) {
  EXPECT_EQ(ParseByteSize(""), std::nullopt);
  EXPECT_EQ(ParseByteSize("abc"), std::nullopt);
  EXPECT_EQ(ParseByteSize("12XB"), std::nullopt);
  EXPECT_EQ(ParseByteSize("-5MB"), std::nullopt);
  EXPECT_EQ(ParseByteSize("18446744073709551616"), std::nullopt);  // 2^64
  EXPECT_EQ(ParseByteSize("16777216TB"), std::nullopt);            // 2^64 bytes
  EXPECT_EQ(ParseByteSize("0"), 0u);
  EXPECT_EQ(ParseByteSize("16777215TB"), 16777215ULL << 40);
}

// ---------------------------------------------------------- MpmcQueue ----

TEST(MpmcQueueTest, FifoOrder) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.Push(i));
  }
  for (int i = 0; i < 10; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(MpmcQueueTest, TryPopOnEmpty) {
  MpmcQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueueTest, CloseDrainsRemainingItems) {
  MpmcQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // rejected after close
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // closed and empty
}

TEST(MpmcQueueTest, ConcurrentProducersConsumers) {
  MpmcQueue<int> q;
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  std::atomic<int64_t> sum{0};
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.Push(p * kPerProducer + i);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (true) {
        auto v = q.Pop();
        if (!v.has_value()) {
          return;
        }
        sum.fetch_add(*v);
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[p].join();
  }
  q.Close();
  for (size_t i = kProducers; i < threads.size(); ++i) {
    threads[i].join();
  }
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), static_cast<int64_t>(total) * (total - 1) / 2);
}

// ---------------------------------------------------------- NodeTable ----

TEST(NodeTableTest, GrowthKeepsEveryKeyAndValue) {
  NodeTable<uint64_t> table;
  constexpr NodeId kKeys = 5000;  // 16 slots -> 16384: ten doublings
  for (NodeId i = 0; i < kKeys; ++i) {
    const NodeId key = i * 2654435761u;  // scattered, distinct
    EXPECT_TRUE(table.Insert(key, uint64_t{i} * 3));
  }
  EXPECT_EQ(table.size(), kKeys);
  for (NodeId i = 0; i < kKeys; ++i) {
    const uint64_t* value = table.Find(i * 2654435761u);
    ASSERT_NE(value, nullptr) << "key #" << i;
    EXPECT_EQ(*value, uint64_t{i} * 3);
  }
}

TEST(NodeTableTest, DuplicateInsertKeepsFirstValue) {
  NodeTable<int32_t> table;
  EXPECT_TRUE(table.Insert(9, 1));
  EXPECT_FALSE(table.Insert(9, 2));
  ASSERT_NE(table.Find(9), nullptr);
  EXPECT_EQ(*table.Find(9), 1);
  EXPECT_EQ(table.size(), 1u);
}

TEST(NodeTableTest, InvalidNodeIsAKey) {
  NodeTable<int32_t> table;
  EXPECT_EQ(table.Find(kInvalidNode), nullptr);
  EXPECT_TRUE(table.Insert(kInvalidNode, 5));
  EXPECT_FALSE(table.Insert(kInvalidNode, 6));
  EXPECT_TRUE(table.Insert(0, 7));
  ASSERT_NE(table.Find(kInvalidNode), nullptr);
  EXPECT_EQ(*table.Find(kInvalidNode), 5);
  EXPECT_EQ(*table.Find(0), 7);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.Erase(kInvalidNode));
  EXPECT_FALSE(table.Contains(kInvalidNode));
  EXPECT_TRUE(table.Contains(0));

  NodeSet set;
  EXPECT_TRUE(set.Insert(kInvalidNode));
  EXPECT_FALSE(set.Insert(kInvalidNode));
  EXPECT_TRUE(set.Contains(kInvalidNode));
  EXPECT_EQ(set.size(), 1u);
}

TEST(NodeTableTest, FindAbsentKeyReturnsNullptr) {
  const NodeTable<int32_t> empty;
  EXPECT_EQ(empty.Find(0), nullptr);
  EXPECT_EQ(empty.Find(123), nullptr);
  NodeTable<int32_t> table;
  for (NodeId key = 0; key < 100; key += 2) {
    table.Insert(key, 1);
  }
  for (NodeId key = 1; key < 100; key += 2) {
    EXPECT_EQ(table.Find(key), nullptr) << key;
  }
  EXPECT_EQ(table.Find(kInvalidNode), nullptr);
}

// Random inserts and erases over a pool of 64 random keys must agree with
// std::unordered_map after every operation. Random keys (unlike a run of
// consecutive ids, which Fibonacci hashing spreads without a collision)
// share home slots and form probe runs that wrap around the array: this is
// what checks the backward-shift deletion.
TEST(NodeTableTest, EraseAgreesWithReferenceMap) {
  NodeTable<uint32_t> table;
  std::unordered_map<NodeId, uint32_t> reference;
  Rng rng(31);
  std::vector<NodeId> pool(64);
  for (NodeId& key : pool) {
    key = static_cast<NodeId>(rng.Next());
  }
  pool.back() = kInvalidNode;
  for (uint32_t step = 0; step < 20000; ++step) {
    const NodeId key = pool[rng.NextBounded(pool.size())];
    if (rng.NextBool(0.55)) {
      EXPECT_EQ(table.Insert(key, step), reference.emplace(key, step).second);
    } else {
      EXPECT_EQ(table.Erase(key), reference.erase(key) > 0);
    }
    ASSERT_EQ(table.size(), reference.size()) << "step " << step;
    for (const NodeId k : pool) {
      const auto it = reference.find(k);
      const uint32_t* got = table.Find(k);
      ASSERT_EQ(got != nullptr, it != reference.end()) << "step " << step << " key " << k;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  for (const NodeId k : pool) {
    EXPECT_EQ(table.Find(k), nullptr);
  }
  EXPECT_TRUE(table.Insert(3, 1));
}

}  // namespace
}  // namespace grouting
