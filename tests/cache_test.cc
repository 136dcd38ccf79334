// Tests for the byte-bounded node cache: exact LRU semantics, the by-pointer
// probe contract, capacity invariants across all policies (property sweep),
// stats accounting, and edge cases (oversized entries, zero-capacity caches).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/cache/cache.h"
#include "src/util/rng.h"

namespace grouting {
namespace {

using IntCache = NodeCache<int>;

TEST(CacheTest, GetMissOnEmpty) {
  IntCache cache(1024);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(CacheTest, PutThenGet) {
  IntCache cache(1024);
  cache.Put(1, 100, 10);
  const int* v = cache.Get(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 100);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size_bytes(), 10u);
}

// Get hands out the stored value itself: no copy is made (a shared handle's
// count does not move) and repeated hits address the same slot.
TEST(CacheTest, HitPointerAddressesStoredValue) {
  NodeCache<std::shared_ptr<int>> cache(1024);
  const auto value = std::make_shared<int>(42);
  cache.Put(7, value, 10);
  EXPECT_EQ(value.use_count(), 2);  // caller + cache slot
  const std::shared_ptr<int>* hit = cache.Get(7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->get(), value.get());
  EXPECT_EQ(value.use_count(), 2);  // the probe copied nothing
  EXPECT_EQ(cache.Get(7), hit);
  EXPECT_EQ(cache.stats().hits, 2u);
}

// A hit through the pointer API still refreshes recency: each hit entry
// moves to MRU, so the next evictions take the untouched entries first.
TEST(CacheTest, HitMovesEntryToMru) {
  IntCache cache(30, CachePolicy::kLru);
  cache.Put(1, 1, 10);
  cache.Put(2, 2, 10);
  cache.Put(3, 3, 10);
  ASSERT_NE(cache.Get(1), nullptr);
  ASSERT_NE(cache.Get(2), nullptr);
  cache.Put(4, 4, 10);
  EXPECT_FALSE(cache.Contains(3));  // the only entry not hit
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  cache.Put(5, 5, 10);
  EXPECT_FALSE(cache.Contains(1));  // least recently hit of the survivors
  EXPECT_TRUE(cache.Contains(2));
}

TEST(CacheTest, OverwriteAdjustsBytes) {
  IntCache cache(1024);
  cache.Put(1, 100, 10);
  cache.Put(1, 200, 30);
  EXPECT_EQ(cache.size_bytes(), 30u);
  EXPECT_EQ(cache.entry_count(), 1u);
  const int* v = cache.Get(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 200);
}

TEST(CacheTest, ExactLruEvictionOrder) {
  IntCache cache(30, CachePolicy::kLru);
  cache.Put(1, 1, 10);
  cache.Put(2, 2, 10);
  cache.Put(3, 3, 10);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.Get(1), nullptr);
  cache.Put(4, 4, 10);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));  // evicted
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
}

TEST(CacheTest, FifoIgnoresRecency) {
  IntCache cache(30, CachePolicy::kFifo);
  cache.Put(1, 1, 10);
  cache.Put(2, 2, 10);
  cache.Put(3, 3, 10);
  EXPECT_NE(cache.Get(1), nullptr);  // touching does not save 1
  cache.Put(4, 4, 10);
  EXPECT_FALSE(cache.Contains(1));  // first in, first out
  EXPECT_TRUE(cache.Contains(2));
}

TEST(CacheTest, LfuEvictsLeastFrequent) {
  IntCache cache(30, CachePolicy::kLfu);
  cache.Put(1, 1, 10);
  cache.Put(2, 2, 10);
  cache.Put(3, 3, 10);
  cache.Get(1);
  cache.Get(1);
  cache.Get(3);
  cache.Put(4, 4, 10);  // 2 has the lowest frequency
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(CacheTest, LfuTiesBreakByInsertionOrder) {
  // The ordered LFU index must keep the historical tie-break: among entries
  // with equal frequency, the one inserted first is evicted first.
  IntCache cache(30, CachePolicy::kLfu);
  cache.Put(7, 7, 10);
  cache.Put(8, 8, 10);
  cache.Put(9, 9, 10);  // all at freq 0
  cache.Put(10, 10, 10);
  EXPECT_FALSE(cache.Contains(7));  // oldest of the tied set goes first
  EXPECT_TRUE(cache.Contains(8));
  EXPECT_TRUE(cache.Contains(9));
  EXPECT_TRUE(cache.Contains(10));
  // Erase + re-insert places the key at the back of the tie queue.
  cache.Erase(8);
  cache.Put(8, 8, 10);
  cache.Put(11, 11, 10);
  EXPECT_FALSE(cache.Contains(9));
  EXPECT_TRUE(cache.Contains(8));
}

TEST(CacheTest, LfuEvictionScalesWithManyEntries) {
  // Regression guard for the O(n) eviction scan: a big churny workload over
  // a full cache must stay exact (victim = min (freq, insertion order)).
  IntCache cache(100 * 10, CachePolicy::kLfu);
  for (int i = 0; i < 100; ++i) {
    cache.Put(static_cast<NodeId>(i), i, 10);
  }
  for (int i = 50; i < 100; ++i) {  // bump the upper half
    cache.Get(static_cast<NodeId>(i));
  }
  for (int i = 100; i < 150; ++i) {  // 50 inserts evict exactly the cold half
    cache.Put(static_cast<NodeId>(i), i, 10);
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(cache.Contains(static_cast<NodeId>(i))) << i;
  }
  for (int i = 50; i < 150; ++i) {
    EXPECT_TRUE(cache.Contains(static_cast<NodeId>(i))) << i;
  }
}

TEST(CacheTest, ClockSecondChance) {
  IntCache cache(30, CachePolicy::kClock);
  cache.Put(1, 1, 10);
  cache.Put(2, 2, 10);
  cache.Put(3, 3, 10);
  // All referenced; the sweep clears bits and evicts the first unreferenced.
  cache.Put(4, 4, 10);
  EXPECT_EQ(cache.entry_count(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheTest, LargeEntryEvictsMultiple) {
  IntCache cache(30);
  cache.Put(1, 1, 10);
  cache.Put(2, 2, 10);
  cache.Put(3, 3, 10);
  cache.Put(4, 4, 20);  // needs 20 bytes: evicts the two oldest entries
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_LE(cache.size_bytes(), 30u);
}

TEST(CacheTest, OversizedEntryRejected) {
  IntCache cache(20);
  cache.Put(1, 1, 10);
  cache.Put(2, 2, 100);  // larger than the whole cache
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_TRUE(cache.Contains(1));  // untouched
}

TEST(CacheTest, OversizedOverwriteErasesOldEntry) {
  IntCache cache(20);
  cache.Put(1, 1, 10);
  cache.Put(1, 2, 100);  // the key's cached copy must not survive stale
  EXPECT_FALSE(cache.Contains(1));
}

TEST(CacheTest, ZeroCapacityNeverStores) {
  IntCache cache(0);
  cache.Put(1, 1, 1);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(CacheTest, EraseAndClear) {
  IntCache cache(100);
  cache.Put(1, 1, 10);
  cache.Put(2, 2, 10);
  cache.Erase(1);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.size_bytes(), 10u);
  cache.Erase(99);  // no-op
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(CacheTest, StatsAccounting) {
  IntCache cache(20);
  cache.Put(1, 1, 10);
  cache.Put(2, 2, 10);
  cache.Get(1);
  cache.Get(3);
  cache.Put(3, 3, 10);  // evicts one entry
  const CacheStats& s = cache.stats();
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.bytes_evicted, 10u);
  EXPECT_NEAR(s.HitRate(), 0.5, 1e-9);
  cache.ResetStats();
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(CacheTest, PolicyNames) {
  EXPECT_EQ(CachePolicyName(CachePolicy::kLru), "lru");
  EXPECT_EQ(CachePolicyName(CachePolicy::kFifo), "fifo");
  EXPECT_EQ(CachePolicyName(CachePolicy::kLfu), "lfu");
  EXPECT_EQ(CachePolicyName(CachePolicy::kClock), "clock");
}

// Property sweep: under random workloads, NO policy ever exceeds capacity,
// entry counts match the map, and byte accounting stays exact.
class CachePolicyPropertyTest : public ::testing::TestWithParam<CachePolicy> {};

TEST_P(CachePolicyPropertyTest, CapacityInvariantUnderRandomWorkload) {
  IntCache cache(500, GetParam());
  Rng rng(99);
  uint64_t expected_bytes = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto key = static_cast<NodeId>(rng.NextBounded(100));
    if (rng.NextBool(0.5)) {
      cache.Put(key, static_cast<int>(key), 1 + rng.NextBounded(60));
    } else {
      cache.Get(key);
    }
    ASSERT_LE(cache.size_bytes(), cache.capacity_bytes());
    (void)expected_bytes;
  }
  // Recompute bytes from scratch via Contains+Erase bookkeeping: clearing
  // must zero everything out consistently.
  const size_t entries = cache.entry_count();
  EXPECT_LE(entries, 500u);
  cache.Clear();
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST_P(CachePolicyPropertyTest, HotKeySurvivesUnderLruLikePolicies) {
  const CachePolicy policy = GetParam();
  IntCache cache(100, policy);
  Rng rng(7);
  // Key 0 is touched constantly; under LRU/LFU/CLOCK it should survive a
  // stream of one-shot keys (FIFO legitimately evicts it).
  cache.Put(0, 0, 10);
  for (int i = 1; i <= 200; ++i) {
    cache.Get(0);
    cache.Put(static_cast<NodeId>(i), i, 10);
  }
  if (policy == CachePolicy::kLru || policy == CachePolicy::kLfu) {
    EXPECT_TRUE(cache.Contains(0));
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, CachePolicyPropertyTest,
                         ::testing::Values(CachePolicy::kLru, CachePolicy::kFifo,
                                           CachePolicy::kLfu, CachePolicy::kClock));

}  // namespace
}  // namespace grouting
