// Model-checking style property tests: run randomized operation sequences
// against a component AND a trivially-correct reference model, and require
// identical observable behaviour at every step.

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/cache/cache.h"
#include "src/routing/router.h"
#include "src/storage/storage_tier.h"
#include "src/util/rng.h"

namespace grouting {
namespace {

// ---------------------------------------------------------------- LRU ----

// Reference LRU: ordered list of (key, bytes), most recent at back.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

  bool Get(NodeId key) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == key) {
        entries_.splice(entries_.end(), entries_, it);
        return true;
      }
    }
    return false;
  }

  void Put(NodeId key, uint64_t bytes) {
    if (bytes > capacity_) {
      Erase(key);
      return;
    }
    Erase(key);
    entries_.emplace_back(key, bytes);
    size_ += bytes;
    while (size_ > capacity_) {
      size_ -= entries_.front().second;
      entries_.pop_front();
    }
  }

  void Erase(NodeId key) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == key) {
        size_ -= it->second;
        entries_.erase(it);
        return;
      }
    }
  }

  bool Contains(NodeId key) const {
    for (const auto& [k, b] : entries_) {
      if (k == key) {
        return true;
      }
    }
    return false;
  }

  uint64_t size_bytes() const { return size_; }

 private:
  uint64_t capacity_;
  uint64_t size_ = 0;
  std::list<std::pair<NodeId, uint64_t>> entries_;
};

class LruModelCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LruModelCheck, AgreesWithReferenceOnRandomOps) {
  NodeCache<int> cache(256, CachePolicy::kLru);
  ReferenceLru reference(256);
  Rng rng(GetParam());
  for (int step = 0; step < 4000; ++step) {
    const auto key = static_cast<NodeId>(rng.NextBounded(24));
    const int op = static_cast<int>(rng.NextBounded(3));
    switch (op) {
      case 0: {
        const uint64_t bytes = 8 + rng.NextBounded(64);
        cache.Put(key, static_cast<int>(key), bytes);
        reference.Put(key, bytes);
        break;
      }
      case 1: {
        const bool got = cache.Get(key) != nullptr;
        const bool expected = reference.Get(key);
        ASSERT_EQ(got, expected) << "step " << step << " key " << key;
        break;
      }
      default:
        cache.Erase(key);
        reference.Erase(key);
        break;
    }
    ASSERT_EQ(cache.size_bytes(), reference.size_bytes()) << "step " << step;
    for (NodeId k = 0; k < 24; ++k) {
      ASSERT_EQ(cache.Contains(k), reference.Contains(k))
          << "step " << step << " key " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruModelCheck, ::testing::Values(1, 2, 3, 5, 8, 13));

// ----------------------------------------------------- StorageServer ----

class KvStoreModelCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvStoreModelCheck, StorageServerAgreesWithMapUnderRandomOps) {
  StorageServer server(0);
  std::unordered_map<NodeId, std::vector<uint8_t>> reference;
  // Blobs handed out by reads, with their contents at read time: later
  // overwrites and deletes must never change a blob a reader holds.
  std::vector<std::pair<BlobPtr, std::vector<uint8_t>>> held;
  uint64_t gets = 0;
  uint64_t misses = 0;
  Rng rng(GetParam() * 2654435761ULL + 1);
  // Reads a batch through MultiGet and checks it against the reference.
  auto check_batch = [&](const std::vector<NodeId>& keys, int step) {
    const std::vector<BlobPtr> got = server.MultiGet(keys);
    ASSERT_EQ(got.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto it = reference.find(keys[i]);
      ++gets;
      ASSERT_EQ(got[i] != nullptr, it != reference.end())
          << "step " << step << " key " << keys[i];
      if (got[i] == nullptr) {
        ++misses;
        continue;
      }
      ASSERT_EQ(*got[i], it->second) << "step " << step << " key " << keys[i];
      if (held.size() < 64) {
        held.emplace_back(got[i], *got[i]);
      }
    }
  };
  for (int step = 0; step < 3000; ++step) {
    const auto key = static_cast<NodeId>(rng.NextBounded(40));
    const int op = static_cast<int>(rng.NextBounded(10));
    if (op < 5) {  // put or overwrite
      std::vector<uint8_t> value(rng.NextBounded(100));
      for (auto& b : value) {
        b = static_cast<uint8_t>(rng.Next());
      }
      server.Load(key, value);
      reference[key] = std::move(value);
    } else if (op < 8) {  // single-key read
      check_batch({key}, step);
      ASSERT_FALSE(HasFatalFailure());
    } else if (op < 9) {  // delete
      server.Delete(key);
      reference.erase(key);
    } else {  // batched read, repeats allowed
      std::vector<NodeId> keys(1 + rng.NextBounded(8));
      for (auto& k : keys) {
        k = static_cast<NodeId>(rng.NextBounded(40));
      }
      check_batch(keys, step);
      ASSERT_FALSE(HasFatalFailure());
    }
    ASSERT_EQ(server.stats().get_requests, gets) << "step " << step;
    ASSERT_EQ(server.stats().misses, misses) << "step " << step;
  }
  // Final full verification, absent keys included.
  for (NodeId k = 0; k < 40; ++k) {
    const BlobPtr got = server.PeekBlob(k);
    const auto it = reference.find(k);
    ASSERT_EQ(got != nullptr, it != reference.end()) << "key " << k;
    if (got != nullptr) {
      ASSERT_EQ(*got, it->second) << "key " << k;
    }
  }
  for (const auto& [blob, contents] : held) {
    ASSERT_EQ(*blob, contents);
  }
  EXPECT_EQ(server.stats().values_served, gets - misses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvStoreModelCheck, ::testing::Values(11, 22, 33, 44));

// -------------------------------------------------------------- Router --

// Property: for ANY strategy decisions, every enqueued query is dispatched
// exactly once, regardless of which processors ask in which order.
class RouterConservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RouterConservation, EveryQueryDispatchedExactlyOnce) {
  Rng rng(GetParam());
  // Adversarial strategy: routes randomly.
  class RandomStrategy : public RoutingStrategy {
   public:
    explicit RandomStrategy(uint64_t seed) : rng_(seed) {}
    std::string name() const override { return "random"; }
    uint32_t Route(NodeId, const RouterContext& ctx) override {
      return static_cast<uint32_t>(rng_.NextBounded(ctx.num_processors));
    }

   private:
    Rng rng_;
  };

  const uint32_t procs = 1 + static_cast<uint32_t>(rng.NextBounded(6));
  Router router(std::make_unique<RandomStrategy>(GetParam() ^ 0xabc), procs);
  const size_t n = 200;
  std::map<uint64_t, int> dispatched;
  for (uint64_t i = 0; i < n; ++i) {
    Query q;
    q.id = i;
    q.node = static_cast<NodeId>(rng.Next());
    router.Enqueue(q);
  }
  // Processors poll in random order until drained.
  size_t safety = 0;
  while (router.HasPending() && safety++ < n * 10) {
    const auto p = static_cast<uint32_t>(rng.NextBounded(procs));
    if (auto q = router.NextForProcessor(p); q.has_value()) {
      dispatched[q->id] += 1;
    }
  }
  ASSERT_EQ(dispatched.size(), n);
  for (const auto& [id, count] : dispatched) {
    ASSERT_EQ(count, 1) << "query " << id;
  }
  EXPECT_EQ(router.stats().dispatched, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterConservation,
                         ::testing::Values(3, 7, 31, 127, 8191));

}  // namespace
}  // namespace grouting
