// Model-checking style property tests: run operation sequences (random
// ones, or for the storage tier every sequence up to length 4) against a
// component AND a trivially-correct reference model, and require identical
// observable behaviour at every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/cache.h"
#include "src/graph/graph.h"
#include "src/proc/processor.h"
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

// ------------------------------------------------------ StorageTier ----

// The storage tier's one model checker. Every sequence of four ops over
// the alphabet below runs on a fresh 3-server tier with repartitioning,
// replication and mutations on, against one reference model: each tracked
// key maps to its adjacency (or absent) and a version, each tracked
// partition to its owner plus replica set. After every op the tier must
// agree with the model, and what each read returns is checked against
// these guarantees:
//   - A read (a no-cache CachedStorageSource fetch, PeekCurrent, or the
//     harness's own `read` batch) is exactly-once and never stale: each
//     present key comes back once, with the reference adjacency of the
//     moment the read completes; an absent key (the withheld node before
//     its add-vertex) comes back as nullptr, never as an old blob.
//   - A healed batch (`multiget-form` snapshots ReadServerOf per key, as
//     CachedStorageSource routes a batch; any ops may run before
//     `multiget-complete` sends it and heals the misses with
//     ResolveMigratedMisses) is exactly-once and never stale in the same
//     sense, however its partitions moved away, came back or lost the
//     replica it was routed to.
//   - A cache hit is never stale: a compressed-cache source that lives for
//     the whole sequence returns the current reference after any write.
// Invariants, after every op: (a) the map's owner and replica set equal
// the model's; (b) each tracked key has a copy on exactly the model's
// holders, each decoding to the reference; (c) ReadServerOf picks a
// holder; (d) no-cache reads and PeekCurrent equal the reference; (e) so
// do the cached reads; (f) a completed batch, healed, holds each key once
// with its current value; (g) versions equal the model's, which never
// decreases and moves only when a write changes the key; (h) the summed
// serving counters equal what the harness's batches sent and got, and no
// blob a read handed out ever changes. Handles are opened only at
// `multiget-complete`: on one thread a handle left open makes a
// migration's drain wait forever (the drain is covered by the
// DrainHoldsDeleteForInflightHandles tests). Each sequence also gets fresh
// readers and a fresh cache, so a failing sequence replays alone.

constexpr uint32_t kServers = 3;
constexpr Label kEdgeLabel = 40;

// What every sequence loads: a 6-node ring plus the edge u -> w that the
// mutations remove and re-add (when the ring already has it, the ring's
// label stays). w is withheld at load and lives in another partition than
// u; the tracked keys are every node of those two partitions.
struct Universe {
  Graph graph;
  std::vector<uint8_t> keep;
  std::array<uint32_t, 2> partitions{};
  std::vector<NodeId> keys;
  std::vector<size_t> part_of;  // tracked-partition index per key
  NodeId u = 0;
  NodeId w = 0;
};

Universe MakeUniverse() {
  StorageTier probe(kServers);
  probe.EnableRepartitioning(/*partitions_per_server=*/1);
  const PartitionMap& map = *probe.partition_map();
  constexpr NodeId kNodes = 6;
  Universe uni;
  uni.partitions[0] = map.PartitionOf(uni.u);
  uni.w = 1;
  while (map.PartitionOf(uni.w) == uni.partitions[0]) {
    ++uni.w;
  }
  uni.partitions[1] = map.PartitionOf(uni.w);
  GraphBuilder b;
  for (NodeId n = 0; n < kNodes; ++n) {
    b.AddNode(n, static_cast<Label>(n + 1));
    b.AddEdge(n, (n + 1) % kNodes, static_cast<Label>(n + 20));
  }
  b.AddEdge(uni.u, uni.w, kEdgeLabel);
  uni.graph = b.Build();
  uni.keep.assign(kNodes, 1);
  uni.keep[uni.w] = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    for (size_t p = 0; p < 2; ++p) {
      if (map.PartitionOf(n) == uni.partitions[p]) {
        uni.keys.push_back(n);
        uni.part_of.push_back(p);
      }
    }
  }
  return uni;
}

std::optional<AdjacencyEntry> EntryOf(const Graph& g, NodeId n) {
  AdjacencyEntry e;
  e.node = n;
  e.node_label = g.node_label(n);
  e.out.assign(g.OutNeighbors(n).begin(), g.OutNeighbors(n).end());
  e.in.assign(g.InNeighbors(n).begin(), g.InNeighbors(n).end());
  return e;
}

bool Matches(const AdjacencyEntry* got, const std::optional<AdjacencyEntry>& want) {
  if (got == nullptr || !want.has_value()) {
    return got == nullptr && !want.has_value();
  }
  return got->node == want->node && got->node_label == want->node_label &&
         got->out == want->out && got->in == want->in;
}

bool Matches(const BlobPtr& blob, const std::optional<AdjacencyEntry>& want) {
  return Matches(blob == nullptr ? nullptr : DecodeAdjacency(*blob).get(), want);
}

enum class OpKind {
  kRead,
  kForm,
  kComplete,
  kMigrate,
  kPromote,
  kDemote,
  kAddVertex,
  kAddEdge,
  kRemoveEdge,
};

struct Op {
  OpKind kind;
  std::string name;
  size_t part = 0;      // tracked partition (migrate, promote, demote)
  uint32_t server = 0;  // migration target
};

// The 16 ops: read, the two halves of a batch in flight, the three
// mutations, and per tracked partition a migration to each server, a
// promotion and a demotion. Partition 0 demotes its first replica and
// partition 1 its last, so a demotion must remove the named replica
// whatever its place in the map's list.
std::vector<Op> Alphabet() {
  std::vector<Op> ops;
  ops.push_back({OpKind::kRead, "read"});
  ops.push_back({OpKind::kForm, "multiget-form"});
  ops.push_back({OpKind::kComplete, "multiget-complete"});
  ops.push_back({OpKind::kAddVertex, "add-vertex"});
  ops.push_back({OpKind::kAddEdge, "add-edge"});
  ops.push_back({OpKind::kRemoveEdge, "remove-edge"});
  for (size_t p = 0; p < 2; ++p) {
    const std::string part = "(p" + std::to_string(p) + ")";
    for (uint32_t s = 0; s < kServers; ++s) {
      ops.push_back({OpKind::kMigrate, "migrate-to-s" + std::to_string(s) + part, p, s});
    }
    ops.push_back({OpKind::kPromote, "promote" + part, p});
    ops.push_back({OpKind::kDemote, (p == 0 ? "demote-first" : "demote-last") + part, p});
  }
  return ops;
}

// One sequence: a fresh tier, its two long-lived readers and the model.
class TierRun {
 public:
  explicit TierRun(const Universe& uni)
      : uni_(uni),
        tier_(kServers),
        uncached_(&tier_, /*cache=*/nullptr),
        cached_(&tier_, &cache_, /*max_inflight_batches=*/1, /*cache_compressed=*/true) {
    tier_.EnableRepartitioning(/*partitions_per_server=*/1);
    tier_.EnableReplication();
    tier_.EnableMutations(uni.graph);
    tier_.LoadGraphSubset(uni.graph, uni.keep);
    for (const NodeId key : uni.keys) {
      ref_.push_back(uni.keep[key] ? EntryOf(uni.graph, key) : std::nullopt);
    }
    version_.assign(uni.keys.size(), 0);
    for (size_t p = 0; p < 2; ++p) {
      holders_[p] = {tier_.partition_map()->owner(uni.partitions[p])};
    }
  }

  void Apply(const Op& op) {
    const uint32_t q = uni_.partitions[op.part];
    std::vector<uint32_t>& holders = holders_[op.part];
    switch (op.kind) {
      case OpKind::kRead:
        Complete(Form());
        break;
      case OpKind::kForm:
        pending_ = Form();
        break;
      case OpKind::kComplete:
        if (pending_.has_value()) {
          Complete(*pending_);
          pending_.reset();
        }
        break;
      case OpKind::kMigrate:
        // Moving onto the owner is a no-op; any other move collapses the
        // holder set to the target (the tier tears replicas down first).
        if (op.server != holders[0]) {
          tier_.MigratePartition(q, op.server);
          holders = {op.server};
        }
        break;
      case OpKind::kPromote:  // onto the lowest server not yet holding it
        for (uint32_t s = 0; s < kServers; ++s) {
          if (!Holds(holders, s)) {
            tier_.AddReplica(q, s);
            holders.push_back(s);
            break;
          }
        }
        break;
      case OpKind::kDemote:
        if (holders.size() > 1) {
          const auto replica = op.part == 0 ? holders.begin() + 1 : holders.end() - 1;
          tier_.RemoveReplica(q, *replica);
          holders.erase(replica);
        }
        break;
      case OpKind::kAddVertex:
        Mutate(GraphMutation::Kind::kAddVertex);
        ref_[Index(uni_.w)] = EntryOf(uni_.graph, uni_.w);
        ++version_[Index(uni_.w)];
        break;
      case OpKind::kAddEdge:
      case OpKind::kRemoveEdge: {
        const bool insert = op.kind == OpKind::kAddEdge;
        Mutate(insert ? GraphMutation::Kind::kAddEdge : GraphMutation::Kind::kRemoveEdge);
        EdgeHalf(uni_.u, uni_.w, insert, /*out=*/true);
        EdgeHalf(uni_.w, uni_.u, insert, /*out=*/false);
        break;
      }
    }
  }

  void Check() {
    // (h) Summed serving counters move only with the harness's batches
    // (and the readers' own fetches, accounted below): migrations, replica
    // fills and mutations are not workload traffic.
    ASSERT_EQ(Served(), expected_) << "get_requests, misses, values_served";
    const PartitionMap& map = *tier_.partition_map();
    const auto replicas = map.ReplicaSnapshot();
    for (size_t p = 0; p < 2; ++p) {  // (a) map state
      const std::vector<uint32_t>& holders = holders_[p];
      ASSERT_EQ(map.owner(uni_.partitions[p]), holders[0]) << "partition " << p;
      ASSERT_EQ(replicas[uni_.partitions[p]],
                std::vector<uint32_t>(holders.begin() + 1, holders.end()))
          << "partition " << p;
    }
    const std::optional<AdjacencyEntry> absent;
    for (size_t i = 0; i < uni_.keys.size(); ++i) {
      const NodeId key = uni_.keys[i];
      const std::vector<uint32_t>& holders = holders_[uni_.part_of[i]];
      for (uint32_t s = 0; s < kServers; ++s) {  // (b) physical copies
        ASSERT_TRUE(Matches(tier_.server(s).PeekBlob(key),
                            Holds(holders, s) ? ref_[i] : absent))
            << "copy of key " << key << " on server " << s;
      }
      ASSERT_TRUE(Holds(holders, tier_.ReadServerOf(key))) << "(c) key " << key;
      ASSERT_TRUE(Matches(tier_.PeekCurrent(key), ref_[i])) << "(d) key " << key;
      ASSERT_EQ(tier_.NodeVersion(key), version_[i]) << "(g) key " << key;
    }
    const Counters before = Served();
    const std::vector<AdjacencyPtr> uncached = uncached_.FetchBatch(uni_.keys);
    const std::vector<AdjacencyPtr> cached = cached_.FetchBatch(uni_.keys);
    for (size_t i = 0; i < uni_.keys.size(); ++i) {
      ASSERT_TRUE(Matches(uncached[i].get(), ref_[i])) << "(d) key " << uni_.keys[i];
      ASSERT_TRUE(Matches(cached[i].get(), ref_[i])) << "(e) key " << uni_.keys[i];
    }
    const Counters after = Served();
    for (size_t c = 0; c < expected_.size(); ++c) {
      expected_[c] += after[c] - before[c];
    }
    for (const auto& [blob, bytes] : held_) {  // (h) held blobs never change
      ASSERT_EQ(*blob, bytes);
    }
  }

 private:
  using Counters = std::array<uint64_t, 3>;  // get_requests, misses, values_served

  // A formed batch: the read server of every tracked key.
  using Batch = std::vector<uint32_t>;

  static bool Holds(const std::vector<uint32_t>& holders, uint32_t s) {
    return std::find(holders.begin(), holders.end(), s) != holders.end();
  }

  size_t Index(NodeId key) const {
    return std::find(uni_.keys.begin(), uni_.keys.end(), key) - uni_.keys.begin();
  }

  Counters Served() const {
    Counters c{};
    for (uint32_t s = 0; s < kServers; ++s) {
      const StorageServerStats& stats = tier_.server(s).stats();
      c[0] += stats.get_requests;
      c[1] += stats.misses;
      c[2] += stats.values_served;
    }
    return c;
  }

  Batch Form() {
    Batch batch;
    for (const NodeId key : uni_.keys) {
      batch.push_back(tier_.ReadServerOf(key));
    }
    return batch;
  }

  // (f) Sends one multiget per server of the snapshot, heals the misses,
  // and checks the result; every key is in exactly one of the multigets.
  void Complete(const Batch& batch) {
    std::vector<BlobPtr> values(uni_.keys.size());
    for (uint32_t s = 0; s < kServers; ++s) {
      std::vector<NodeId> keys;
      std::vector<size_t> slots;
      for (size_t i = 0; i < uni_.keys.size(); ++i) {
        if (batch[i] == s) {
          keys.push_back(uni_.keys[i]);
          slots.push_back(i);
        }
      }
      if (keys.empty()) {
        continue;
      }
      const auto handle = tier_.StartMultiGet(s, keys);
      handle->Execute();
      const std::vector<BlobPtr>& got = handle->Wait();
      for (size_t j = 0; j < slots.size(); ++j) {
        values[slots[j]] = got[j];
        ++expected_[0];
        ++expected_[got[j] == nullptr ? 1 : 2];
      }
    }
    ResolveMigratedMisses(&tier_, uni_.keys, &values);
    for (size_t i = 0; i < uni_.keys.size(); ++i) {
      ASSERT_TRUE(Matches(values[i], ref_[i])) << "(f) key " << uni_.keys[i];
      if (values[i] != nullptr) {
        held_.emplace_back(values[i], *values[i]);
      }
    }
  }

  void Mutate(GraphMutation::Kind kind) {
    GraphMutation m;
    m.kind = kind;
    m.u = kind == GraphMutation::Kind::kAddVertex ? uni_.w : uni_.u;
    m.v = uni_.w;
    m.label = kEdgeLabel;
    tier_.ApplyMutation(m);
  }

  // The reference side of one edge half: idempotent, dropped while the
  // endpoint is absent, and a version bump exactly when the list changes.
  void EdgeHalf(NodeId key, NodeId other, bool insert, bool out) {
    const size_t i = Index(key);
    if (!ref_[i].has_value()) {
      return;
    }
    std::vector<Edge>& list = out ? ref_[i]->out : ref_[i]->in;
    const auto it = std::find_if(list.begin(), list.end(),
                                 [other](const Edge& e) { return e.dst == other; });
    if (insert == (it != list.end())) {
      return;
    }
    if (insert) {
      list.push_back(Edge{other, kEdgeLabel});
    } else {
      list.erase(it);
    }
    ++version_[i];
  }

  const Universe& uni_;
  StorageTier tier_;
  NodeCache<CachedAdjacency> cache_{/*capacity_bytes=*/1 << 20};  // holds every key
  CachedStorageSource uncached_;
  CachedStorageSource cached_;
  std::vector<std::optional<AdjacencyEntry>> ref_;
  std::vector<uint64_t> version_;
  std::array<std::vector<uint32_t>, 2> holders_;  // owner first, then replicas
  std::optional<Batch> pending_;
  Counters expected_{};
  std::vector<std::pair<BlobPtr, std::vector<uint8_t>>> held_;
};

TEST(StorageTierModelCheck, EveryLength4SequenceMatchesTheReference) {
  const Universe uni = MakeUniverse();
  const std::vector<Op> alphabet = Alphabet();
  const size_t n = alphabet.size();
  const size_t total = n * n * n * n;
  size_t ran = 0;
  for (size_t code = 0; code < total; ++code) {
    std::array<size_t, 4> seq{};
    for (size_t j = 0, rest = code; j < seq.size(); ++j, rest /= n) {
      seq[j] = rest % n;
    }
    TierRun run(uni);
    run.Check();
    for (size_t j = 0; j < seq.size() && !HasFatalFailure(); ++j) {
      run.Apply(alphabet[seq[j]]);
      run.Check();
    }
    if (HasFatalFailure()) {
      std::string names;
      for (const size_t op : seq) {
        names += " " + alphabet[op].name;
      }
      FAIL() << "sequence " << code << ":" << names;
    }
    ++ran;
  }
  EXPECT_EQ(ran, total) << "every length-4 sequence over " << n << " ops";
}

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
