// Online-mutation correctness harness.
//
// Three layers, bottom-up:
//   1. A model check over the storage tier: every length-3 interleaving of
//      {mutate, migrate, replicate/demote, read} on tracked keys, each
//      sequence replayed on a fresh tier against a trivially-correct
//      single-map reference — after every step, every tracked key must read
//      back exactly the reference adjacency (exactly-once, no torn or
//      resurrected blobs).
//   2. A 32-seed cross-engine mutation storm: the SAME timed mutation
//      schedule races real migrations, replica churn, async fetches, and a
//      compressed cache on the threaded engine while the sim applies it in
//      virtual time; both engines must answer every query exactly once
//      (order-independent id checksums) and apply every mutation.
//   3. Quiesced-schedule parity: with every mutation applied before the
//      first arrival the engines' full answer VALUES must match — and a
//      schedule that only materialises withheld vertices must be
//      answer-identical to a plain full-load run.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "src/core/grouting.h"

namespace grouting {
namespace {

// ------------------------------------------------------- model check ----

// Reference state: present keys -> adjacency, mutated by the same rules the
// tier documents (idempotent edge halves, absent endpoints dropped).
using ReferenceMap = std::map<NodeId, AdjacencyEntry>;

AdjacencyEntry EntryFromGraph(const Graph& g, NodeId u) {
  AdjacencyEntry e;
  e.node = u;
  e.node_label = g.node_label(u);
  e.out.assign(g.OutNeighbors(u).begin(), g.OutNeighbors(u).end());
  e.in.assign(g.InNeighbors(u).begin(), g.InNeighbors(u).end());
  return e;
}

void ReferenceApply(ReferenceMap* ref, const Graph& g, const GraphMutation& m) {
  switch (m.kind) {
    case GraphMutation::Kind::kAddVertex:
      (*ref)[m.u] = EntryFromGraph(g, m.u);
      break;
    case GraphMutation::Kind::kAddEdge:
    case GraphMutation::Kind::kRemoveEdge: {
      const bool insert = m.kind == GraphMutation::Kind::kAddEdge;
      auto half = [&](NodeId key, NodeId other, bool out) {
        auto it = ref->find(key);
        if (it == ref->end()) {
          return;  // withheld endpoint: dropped, as in the tier
        }
        std::vector<Edge>& list = out ? it->second.out : it->second.in;
        const auto pos = std::find_if(list.begin(), list.end(),
                                      [other](const Edge& e) { return e.dst == other; });
        if (insert && pos == list.end()) {
          list.push_back(Edge{other, m.label});
        } else if (!insert && pos != list.end()) {
          list.erase(pos);
        }
      };
      half(m.u, m.v, /*out=*/true);
      half(m.v, m.u, /*out=*/false);
      break;
    }
  }
}

Graph ModelGraph() {
  GraphBuilder b;
  for (NodeId u = 0; u < 8; ++u) {
    b.AddNode(u, static_cast<Label>(u + 1));
  }
  b.AddEdge(0, 1, 1);
  b.AddEdge(0, 2, 2);
  b.AddEdge(1, 2, 3);
  b.AddEdge(2, 3, 4);
  b.AddEdge(3, 0, 5);
  b.AddEdge(4, 0, 6);
  b.AddEdge(5, 1, 7);
  b.AddEdge(6, 2, 8);
  b.AddEdge(7, 0, 9);  // withheld node: edges live only in the universe
  b.AddEdge(2, 7, 10);
  return b.Build();
}

TEST(MutationModelCheck, AllLength3InterleavingsMatchReference) {
  const Graph g = ModelGraph();
  std::vector<uint8_t> keep(g.num_nodes(), 1);
  keep[7] = 0;  // node 7 materialises only through kAddVertex
  const std::vector<NodeId> tracked = {0, 1, 2, 3, 7};

  // Op alphabet: three mutations, a migration of node 0's partition, and
  // the replica promote/demote pair for the same partition. Reads happen
  // after EVERY step (all tracked keys, through the public read path).
  enum Op : int {
    kOpAddVertex = 0,
    kOpAddEdge,
    kOpRemoveEdge,
    kOpMigrate,
    kOpPromote,
    kOpDemote,
    kNumOps,
  };

  for (int a = 0; a < kNumOps; ++a) {
    for (int b = 0; b < kNumOps; ++b) {
      for (int c = 0; c < kNumOps; ++c) {
        SCOPED_TRACE(::testing::Message() << "sequence " << a << "," << b << "," << c);
        StorageTier tier(2);
        tier.EnableRepartitioning(/*partitions_per_server=*/2);
        tier.EnableReplication();
        tier.EnableMutations(g);
        tier.LoadGraphSubset(g, keep);

        ReferenceMap ref;
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          if (keep[u]) {
            ref[u] = EntryFromGraph(g, u);
          }
        }

        const uint32_t q = tier.partition_map()->PartitionOf(0);
        for (const int op : {a, b, c}) {
          switch (op) {
            case kOpAddVertex: {
              GraphMutation m;
              m.kind = GraphMutation::Kind::kAddVertex;
              m.u = 7;
              tier.ApplyMutation(m);
              ReferenceApply(&ref, g, m);
              break;
            }
            case kOpAddEdge: {
              GraphMutation m;
              m.kind = GraphMutation::Kind::kAddEdge;
              m.u = 0;
              m.v = 3;
              m.label = 11;
              tier.ApplyMutation(m);
              ReferenceApply(&ref, g, m);
              break;
            }
            case kOpRemoveEdge: {
              GraphMutation m;
              m.kind = GraphMutation::Kind::kRemoveEdge;
              m.u = 0;
              m.v = 1;
              tier.ApplyMutation(m);
              ReferenceApply(&ref, g, m);
              break;
            }
            case kOpMigrate:
              tier.MigratePartition(q, 1u - tier.partition_map()->owner(q));
              break;
            case kOpPromote:
              if (tier.partition_map()->replica_count(q) == 0) {
                tier.AddReplica(q, 1u - tier.partition_map()->owner(q));
              }
              break;
            case kOpDemote:
              if (tier.partition_map()->replica_count(q) > 0) {
                tier.RemoveReplica(
                    q, PartitionMap::StampReplica(
                           tier.partition_map()->ReplicaStamp(q), 0));
              }
              break;
            default:
              break;
          }

          // Read step: every tracked key, through the processor's read path
          // (a no-cache source) AND the stats-free healing read, against the
          // reference.
          CachedStorageSource reader(&tier, /*cache=*/nullptr);
          for (const NodeId u : tracked) {
            const auto it = ref.find(u);
            const BlobPtr peeked = tier.PeekCurrent(u);
            const AdjacencyPtr decoded =
                peeked != nullptr ? DecodeAdjacency(*peeked) : nullptr;
            for (const AdjacencyPtr& got : {reader.FetchOne(u), decoded}) {
              if (it == ref.end()) {
                EXPECT_EQ(got, nullptr) << "key " << u << " after op " << op;
                continue;
              }
              ASSERT_NE(got, nullptr) << "key " << u << " after op " << op;
              EXPECT_EQ(got->node, it->second.node) << "key " << u;
              EXPECT_EQ(got->node_label, it->second.node_label) << "key " << u;
              EXPECT_EQ(got->out, it->second.out) << "key " << u;
              EXPECT_EQ(got->in, it->second.in) << "key " << u;
            }
          }
        }
      }
    }
  }
}

// Version stamps are monotonic per key and only move on writes that touch
// the key; with mutations off every stamp reads 0 (comparisons degenerate
// to no-ops on the read path).
TEST(MutationModelCheck, VersionStampsAreMonotonicAndScoped) {
  const Graph g = ModelGraph();
  StorageTier off(2);
  off.LoadGraph(g);
  EXPECT_FALSE(off.mutations_enabled());
  EXPECT_EQ(off.NodeVersion(0), 0u);

  StorageTier tier(2);
  tier.EnableMutations(g);
  tier.LoadGraph(g);
  ASSERT_TRUE(tier.mutations_enabled());
  EXPECT_EQ(tier.NodeVersion(0), 0u);

  GraphMutation m;
  m.kind = GraphMutation::Kind::kAddEdge;
  m.u = 0;
  m.v = 3;
  m.label = 11;
  EXPECT_EQ(tier.ApplyMutation(m), 2u);  // u's out-half + v's in-half
  EXPECT_EQ(tier.NodeVersion(0), 1u);
  EXPECT_EQ(tier.NodeVersion(3), 1u);
  EXPECT_EQ(tier.NodeVersion(1), 0u);  // untouched keys keep their stamp

  // Idempotent re-insert: no write, no version bump.
  EXPECT_EQ(tier.ApplyMutation(m), 0u);
  EXPECT_EQ(tier.NodeVersion(0), 1u);

  m.kind = GraphMutation::Kind::kRemoveEdge;
  EXPECT_EQ(tier.ApplyMutation(m), 2u);
  EXPECT_EQ(tier.NodeVersion(0), 2u);
  EXPECT_EQ(tier.NodeVersion(3), 2u);
}

// ------------------------------------------------- cross-engine storm ----

class MutationEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new ExperimentEnv(DatasetId::kWebGraphLike, /*scale=*/0.08, /*seed=*/23);
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }

  static std::vector<AnsweredQuery> SortedAnswers(const ClusterEngine& engine) {
    std::vector<AnsweredQuery> answers = engine.answers();
    std::sort(answers.begin(), answers.end(),
              [](const AnsweredQuery& a, const AnsweredQuery& b) {
                return a.query_id < b.query_id;
              });
    return answers;
  }

  // Order-independent fold over the answered-id set: the storm's
  // exactly-once signature (values may legitimately depend on write/read
  // timing; the id SET may not).
  static uint64_t IdChecksum(const std::vector<AnsweredQuery>& answers) {
    uint64_t sum = 0;
    for (const AnsweredQuery& a : answers) {
      SplitMix64 chain(a.query_id);
      sum ^= chain.Next();
    }
    return sum;
  }

  static ExperimentEnv* env_;
};

ExperimentEnv* MutationEngineTest::env_ = nullptr;

class MutationStorm : public MutationEngineTest,
                      public ::testing::WithParamInterface<uint64_t> {};

TEST_P(MutationStorm, ThreadedMatchesSimExactlyOnceUnderConcurrentChurn) {
  const uint64_t seed = GetParam();
  const Graph& g = env_->graph();
  const auto queries = env_->SkewedWorkload(/*sessions=*/12, /*queries=*/140,
                                            /*zipf_s=*/1.3);

  RunOptions opts;
  opts.scheme = RoutingSchemeKind::kEmbed;
  opts.processors = 3;
  opts.storage_servers = 4;
  opts.num_landmarks = 12;
  opts.min_separation = 2;
  opts.dimensions = 4;
  // Small compressed cache + async window + repartitioning + replication:
  // mutations race every piece of machinery at once, and the versioned
  // cache staleness check is live on the compressed path.
  opts.cache_bytes = 32 << 10;
  opts.adjacency_encoding = AdjacencyEncoding::kDeltaVarint;
  opts.cache_compressed = true;
  opts.max_inflight_batches = 3;
  opts.repartition_threshold = 1.1;
  opts.repartition_cap = 4;
  opts.partitions_per_server = 4;
  opts.replication_top_k = 2;
  opts.gossip_period_us = 50.0;
  opts.arrival_gap_us = 2.0;
  opts.enable_mutations = true;
  opts.index_refresh_period_us = 100.0;
  const ClusterConfig config = env_->MakeClusterConfig(opts);

  MutationScheduleConfig mc;
  mc.num_mutations = 64;
  mc.gap_us = 20.0;
  mc.seed = seed ^ 0x66;
  const auto schedule = GenerateMutationSchedule(g, {}, mc);

  auto sim = MakeClusterEngine(EngineKind::kSimulated, g, config,
                               env_->MakeStrategy(opts));
  auto threaded = MakeClusterEngine(EngineKind::kThreaded, g, config,
                                    env_->MakeStrategy(opts));
  sim->set_mutation_schedule(schedule);
  threaded->set_mutation_schedule(schedule);
  const ClusterMetrics sim_m = sim->Run(queries);
  const ClusterMetrics thr_m = threaded->Run(queries);

  // Exactly-once: every query answered on both engines, no duplicates, and
  // the order-independent id checksums agree.
  ASSERT_EQ(sim_m.queries, queries.size());
  ASSERT_EQ(thr_m.queries, queries.size());
  const auto sim_answers = SortedAnswers(*sim);
  const auto thr_answers = SortedAnswers(*threaded);
  ASSERT_EQ(sim_answers.size(), queries.size());
  ASSERT_EQ(thr_answers.size(), queries.size());
  for (size_t i = 0; i < sim_answers.size(); ++i) {
    ASSERT_EQ(sim_answers[i].query_id, thr_answers[i].query_id) << "answer " << i;
    if (i > 0) {
      ASSERT_NE(sim_answers[i].query_id, sim_answers[i - 1].query_id)
          << "duplicate answer";
    }
  }
  EXPECT_EQ(IdChecksum(sim_answers), IdChecksum(thr_answers));

  // Every scheduled mutation lands on both engines, even those timed past
  // the last arrival.
  EXPECT_EQ(sim_m.mutations_applied, mc.num_mutations);
  EXPECT_EQ(thr_m.mutations_applied, mc.num_mutations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationStorm,
                         ::testing::Range(uint64_t{1}, uint64_t{33}));

// ------------------------------------------------ quiesced-state parity --

constexpr RoutingSchemeKind kAllSchemes[] = {
    RoutingSchemeKind::kNoCache, RoutingSchemeKind::kNextReady,
    RoutingSchemeKind::kHash, RoutingSchemeKind::kLandmark,
    RoutingSchemeKind::kEmbed};

TEST_F(MutationEngineTest, MutationParityForEveryScheme) {
  // Quiesced edge churn (every entry applies before the first arrival)
  // pins the graph state both engines query, so FULL answer values must
  // match across engines for every scheme.
  const Graph& g = env_->graph();
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);

  MutationScheduleConfig mc;
  mc.num_mutations = 48;
  mc.gap_us = 0.0;  // quiesced
  mc.seed = 91;
  const auto schedule = GenerateMutationSchedule(g, {}, mc);

  for (const RoutingSchemeKind scheme : kAllSchemes) {
    SCOPED_TRACE(RoutingSchemeKindName(scheme));
    RunOptions opts;
    opts.scheme = scheme;
    opts.processors = 3;
    opts.storage_servers = 2;
    opts.num_landmarks = 12;
    opts.min_separation = 2;
    opts.dimensions = 4;
    opts.enable_mutations = true;
    const ClusterConfig config = env_->MakeClusterConfig(opts);

    auto sim = MakeClusterEngine(EngineKind::kSimulated, g, config,
                                 env_->MakeStrategy(opts));
    auto threaded = MakeClusterEngine(EngineKind::kThreaded, g, config,
                                      env_->MakeStrategy(opts));
    sim->set_mutation_schedule(schedule);
    threaded->set_mutation_schedule(schedule);
    const ClusterMetrics sim_m = sim->Run(queries);
    const ClusterMetrics thr_m = threaded->Run(queries);
    ASSERT_EQ(sim_m.queries, queries.size());
    ASSERT_EQ(thr_m.queries, queries.size());
    EXPECT_EQ(sim_m.mutations_applied, mc.num_mutations);
    EXPECT_EQ(thr_m.mutations_applied, mc.num_mutations);

    const auto sim_answers = SortedAnswers(*sim);
    const auto thr_answers = SortedAnswers(*threaded);
    ASSERT_EQ(sim_answers.size(), thr_answers.size());
    for (size_t i = 0; i < sim_answers.size(); ++i) {
      const AnsweredQuery& a = sim_answers[i];
      const AnsweredQuery& b = thr_answers[i];
      ASSERT_EQ(a.query_id, b.query_id) << "answer " << i;
      EXPECT_EQ(a.result.type, b.result.type) << "query " << a.query_id;
      EXPECT_EQ(a.result.aggregate, b.result.aggregate) << "query " << a.query_id;
      EXPECT_EQ(a.result.walk_end, b.result.walk_end) << "query " << a.query_id;
      EXPECT_EQ(a.result.walk_distinct_nodes, b.result.walk_distinct_nodes)
          << "query " << a.query_id;
      EXPECT_EQ(a.result.reachable, b.result.reachable) << "query " << a.query_id;
      EXPECT_EQ(a.result.distance, b.result.distance) << "query " << a.query_id;
    }
  }
}

TEST_F(MutationEngineTest, QuiescedMaterialisationMatchesFullLoad) {
  // Withhold ~25% of the nodes at load and materialise every one of them
  // with quiesced kAddVertex entries: since a vertex add writes the blob
  // the full load would have written, both engines must answer exactly as
  // a plain mutations-off full-load run does.
  const Graph& g = env_->graph();
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);

  Rng rng(57);
  std::vector<uint8_t> keep(g.num_nodes(), 1);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    keep[u] = rng.NextBool(0.75);
  }
  MutationScheduleConfig mc;
  mc.num_mutations = static_cast<size_t>(
      std::count(keep.begin(), keep.end(), static_cast<uint8_t>(0)));
  mc.gap_us = 0.0;  // quiesced
  mc.weight_add_edge = 0.0;
  mc.weight_remove_edge = 0.0;
  mc.seed = 58;
  const auto schedule = GenerateMutationSchedule(g, keep, mc);
  ASSERT_GT(schedule.size(), 0u);

  RunOptions opts;
  opts.scheme = RoutingSchemeKind::kEmbed;
  opts.processors = 3;
  opts.storage_servers = 2;
  opts.num_landmarks = 12;
  opts.min_separation = 2;
  opts.dimensions = 4;

  RunOptions mut_opts = opts;
  mut_opts.enable_mutations = true;
  ClusterConfig mut_config = env_->MakeClusterConfig(mut_opts);
  mut_config.mutation_preload_keep = keep;

  auto reference = MakeClusterEngine(EngineKind::kSimulated, g,
                                     env_->MakeClusterConfig(opts),
                                     env_->MakeStrategy(opts));
  auto sim = MakeClusterEngine(EngineKind::kSimulated, g, mut_config,
                               env_->MakeStrategy(mut_opts));
  auto threaded = MakeClusterEngine(EngineKind::kThreaded, g, mut_config,
                                    env_->MakeStrategy(mut_opts));
  sim->set_mutation_schedule(schedule);
  threaded->set_mutation_schedule(schedule);
  reference->Run(queries);
  const ClusterMetrics sim_m = sim->Run(queries);
  const ClusterMetrics thr_m = threaded->Run(queries);
  ASSERT_EQ(sim_m.queries, queries.size());
  ASSERT_EQ(thr_m.queries, queries.size());
  EXPECT_EQ(sim_m.mutations_applied, schedule.size());
  EXPECT_EQ(thr_m.mutations_applied, schedule.size());

  const auto ref_answers = SortedAnswers(*reference);
  const auto sim_answers = SortedAnswers(*sim);
  const auto thr_answers = SortedAnswers(*threaded);
  ASSERT_EQ(sim_answers.size(), ref_answers.size());
  ASSERT_EQ(thr_answers.size(), ref_answers.size());
  for (size_t i = 0; i < ref_answers.size(); ++i) {
    const AnsweredQuery& r = ref_answers[i];
    for (const AnsweredQuery* other : {&sim_answers[i], &thr_answers[i]}) {
      ASSERT_EQ(r.query_id, other->query_id) << "answer " << i;
      EXPECT_EQ(r.result.aggregate, other->result.aggregate) << "query " << r.query_id;
      EXPECT_EQ(r.result.walk_end, other->result.walk_end) << "query " << r.query_id;
      EXPECT_EQ(r.result.reachable, other->result.reachable) << "query " << r.query_id;
      EXPECT_EQ(r.result.distance, other->result.distance) << "query " << r.query_id;
    }
  }
}

}  // namespace
}  // namespace grouting
