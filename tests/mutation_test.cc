// Online-mutation correctness on the engines. The storage-tier side —
// every length-4 sequence of add-vertex/add-edge/remove-edge, migrations,
// replica changes, reads and in-flight batches against one reference — is
// the model checker in model_check_test.cc. Here:
//   1. Version stamps: monotonic per key, moved only by writes that touch
//      the key, always 0 with mutations off.
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
#include <memory>
#include <vector>

#include "src/core/grouting.h"

namespace grouting {
namespace {

// ------------------------------------------------------ version stamps ----

Graph ModelGraph() {
  GraphBuilder b;
  for (NodeId u = 0; u < 4; ++u) {
    b.AddNode(u, static_cast<Label>(u + 1));
    b.AddEdge(u, (u + 1) % 4, static_cast<Label>(u + 1));
  }
  return b.Build();
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
