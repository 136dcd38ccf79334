// Cross-engine parity: the promise in threaded_cluster.h — "the simulator
// and the threaded runtime give identical query answers" — enforced as an
// invariant for every routing scheme.
//
// The same hotspot workload runs through EngineKind::kSimulated and
// EngineKind::kThreaded built from one ClusterConfig; the answer sets
// (sorted by query id) must be identical field-for-field, regardless of the
// nondeterministic interleaving real threads introduce. Query execution is
// deterministic given the graph and Query::seed, so any divergence means an
// engine lost, duplicated, or corrupted a query.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/grouting.h"

namespace grouting {
namespace {

class CrossEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new ExperimentEnv(DatasetId::kWebGraphLike, /*scale=*/0.12, /*seed=*/19);
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }

  static RunOptions SmallRun(RoutingSchemeKind scheme) {
    RunOptions opts;
    opts.scheme = scheme;
    opts.processors = 3;
    opts.storage_servers = 2;
    opts.num_landmarks = 24;
    opts.min_separation = 2;
    opts.dimensions = 6;
    opts.num_hotspots = 25;
    opts.queries_per_hotspot = 4;
    return opts;
  }

  static std::vector<AnsweredQuery> SortedAnswers(const ClusterEngine& engine) {
    std::vector<AnsweredQuery> answers = engine.answers();
    std::sort(answers.begin(), answers.end(),
              [](const AnsweredQuery& a, const AnsweredQuery& b) {
                return a.query_id < b.query_id;
              });
    return answers;
  }

  static ExperimentEnv* env_;
};

ExperimentEnv* CrossEngineTest::env_ = nullptr;

constexpr RoutingSchemeKind kAllSchemes[] = {
    RoutingSchemeKind::kNoCache, RoutingSchemeKind::kNextReady,
    RoutingSchemeKind::kHash, RoutingSchemeKind::kLandmark,
    RoutingSchemeKind::kEmbed};

TEST_F(CrossEngineTest, IdenticalAnswersForEveryScheme) {
  // Two tenants under a quota that sheds, a quiesced mutation schedule and
  // compressed blobs: beyond the answers, every engine-independent counter
  // ClusterEngine::Run fills must come out the same on both engines.
  const Graph& g = env_->graph();
  auto queries = env_->HotspotWorkload(2, 2, 25, 4);
  for (Query& q : queries) {
    q.tenant = q.id % 3 == 0 ? 1 : 0;
  }
  MutationScheduleConfig mc;
  mc.num_mutations = 16;
  mc.gap_us = 0.0;  // quiesced: applied before the first dispatch
  const auto mutations = GenerateMutationSchedule(g, {}, mc);

  for (const RoutingSchemeKind scheme : kAllSchemes) {
    SCOPED_TRACE(RoutingSchemeKindName(scheme));
    RunOptions opts = SmallRun(scheme);
    opts.num_tenants = 2;
    opts.arrival_gap_us = 1.0;
    opts.admission.quota_qps = 250000.0;
    opts.admission.burst = 8.0;
    opts.enable_mutations = true;
    opts.adjacency_encoding = AdjacencyEncoding::kDeltaVarint;
    const ClusterConfig config = env_->MakeClusterConfig(opts);

    auto sim = MakeClusterEngine(EngineKind::kSimulated, g, config,
                                 env_->MakeStrategy(opts));
    auto threaded = MakeClusterEngine(EngineKind::kThreaded, g, config,
                                      env_->MakeStrategy(opts));
    sim->set_mutation_schedule(mutations);
    threaded->set_mutation_schedule(mutations);
    const ClusterMetrics sim_m = sim->Run(queries);
    const ClusterMetrics thr_m = threaded->Run(queries);

    // Every admitted query answered; the quota really sheds.
    ASSERT_GT(sim_m.queries_shed, 0u);
    ASSERT_EQ(sim_m.queries + sim_m.queries_shed, queries.size());
    for (const ClusterMetrics* m : {&sim_m, &thr_m}) {
      const uint64_t split_total = std::accumulate(
          m->queries_per_processor.begin(), m->queries_per_processor.end(),
          uint64_t{0});
      EXPECT_EQ(split_total, m->queries);
    }
    EXPECT_EQ(sim_m.queries, thr_m.queries);
    EXPECT_EQ(sim_m.queries_shed, thr_m.queries_shed);
    ASSERT_EQ(sim_m.per_tenant.size(), 2u);
    ASSERT_EQ(thr_m.per_tenant.size(), 2u);
    for (uint32_t t = 0; t < 2; ++t) {
      SCOPED_TRACE("tenant " + std::to_string(t));
      EXPECT_EQ(sim_m.per_tenant[t].queries, thr_m.per_tenant[t].queries);
      EXPECT_EQ(sim_m.per_tenant[t].shed, thr_m.per_tenant[t].shed);
    }
    EXPECT_EQ(sim_m.mutations_applied, mutations.size());
    EXPECT_EQ(thr_m.mutations_applied, mutations.size());
    EXPECT_GT(sim_m.adjacency_compression_ratio, 1.0);
    EXPECT_EQ(sim_m.adjacency_compression_ratio, thr_m.adjacency_compression_ratio);

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

TEST_F(CrossEngineTest, ShardedAdaptiveParityForEveryScheme) {
  // Answer parity must survive a sharded frontend with mid-run session
  // migration: the engines migrate at different (virtual vs wall-clock)
  // moments, but WHAT is answered may not change. A Zipf stream keeps the
  // rebalance path genuinely active.
  const Graph& g = env_->graph();
  const auto queries = env_->SkewedWorkload(/*sessions=*/40, /*queries=*/300,
                                            /*zipf_s=*/1.1);

  for (const RoutingSchemeKind scheme : kAllSchemes) {
    SCOPED_TRACE(RoutingSchemeKindName(scheme));
    RunOptions opts = SmallRun(scheme);
    opts.router_shards = 3;
    opts.splitter = SplitterKind::kAdaptive;
    opts.rebalance_threshold = 1.2;
    opts.migration_cap = 8;
    opts.gossip_period_us = 50.0;
    opts.arrival_gap_us = 2.0;
    const ClusterConfig config = env_->MakeClusterConfig(opts);

    auto sim = MakeClusterEngine(EngineKind::kSimulated, g, config,
                                 env_->MakeStrategy(opts));
    auto threaded = MakeClusterEngine(EngineKind::kThreaded, g, config,
                                      env_->MakeStrategy(opts));
    const ClusterMetrics sim_m = sim->Run(queries);
    const ClusterMetrics thr_m = threaded->Run(queries);

    ASSERT_EQ(sim_m.queries, queries.size());
    ASSERT_EQ(thr_m.queries, queries.size());

    const auto sim_answers = SortedAnswers(*sim);
    const auto thr_answers = SortedAnswers(*threaded);
    ASSERT_EQ(sim_answers.size(), thr_answers.size());
    for (size_t i = 0; i < sim_answers.size(); ++i) {
      const AnsweredQuery& a = sim_answers[i];
      const AnsweredQuery& b = thr_answers[i];
      ASSERT_EQ(a.query_id, b.query_id) << "answer " << i;
      EXPECT_EQ(a.result.aggregate, b.result.aggregate) << "query " << a.query_id;
      EXPECT_EQ(a.result.walk_end, b.result.walk_end) << "query " << a.query_id;
      EXPECT_EQ(a.result.reachable, b.result.reachable) << "query " << a.query_id;
      EXPECT_EQ(a.result.distance, b.result.distance) << "query " << a.query_id;
    }
  }
}

TEST_F(CrossEngineTest, RepartitioningParityForEveryScheme) {
  // Answer parity must survive storage-tier repartitioning: the engines
  // migrate partitions at different (virtual vs wall-clock) moments and the
  // threaded engine's migrations genuinely race in-flight multigets, but
  // WHAT is answered may not change. A Zipf stream plus a small cache keeps
  // storage traffic — and therefore the monitor's migration signal — alive
  // all run.
  const Graph& g = env_->graph();
  const auto queries = env_->SkewedWorkload(/*sessions=*/40, /*queries=*/300,
                                            /*zipf_s=*/1.2);

  for (const RoutingSchemeKind scheme : kAllSchemes) {
    SCOPED_TRACE(RoutingSchemeKindName(scheme));
    RunOptions opts = SmallRun(scheme);
    opts.cache_bytes = 64 << 10;
    opts.max_inflight_batches = 3;
    opts.repartition_threshold = 1.1;
    opts.repartition_cap = 4;
    opts.partitions_per_server = 8;
    opts.gossip_period_us = 50.0;
    opts.arrival_gap_us = 2.0;
    const ClusterConfig config = env_->MakeClusterConfig(opts);

    auto sim = MakeClusterEngine(EngineKind::kSimulated, g, config,
                                 env_->MakeStrategy(opts));
    auto threaded = MakeClusterEngine(EngineKind::kThreaded, g, config,
                                      env_->MakeStrategy(opts));
    const ClusterMetrics sim_m = sim->Run(queries);
    const ClusterMetrics thr_m = threaded->Run(queries);

    ASSERT_EQ(sim_m.queries, queries.size());
    ASSERT_EQ(thr_m.queries, queries.size());
    // The path must actually be exercised on the deterministic engine.
    EXPECT_GT(sim_m.partitions_migrated, 0u);

    const auto sim_answers = SortedAnswers(*sim);
    const auto thr_answers = SortedAnswers(*threaded);
    ASSERT_EQ(sim_answers.size(), thr_answers.size());
    for (size_t i = 0; i < sim_answers.size(); ++i) {
      const AnsweredQuery& a = sim_answers[i];
      const AnsweredQuery& b = thr_answers[i];
      ASSERT_EQ(a.query_id, b.query_id) << "answer " << i;
      EXPECT_EQ(a.result.aggregate, b.result.aggregate) << "query " << a.query_id;
      EXPECT_EQ(a.result.walk_end, b.result.walk_end) << "query " << a.query_id;
      EXPECT_EQ(a.result.reachable, b.result.reachable) << "query " << a.query_id;
      EXPECT_EQ(a.result.distance, b.result.distance) << "query " << a.query_id;
    }
  }
}

TEST_F(CrossEngineTest, ReplicationParityForEveryScheme) {
  // Hot-partition replication changes WHERE reads are served (p2c across
  // the holder set) and WHEN copies move, never WHAT is answered. Three-way
  // check per scheme: sim-with-replication vs threaded-with-replication
  // (cross-engine parity under real replica churn), and sim-with vs
  // sim-without (turning replication on is answer-invariant). A tiny cache
  // keeps the hot keys hitting storage so promotion actually fires.
  const Graph& g = env_->graph();
  const auto queries = env_->SkewedWorkload(/*sessions=*/6, /*queries=*/500,
                                            /*zipf_s=*/1.5, /*h=*/1);

  for (const RoutingSchemeKind scheme : kAllSchemes) {
    SCOPED_TRACE(RoutingSchemeKindName(scheme));
    RunOptions opts = SmallRun(scheme);
    opts.storage_servers = 4;
    opts.cache_bytes = 8 << 10;
    opts.max_inflight_batches = 3;
    opts.repartition_threshold = 1.1;
    opts.repartition_cap = 4;
    opts.partitions_per_server = 8;
    opts.replication_top_k = 4;
    opts.max_replicas_per_partition = 3;
    opts.replica_demote_threshold = 0.05;
    opts.gossip_period_us = 50.0;
    opts.arrival_gap_us = 1.0;
    const ClusterConfig config = env_->MakeClusterConfig(opts);

    RunOptions off = opts;
    off.replication_top_k = 0;

    auto sim = MakeClusterEngine(EngineKind::kSimulated, g, config,
                                 env_->MakeStrategy(opts));
    auto threaded = MakeClusterEngine(EngineKind::kThreaded, g, config,
                                      env_->MakeStrategy(opts));
    auto sim_off = MakeClusterEngine(EngineKind::kSimulated, g,
                                     env_->MakeClusterConfig(off),
                                     env_->MakeStrategy(off));
    const ClusterMetrics sim_m = sim->Run(queries);
    const ClusterMetrics thr_m = threaded->Run(queries);
    const ClusterMetrics off_m = sim_off->Run(queries);

    ASSERT_EQ(sim_m.queries, queries.size());
    ASSERT_EQ(thr_m.queries, queries.size());
    ASSERT_EQ(off_m.queries, queries.size());
    // The path must actually be exercised on the deterministic engine.
    EXPECT_GT(sim_m.partitions_replicated, 0u);
    EXPECT_GT(sim_m.replica_reads, 0u);
    EXPECT_EQ(off_m.partitions_replicated, 0u);
    EXPECT_EQ(off_m.replica_reads, 0u);

    const auto sim_answers = SortedAnswers(*sim);
    const auto thr_answers = SortedAnswers(*threaded);
    const auto off_answers = SortedAnswers(*sim_off);
    ASSERT_EQ(sim_answers.size(), thr_answers.size());
    ASSERT_EQ(sim_answers.size(), off_answers.size());
    for (size_t i = 0; i < sim_answers.size(); ++i) {
      const AnsweredQuery& a = sim_answers[i];
      const AnsweredQuery& b = thr_answers[i];
      const AnsweredQuery& c = off_answers[i];
      ASSERT_EQ(a.query_id, b.query_id) << "answer " << i;
      ASSERT_EQ(a.query_id, c.query_id) << "answer " << i;
      EXPECT_EQ(a.result.aggregate, b.result.aggregate) << "query " << a.query_id;
      EXPECT_EQ(a.result.walk_end, b.result.walk_end) << "query " << a.query_id;
      EXPECT_EQ(a.result.reachable, b.result.reachable) << "query " << a.query_id;
      EXPECT_EQ(a.result.distance, b.result.distance) << "query " << a.query_id;
      EXPECT_EQ(a.result.aggregate, c.result.aggregate) << "query " << a.query_id;
      EXPECT_EQ(a.result.walk_end, c.result.walk_end) << "query " << a.query_id;
      EXPECT_EQ(a.result.reachable, c.result.reachable) << "query " << a.query_id;
      EXPECT_EQ(a.result.distance, c.result.distance) << "query " << a.query_id;
    }
  }
}

TEST_F(CrossEngineTest, AsyncWindowParityForEveryScheme) {
  // The async storage pipeline (max_inflight_batches > 1) reshapes WHEN
  // fetches happen — per-batch completion events in the sim, overlapping
  // injected round trips in the runtime — but answer parity between the
  // engines must hold exactly as on the synchronous path, and window=1 must
  // stay answer-identical to the async windows.
  const Graph& g = env_->graph();
  const auto queries = env_->HotspotWorkload(2, 2, 25, 4);

  for (const RoutingSchemeKind scheme : kAllSchemes) {
    SCOPED_TRACE(RoutingSchemeKindName(scheme));
    RunOptions opts = SmallRun(scheme);
    opts.max_inflight_batches = 4;
    const ClusterConfig config = env_->MakeClusterConfig(opts);

    auto sim = MakeClusterEngine(EngineKind::kSimulated, g, config,
                                 env_->MakeStrategy(opts));
    auto threaded = MakeClusterEngine(EngineKind::kThreaded, g, config,
                                      env_->MakeStrategy(opts));
    const ClusterMetrics sim_m = sim->Run(queries);
    const ClusterMetrics thr_m = threaded->Run(queries);
    ASSERT_EQ(sim_m.queries, queries.size());
    ASSERT_EQ(thr_m.queries, queries.size());
    EXPECT_GE(sim_m.batches_inflight_peak, 1u);

    RunOptions sync_opts = SmallRun(scheme);
    sync_opts.max_inflight_batches = 1;
    auto sync_sim = MakeClusterEngine(EngineKind::kSimulated, g,
                                      env_->MakeClusterConfig(sync_opts),
                                      env_->MakeStrategy(sync_opts));
    sync_sim->Run(queries);

    const auto sim_answers = SortedAnswers(*sim);
    const auto thr_answers = SortedAnswers(*threaded);
    const auto sync_answers = SortedAnswers(*sync_sim);
    ASSERT_EQ(sim_answers.size(), thr_answers.size());
    ASSERT_EQ(sim_answers.size(), sync_answers.size());
    for (size_t i = 0; i < sim_answers.size(); ++i) {
      const AnsweredQuery& a = sim_answers[i];
      const AnsweredQuery& b = thr_answers[i];
      const AnsweredQuery& c = sync_answers[i];
      ASSERT_EQ(a.query_id, b.query_id) << "answer " << i;
      ASSERT_EQ(a.query_id, c.query_id) << "answer " << i;
      EXPECT_EQ(a.result.aggregate, b.result.aggregate) << "query " << a.query_id;
      EXPECT_EQ(a.result.walk_end, b.result.walk_end) << "query " << a.query_id;
      EXPECT_EQ(a.result.reachable, b.result.reachable) << "query " << a.query_id;
      EXPECT_EQ(a.result.distance, b.result.distance) << "query " << a.query_id;
      EXPECT_EQ(a.result.aggregate, c.result.aggregate) << "query " << a.query_id;
      EXPECT_EQ(a.result.walk_end, c.result.walk_end) << "query " << a.query_id;
      EXPECT_EQ(a.result.reachable, c.result.reachable) << "query " << a.query_id;
      EXPECT_EQ(a.result.distance, c.result.distance) << "query " << a.query_id;
    }
  }
}

TEST_F(CrossEngineTest, EncodingParityForEveryScheme) {
  // Answers must be invariant to the adjacency wire format and to the
  // compressed-cache mode, on both engines: raw (the reference), compressed
  // blobs with a decoded cache, and compressed blobs cached compressed. A
  // small cache keeps eviction — and thus refetch/decode traffic — alive.
  const Graph& g = env_->graph();
  const auto queries = env_->HotspotWorkload(2, 2, 25, 4);

  struct EncodingMode {
    const char* name;
    AdjacencyEncoding encoding;
    bool cache_compressed;
  };
  constexpr EncodingMode kModes[] = {
      {"delta_varint", AdjacencyEncoding::kDeltaVarint, false},
      {"delta_varint+cc", AdjacencyEncoding::kDeltaVarint, true},
  };

  for (const RoutingSchemeKind scheme : kAllSchemes) {
    SCOPED_TRACE(RoutingSchemeKindName(scheme));
    RunOptions raw_opts = SmallRun(scheme);
    raw_opts.cache_bytes = 64 << 10;
    auto raw_sim = MakeClusterEngine(EngineKind::kSimulated, g,
                                     env_->MakeClusterConfig(raw_opts),
                                     env_->MakeStrategy(raw_opts));
    raw_sim->Run(queries);
    const auto reference = SortedAnswers(*raw_sim);
    ASSERT_EQ(reference.size(), queries.size());

    for (const EncodingMode& mode : kModes) {
      SCOPED_TRACE(mode.name);
      RunOptions opts = SmallRun(scheme);
      opts.cache_bytes = 64 << 10;
      opts.adjacency_encoding = mode.encoding;
      opts.cache_compressed = mode.cache_compressed;
      const ClusterConfig config = env_->MakeClusterConfig(opts);

      auto sim = MakeClusterEngine(EngineKind::kSimulated, g, config,
                                   env_->MakeStrategy(opts));
      auto threaded = MakeClusterEngine(EngineKind::kThreaded, g, config,
                                        env_->MakeStrategy(opts));
      const ClusterMetrics sim_m = sim->Run(queries);
      const ClusterMetrics thr_m = threaded->Run(queries);
      ASSERT_EQ(sim_m.queries, queries.size());
      ASSERT_EQ(thr_m.queries, queries.size());
      // Compressed blobs must actually be smaller on this dataset.
      EXPECT_GT(sim_m.adjacency_compression_ratio, 1.0);

      const auto sim_answers = SortedAnswers(*sim);
      const auto thr_answers = SortedAnswers(*threaded);
      ASSERT_EQ(sim_answers.size(), reference.size());
      ASSERT_EQ(thr_answers.size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        const AnsweredQuery& r = reference[i];
        const AnsweredQuery& a = sim_answers[i];
        const AnsweredQuery& b = thr_answers[i];
        ASSERT_EQ(r.query_id, a.query_id) << "answer " << i;
        ASSERT_EQ(r.query_id, b.query_id) << "answer " << i;
        for (const AnsweredQuery* other : {&a, &b}) {
          EXPECT_EQ(r.result.aggregate, other->result.aggregate)
              << "query " << r.query_id;
          EXPECT_EQ(r.result.walk_end, other->result.walk_end)
              << "query " << r.query_id;
          EXPECT_EQ(r.result.walk_distinct_nodes, other->result.walk_distinct_nodes)
              << "query " << r.query_id;
          EXPECT_EQ(r.result.reachable, other->result.reachable)
              << "query " << r.query_id;
          EXPECT_EQ(r.result.distance, other->result.distance)
              << "query " << r.query_id;
        }
      }
    }
  }
}

TEST_F(CrossEngineTest, EnvRunWorksOnBothEnginesForEveryScheme) {
  for (const RoutingSchemeKind scheme : kAllSchemes) {
    SCOPED_TRACE(RoutingSchemeKindName(scheme));
    const RunOptions opts = SmallRun(scheme);
    for (const EngineKind kind : {EngineKind::kSimulated, EngineKind::kThreaded}) {
      const ClusterMetrics m = env_->Run(kind, opts);
      EXPECT_EQ(m.queries, opts.num_hotspots * opts.queries_per_hotspot)
          << EngineKindName(kind);
      EXPECT_GT(m.throughput_qps, 0.0) << EngineKindName(kind);
      EXPECT_GT(m.mean_response_ms, 0.0) << EngineKindName(kind);
      const uint64_t split_total = std::accumulate(
          m.queries_per_processor.begin(), m.queries_per_processor.end(), uint64_t{0});
      EXPECT_EQ(split_total, m.queries) << EngineKindName(kind);
      if (scheme == RoutingSchemeKind::kNoCache) {
        EXPECT_EQ(m.cache_hits, 0u) << EngineKindName(kind);
      }
    }
  }
}

TEST_F(CrossEngineTest, FactoryBuildsTheRequestedKind) {
  const Graph& g = env_->graph();
  ClusterConfig config;
  config.num_processors = 2;
  config.num_storage_servers = 2;
  auto sim = MakeClusterEngine(EngineKind::kSimulated, g, config,
                               std::make_unique<NextReadyStrategy>());
  auto threaded = MakeClusterEngine(EngineKind::kThreaded, g, config,
                                    std::make_unique<NextReadyStrategy>());
  EXPECT_EQ(sim->kind(), EngineKind::kSimulated);
  EXPECT_EQ(threaded->kind(), EngineKind::kThreaded);
  EXPECT_EQ(EngineKindName(sim->kind()), "simulated");
  EXPECT_EQ(EngineKindName(threaded->kind()), "threaded");
}

}  // namespace
}  // namespace grouting
