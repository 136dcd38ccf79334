// Async storage batches: the issue/probe/complete pipeline behind
// max_inflight_batches.
//
//   * storage layer — StorageServer multiget parity with sequential
//     single-key gets, and the MultiGetHandle holding its reply until the
//     modelled round trip has landed;
//   * window=1 identity — the synchronous path is byte-identical run to run
//     and answer-identical to every async window, on both engines;
//   * exactly-once — a migration-concurrent adaptive run with the async
//     pipeline live still answers every query exactly once;
//   * model check — the sim's per-batch completion events never reorder a
//     query's level semantics, whatever the window;
//   * shape — mean response is monotone-or-flat in the window at a small
//     cache on the sim engine (the bench_fig_async_batch claim).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <vector>

#include "src/core/grouting.h"

namespace grouting {
namespace {

constexpr RoutingSchemeKind kAllSchemes[] = {
    RoutingSchemeKind::kNoCache, RoutingSchemeKind::kNextReady,
    RoutingSchemeKind::kHash, RoutingSchemeKind::kLandmark,
    RoutingSchemeKind::kEmbed};

class AsyncBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new ExperimentEnv(DatasetId::kWebGraphLike, /*scale=*/0.1, /*seed=*/77);
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }

  static RunOptions SmallRun(RoutingSchemeKind scheme, uint32_t window) {
    RunOptions opts;
    opts.scheme = scheme;
    opts.processors = 3;
    opts.storage_servers = 2;
    opts.num_landmarks = 24;
    opts.min_separation = 2;
    opts.dimensions = 6;
    opts.num_hotspots = 20;
    opts.queries_per_hotspot = 4;
    opts.max_inflight_batches = window;
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

  static void ExpectSameAnswers(const std::vector<AnsweredQuery>& a,
                                const std::vector<AnsweredQuery>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].query_id, b[i].query_id) << "answer " << i;
      EXPECT_EQ(a[i].result.aggregate, b[i].result.aggregate)
          << "query " << a[i].query_id;
      EXPECT_EQ(a[i].result.walk_end, b[i].result.walk_end) << "query " << a[i].query_id;
      EXPECT_EQ(a[i].result.walk_distinct_nodes, b[i].result.walk_distinct_nodes)
          << "query " << a[i].query_id;
      EXPECT_EQ(a[i].result.reachable, b[i].result.reachable)
          << "query " << a[i].query_id;
      EXPECT_EQ(a[i].result.distance, b[i].result.distance) << "query " << a[i].query_id;
    }
  }

  static ExperimentEnv* env_;
};

ExperimentEnv* AsyncBatchTest::env_ = nullptr;

// --- storage layer -------------------------------------------------------

// One key through a single-key multiget.
BlobPtr GetOne(StorageServer& server, NodeId key) {
  return server.MultiGet(std::span<const NodeId>(&key, 1))[0];
}

TEST(StorageServerMultiGet, MatchesSequentialGets) {
  StorageServer server(0);
  std::vector<uint8_t> blob = {1, 2, 3, 4};
  for (NodeId k = 0; k < 32; ++k) {
    blob[0] = static_cast<uint8_t>(k);
    server.Load(k, blob);
  }
  const std::vector<NodeId> keys = {3, 999, 0, 31, 7, 7};
  const auto batched = server.MultiGet(keys);
  ASSERT_EQ(batched.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const BlobPtr single = GetOne(server, keys[i]);
    ASSERT_EQ(batched[i] == nullptr, single == nullptr) << "key " << keys[i];
    if (single != nullptr) {
      EXPECT_EQ(*batched[i], *single);
    }
  }
  // 6 multiget probes + 6 verification gets.
  EXPECT_EQ(server.stats().get_requests, 12u);
  EXPECT_EQ(server.stats().misses, 2u);
}

TEST(StorageServerMultiGet, StatsMatchSequentialGets) {
  GraphBuilder builder;
  for (NodeId u = 0; u + 1 < 8; ++u) {
    builder.AddEdge(u, u + 1);
  }
  const Graph g = builder.Build();

  StorageTier sequential(2);
  StorageTier batched(2);
  sequential.LoadGraph(g);
  batched.LoadGraph(g);

  const std::vector<NodeId> nodes = {0, 2, 4, 100};  // 100 is absent
  std::vector<BlobPtr> singles;
  for (NodeId u : nodes) {
    singles.push_back(GetOne(sequential.server(0), u));
  }
  const auto multi = batched.server(0).MultiGet(nodes);

  ASSERT_EQ(multi.size(), singles.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    ASSERT_EQ(multi[i] == nullptr, singles[i] == nullptr) << "node " << nodes[i];
    if (multi[i] != nullptr) {
      EXPECT_EQ(*multi[i], *singles[i]);
    }
  }
  EXPECT_EQ(batched.server(0).stats().get_requests,
            sequential.server(0).stats().get_requests);
  EXPECT_EQ(batched.server(0).stats().values_served,
            sequential.server(0).stats().values_served);
  EXPECT_EQ(batched.server(0).stats().misses, sequential.server(0).stats().misses);
  EXPECT_EQ(batched.server(0).stats().bytes_served,
            sequential.server(0).stats().bytes_served);
}

TEST(MultiGetHandle, WaitHoldsTheReplyUntilItLands) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddNode(NodeId{2});
  const Graph g = builder.Build();
  StorageTier tier(1);
  tier.LoadGraph(g);

  auto handle = tier.StartMultiGet(0, {0, 1, 2});
  handle->Execute();
  const auto landing = MultiGetHandle::Clock::now() + std::chrono::milliseconds(2);
  handle->set_landing(landing);
  const auto& values = handle->Wait();
  // Lower bound only: the reply is never handed over before it lands.
  EXPECT_GE(MultiGetHandle::Clock::now(), landing);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_NE(values[2], nullptr);  // node 2 exists (isolated)
  EXPECT_EQ(DecodeAdjacency(*values[1])->node, 1u);
  EXPECT_EQ(tier.server(0).stats().batch_requests, 1u);
}

TEST(MultiGetHandleDeathTest, WaitBeforeExecuteDies) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  StorageTier tier(1);
  tier.LoadGraph(g);

  auto handle = tier.StartMultiGet(0, {0, 1});
  EXPECT_DEATH(handle->Wait(), "executed_");
}

// --- window=1 identity ---------------------------------------------------

TEST_F(AsyncBatchTest, WindowOneIsDeterministicallyIdenticalOnSim) {
  // The synchronous path must not have moved: two fresh window=1 sim runs
  // agree on every reported metric (virtual time is deterministic), for
  // every routing scheme.
  const Graph& g = env_->graph();
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);
  for (const RoutingSchemeKind scheme : kAllSchemes) {
    SCOPED_TRACE(RoutingSchemeKindName(scheme));
    const RunOptions opts = SmallRun(scheme, /*window=*/1);
    const ClusterConfig config = env_->MakeClusterConfig(opts);
    auto a =
        MakeClusterEngine(EngineKind::kSimulated, g, config, env_->MakeStrategy(opts));
    auto b =
        MakeClusterEngine(EngineKind::kSimulated, g, config, env_->MakeStrategy(opts));
    const ClusterMetrics ma = a->Run(queries);
    const ClusterMetrics mb = b->Run(queries);
    EXPECT_DOUBLE_EQ(ma.mean_response_ms, mb.mean_response_ms);
    EXPECT_DOUBLE_EQ(ma.p95_response_ms, mb.p95_response_ms);
    EXPECT_DOUBLE_EQ(ma.makespan_us, mb.makespan_us);
    EXPECT_EQ(ma.cache_hits, mb.cache_hits);
    EXPECT_EQ(ma.cache_misses, mb.cache_misses);
    EXPECT_EQ(ma.storage_batches, mb.storage_batches);
    EXPECT_EQ(ma.queries_per_processor, mb.queries_per_processor);
    // The synchronous path reports no overlap: nothing runs under a fetch.
    EXPECT_DOUBLE_EQ(ma.fetch_overlap_us, 0.0);
    ExpectSameAnswers(SortedAnswers(*a), SortedAnswers(*b));
  }
}

TEST_F(AsyncBatchTest, EveryWindowIsAnswerIdenticalOnBothEngines) {
  // Growing the window reshapes time, never answers: window 1, 2 and 8 give
  // identical results on the sim engine AND on real threads with the fetch
  // pipeline live, for every routing scheme.
  const Graph& g = env_->graph();
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);
  for (const RoutingSchemeKind scheme : kAllSchemes) {
    SCOPED_TRACE(RoutingSchemeKindName(scheme));
    const RunOptions base = SmallRun(scheme, /*window=*/1);
    auto reference = MakeClusterEngine(EngineKind::kSimulated, g,
                                       env_->MakeClusterConfig(base),
                                       env_->MakeStrategy(base));
    reference->Run(queries);
    const auto want = SortedAnswers(*reference);

    for (const uint32_t window : {2u, 8u}) {
      for (const EngineKind kind : {EngineKind::kSimulated, EngineKind::kThreaded}) {
        SCOPED_TRACE(EngineKindName(kind) + " window " + std::to_string(window));
        const RunOptions opts = SmallRun(scheme, window);
        auto engine = MakeClusterEngine(kind, g, env_->MakeClusterConfig(opts),
                                        env_->MakeStrategy(opts));
        const ClusterMetrics m = engine->Run(queries);
        ASSERT_EQ(m.queries, queries.size());
        ExpectSameAnswers(want, SortedAnswers(*engine));
      }
    }
  }
}

// --- exactly-once under migration-concurrent async fetches ---------------

TEST_F(AsyncBatchTest, ExactlyOnceUnderMigrationConcurrentRun) {
  // Adaptive re-splitting migrates sessions between router shards mid-run
  // while every processor keeps several multiget round trips in flight:
  // each query id must still be answered exactly once, on both engines.
  const Graph& g = env_->graph();
  const auto queries = env_->SkewedWorkload(/*sessions=*/30, /*queries=*/240,
                                            /*zipf_s=*/1.1);
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed, /*window=*/4);
  opts.router_shards = 3;
  opts.splitter = SplitterKind::kAdaptive;
  opts.rebalance_threshold = 1.2;
  opts.migration_cap = 8;
  opts.gossip_period_us = 50.0;
  opts.arrival_gap_us = 2.0;

  for (const EngineKind kind : {EngineKind::kSimulated, EngineKind::kThreaded}) {
    SCOPED_TRACE(EngineKindName(kind));
    auto engine = MakeClusterEngine(kind, g, env_->MakeClusterConfig(opts),
                                    env_->MakeStrategy(opts));
    const ClusterMetrics m = engine->Run(queries);
    ASSERT_EQ(m.queries, queries.size());
    std::map<uint64_t, int> seen;
    for (const AnsweredQuery& a : engine->answers()) {
      seen[a.query_id] += 1;
    }
    ASSERT_EQ(seen.size(), queries.size());
    for (const Query& q : queries) {
      EXPECT_EQ(seen[q.id], 1) << "query " << q.id;
    }
  }
}

// --- sim model check: overlap never reorders level semantics --------------

TEST_F(AsyncBatchTest, SimOverlapNeverReordersPerQueryLevels) {
  const Graph& g = env_->graph();
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);
  for (const uint32_t window : {1u, 2u, 8u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    const RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed, window);
    DecoupledClusterSim sim(g, env_->MakeClusterConfig(opts), env_->MakeStrategy(opts));
    sim.Run(queries);

    // Per query: levels complete 0, 1, 2, ... in nondecreasing virtual
    // time. Any out-of-order batch completion leaking across a level
    // boundary would break the sequence.
    std::map<uint64_t, uint32_t> next_level;
    std::map<uint64_t, SimTimeUs> last_time;
    ASSERT_FALSE(sim.level_completions().empty());
    for (const auto& rec : sim.level_completions()) {
      EXPECT_EQ(rec.level, next_level[rec.query_id])
          << "query " << rec.query_id << " completed level " << rec.level
          << " out of order";
      next_level[rec.query_id] = rec.level + 1;
      EXPECT_GE(rec.time, last_time[rec.query_id]) << "query " << rec.query_id;
      last_time[rec.query_id] = rec.time;
    }
    EXPECT_EQ(next_level.size(), queries.size());
  }
}

// --- shape: monotone-or-flat response in the window -----------------------

TEST_F(AsyncBatchTest, MeanResponseMonotoneOrFlatInWindowAtSmallCache) {
  // The bench_fig_async_batch acceptance shape, pinned as a test: at a
  // small cache on the sim engine, growing the window never makes mean
  // response worse (2 storage servers bound a level's fan-out, so any
  // window >= 2 overlaps every batch a level has).
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed, 1);
  opts.cache_bytes = std::max<uint64_t>(env_->graph().TotalAdjacencyBytes() / 16, 1);
  double prev = 0.0;
  for (const uint32_t window : {1u, 2u, 4u, 8u}) {
    opts.max_inflight_batches = window;
    const ClusterMetrics m = env_->Run(EngineKind::kSimulated, opts);
    SCOPED_TRACE("window " + std::to_string(window));
    EXPECT_GT(m.mean_response_ms, 0.0);
    if (window > 1) {
      EXPECT_LE(m.mean_response_ms, prev * 1.0001)
          << "mean response regressed when the window grew";
      EXPECT_GT(m.fetch_overlap_us, 0.0);
      EXPECT_GE(m.batches_inflight_peak, 1u);
    }
    prev = m.mean_response_ms;
  }
}

TEST_F(AsyncBatchTest, ThreadedAsyncRunReportsOverlap) {
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed, 4);
  opts.cache_bytes = std::max<uint64_t>(env_->graph().TotalAdjacencyBytes() / 16, 1);
  const ClusterMetrics m = env_->Run(EngineKind::kThreaded, opts);
  EXPECT_EQ(m.queries, 20u * 4u);
  // Real handles were serviced on real threads: some probe/merge work ran
  // while a batch was outstanding, and the window was genuinely occupied.
  EXPECT_GT(m.fetch_overlap_us, 0.0);
  EXPECT_GE(m.batches_inflight_peak, 1u);

  RunOptions sync_opts = opts;
  sync_opts.max_inflight_batches = 1;
  const ClusterMetrics sync_m = env_->Run(EngineKind::kThreaded, sync_opts);
  EXPECT_DOUBLE_EQ(sync_m.fetch_overlap_us, 0.0);
  EXPECT_EQ(sync_m.batches_inflight_peak, 0u);
}

}  // namespace
}  // namespace grouting
