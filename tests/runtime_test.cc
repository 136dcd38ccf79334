// Tests for the real threaded runtime, including the cross-engine agreement
// property: the threaded cluster and the reference executor produce the
// same answers for the same queries.

#include <gtest/gtest.h>

#include <map>

#include "src/graph/generators.h"
#include "src/runtime/threaded_cluster.h"
#include "src/workload/workload.h"

namespace grouting {
namespace {

class ThreadedClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LocalityWebConfig cfg;
    cfg.grid_width = 5;
    cfg.grid_height = 5;
    cfg.community_size = 30;
    graph_ = GenerateLocalityWeb(cfg, 4);
    WorkloadConfig wc;
    wc.num_hotspots = 15;
    wc.queries_per_hotspot = 4;
    wc.seed = 21;
    queries_ = GenerateHotspotWorkload(graph_, wc);
  }

  ClusterConfig BaseConfig() const {
    ClusterConfig cfg;
    cfg.num_processors = 3;
    cfg.num_storage_servers = 2;
    cfg.processor.cache_bytes = graph_.TotalAdjacencyBytes() + (1 << 20);
    return cfg;
  }

  Graph graph_;
  std::vector<Query> queries_;
};

TEST_F(ThreadedClusterTest, AllQueriesAnswered) {
  ThreadedCluster cluster(graph_, BaseConfig(), std::make_unique<NextReadyStrategy>());
  auto metrics = cluster.Run(queries_);
  const auto& answers = cluster.answers();
  EXPECT_EQ(metrics.queries, queries_.size());
  EXPECT_EQ(answers.size(), queries_.size());
  EXPECT_GT(metrics.throughput_qps, 0.0);
  // Every query id answered exactly once.
  std::set<uint64_t> ids;
  for (const auto& a : answers) {
    EXPECT_TRUE(ids.insert(a.query_id).second);
    EXPECT_LT(a.processor, 3u);
  }
}

TEST_F(ThreadedClusterTest, AnswersMatchReferenceExecutor) {
  ThreadedCluster cluster(graph_, BaseConfig(), std::make_unique<HashStrategy>());
  cluster.Run(queries_);
  const auto& answers = cluster.answers();

  std::map<uint64_t, const Query*> by_id;
  for (const Query& q : queries_) {
    by_id[q.id] = &q;
  }
  DirectGraphSource reference(graph_);
  for (const auto& a : answers) {
    const Query& q = *by_id.at(a.query_id);
    const QueryResult expected = ExecuteQuery(q, reference);
    EXPECT_EQ(a.result.aggregate, expected.aggregate) << "query " << q.id;
    EXPECT_EQ(a.result.reachable, expected.reachable) << "query " << q.id;
    EXPECT_EQ(a.result.walk_end, expected.walk_end) << "query " << q.id;
  }
}

TEST_F(ThreadedClusterTest, WorkConservedAcrossProcessors) {
  ThreadedCluster cluster(graph_, BaseConfig(), std::make_unique<NextReadyStrategy>());
  auto metrics = cluster.Run(queries_);
  uint64_t total = 0;
  for (uint64_t c : metrics.queries_per_processor) {
    total += c;
  }
  EXPECT_EQ(total, queries_.size());
}

TEST_F(ThreadedClusterTest, StealingBalancesPinnedLoad) {
  // A strategy that pins everything to processor 0: with stealing enabled,
  // other processors must still end up doing some of the work. Stealing
  // only triggers once a backlog forms on channel 0, which races with the
  // router's push rate, so use heavier queries (slower drain) and allow a
  // few fresh-cluster attempts before declaring stealing broken.
  class PinStrategy : public RoutingStrategy {
   public:
    std::string name() const override { return "pin"; }
    uint32_t Route(NodeId, const RouterContext&) override { return 0; }
  };
  std::vector<Query> heavy = queries_;
  for (Query& q : heavy) {
    q.hops = 3;
  }
  ClusterConfig cfg = BaseConfig();
  cfg.enable_stealing = true;
  uint64_t steals = 0;
  uint64_t on_others = 0;
  for (int attempt = 0; attempt < 5 && (steals == 0 || on_others == 0); ++attempt) {
    ThreadedCluster cluster(graph_, cfg, std::make_unique<PinStrategy>());
    auto metrics = cluster.Run(heavy);
    steals = metrics.steals;
    on_others = 0;
    for (uint32_t p = 1; p < 3; ++p) {
      on_others += metrics.queries_per_processor[p];
    }
  }
  EXPECT_GT(steals, 0u);
  EXPECT_GT(on_others, 0u);
}

TEST_F(ThreadedClusterTest, CacheHitsAccumulate) {
  ThreadedCluster cluster(graph_, BaseConfig(), std::make_unique<HashStrategy>());
  auto metrics = cluster.Run(queries_);
  EXPECT_GT(metrics.cache_hits + metrics.cache_misses, 0u);
  EXPECT_GT(metrics.cache_hits, 0u);  // hotspot workload must hit
}

TEST_F(ThreadedClusterTest, NoCacheMode) {
  ClusterConfig cfg = BaseConfig();
  cfg.processor.use_cache = false;
  ThreadedCluster cluster(graph_, cfg, std::make_unique<NextReadyStrategy>());
  auto metrics = cluster.Run(queries_);
  EXPECT_EQ(metrics.cache_hits, 0u);
  EXPECT_EQ(metrics.queries, queries_.size());
}

TEST_F(ThreadedClusterTest, SingleProcessor) {
  ClusterConfig cfg = BaseConfig();
  cfg.num_processors = 1;
  ThreadedCluster cluster(graph_, cfg, std::make_unique<NextReadyStrategy>());
  auto metrics = cluster.Run(queries_);
  EXPECT_EQ(metrics.queries_per_processor[0], queries_.size());
  EXPECT_EQ(metrics.steals, 0u);
}

TEST_F(ThreadedClusterTest, ManyProcessorsFewQueries) {
  ClusterConfig cfg = BaseConfig();
  cfg.num_processors = 8;
  std::vector<Query> few(queries_.begin(), queries_.begin() + 3);
  ThreadedCluster cluster(graph_, cfg, std::make_unique<NextReadyStrategy>());
  auto metrics = cluster.Run(few);
  EXPECT_EQ(metrics.queries, 3u);
}

TEST_F(ThreadedClusterTest, ReportsLatencyPercentiles) {
  // The unified metrics give the threaded engine the response-time
  // statistics the simulator always had, from per-query wall timestamps.
  ThreadedCluster cluster(graph_, BaseConfig(), std::make_unique<HashStrategy>());
  auto metrics = cluster.Run(queries_);
  // Structural properties only: wall-clock distributions on shared machines
  // can have arbitrary scheduling tails, so no mean/p95 ratio assertions.
  EXPECT_GT(metrics.mean_response_ms, 0.0);
  EXPECT_GT(metrics.p95_response_ms, 0.0);
  EXPECT_GE(metrics.mean_queue_wait_ms, 0.0);
  EXPECT_GT(metrics.makespan_us, 0.0);
  EXPECT_GT(metrics.nodes_visited, 0u);
  EXPECT_GT(metrics.storage_batches, 0u);
  EXPECT_GT(metrics.bytes_from_storage, 0u);
}

TEST_F(ThreadedClusterTest, EmptyWorkload) {
  ThreadedCluster cluster(graph_, BaseConfig(), std::make_unique<NextReadyStrategy>());
  auto metrics = cluster.Run({});
  EXPECT_EQ(metrics.queries, 0u);
}

TEST_F(ThreadedClusterTest, RunTwiceIsRejected) {
  // Both engines share ClusterEngine::Run, so the run-once check holds on
  // real threads too. Every worker of the first run has joined by the time
  // Run returns, so the death test forks a single-threaded process.
  ThreadedCluster cluster(graph_, BaseConfig(), std::make_unique<NextReadyStrategy>());
  cluster.Run(queries_);
  EXPECT_DEATH(cluster.Run(queries_), "Run may only be called once");
}

}  // namespace
}  // namespace grouting
