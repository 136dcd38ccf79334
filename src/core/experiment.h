// ExperimentEnv: the shared harness behind every bench and example.
//
// It lazily builds and memoises the expensive per-dataset artefacts (graph,
// landmark sets, landmark indexes, embeddings) so that a parameter sweep —
// say response time across 7 processor counts x 5 routing schemes — pays
// for preprocessing once, exactly like the paper's experimental setup.
//
// Run() assembles a fresh cluster (cold caches, as in the paper) on the
// requested engine — EngineKind::kSimulated for the paper's modelled
// cluster, EngineKind::kThreaded for real threads — and runs the hotspot
// workload.

#ifndef GROUTING_SRC_CORE_EXPERIMENT_H_
#define GROUTING_SRC_CORE_EXPERIMENT_H_

#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/embed/embedding.h"
#include "src/landmark/landmark_index.h"
#include "src/routing/strategy.h"
#include "src/workload/datasets.h"
#include "src/workload/mutations.h"
#include "src/workload/workload.h"

namespace grouting {

// The paper's Section 4.1 parameter settings.
struct PaperDefaults {
  static constexpr size_t kNumLandmarks = 96;
  static constexpr int32_t kMinSeparation = 3;
  static constexpr size_t kDimensions = 10;
  static constexpr double kLoadFactor = 20.0;
  static constexpr double kAlpha = 0.5;
  static constexpr uint32_t kProcessors = 7;
  static constexpr uint32_t kStorageServers = 4;
  static constexpr size_t kHotspots = 100;
  static constexpr size_t kQueriesPerHotspot = 10;
};

struct RunOptions {
  RoutingSchemeKind scheme = RoutingSchemeKind::kEmbed;
  uint32_t processors = PaperDefaults::kProcessors;
  uint32_t storage_servers = PaperDefaults::kStorageServers;
  // 0 = "ample" (everything fits; the paper's 4 GB setting never evicts).
  uint64_t cache_bytes = 0;
  CachePolicy cache_policy = CachePolicy::kLru;
  bool stealing = true;
  // Async storage pipeline: bound on outstanding multiget batches per
  // processor. 1 = the classic synchronous level barrier.
  uint32_t max_inflight_batches = 1;
  // Adjacency wire format the storage tier stores and ships
  // (src/storage/adjacency.h), and whether processor caches admit the
  // compressed blob instead of the decoded entry.
  AdjacencyEncoding adjacency_encoding = AdjacencyEncoding::kRaw;
  bool cache_compressed = false;
  // Router frontend tier: shards of the arrival stream, splitter kind, and
  // the load/EMA gossip between them (see src/frontend/).
  uint32_t router_shards = 1;
  SplitterKind splitter = SplitterKind::kRoundRobin;
  double gossip_period_us = ClusterConfig{}.gossip_period_us;
  // The controller knobs below are flat mirrors of ClusterConfig's nested
  // policies and default from them; see those structs for their meaning.
  // Adaptive arrival re-splitting: ClusterConfig::router_rebalance.
  double rebalance_threshold = RebalanceConfig{}.threshold;
  uint32_t migration_cap = RebalanceConfig{}.migration_cap;
  // Storage-tier repartitioning and hot-partition replication:
  // ClusterConfig::repartition.
  double repartition_threshold = RepartitionConfig{}.threshold;
  uint32_t repartition_cap = RepartitionConfig{}.migration_cap;
  uint32_t partitions_per_server = RepartitionConfig{}.partitions_per_server;
  uint32_t replication_top_k = RepartitionConfig{}.replication_top_k;
  double replica_demote_threshold = RepartitionConfig{}.replica_demote_threshold;
  uint32_t max_replicas_per_partition = RepartitionConfig{}.max_replicas_per_partition;
  // Query-lifecycle tracing (src/obs/): record every Nth query's spans into
  // the engine's trace rings; 0 disables tracing, 1 traces every query.
  uint32_t trace_sample_every_n = 0;
  // Capacity (events) of each per-processor / per-router-shard trace ring.
  uint32_t trace_buffer_capacity = 1u << 16;
  // Simulated engine: inter-arrival gap (µs). The paper's workload is
  // back-to-back (0); a positive gap interleaves arrivals with execution
  // and gossip rounds, which is what makes inter-shard gossip observable
  // in routing decisions.
  double arrival_gap_us = 0.0;
  double load_factor = PaperDefaults::kLoadFactor;
  double alpha = PaperDefaults::kAlpha;
  size_t dimensions = PaperDefaults::kDimensions;
  size_t num_landmarks = PaperDefaults::kNumLandmarks;
  int32_t min_separation = PaperDefaults::kMinSeparation;
  CostModel cost = CostModel::InfinibandDefaults();
  // Workload shape (r-hop hotspots, h-hop traversals).
  int32_t hotspot_radius = 2;
  int32_t hops = 2;
  size_t num_hotspots = PaperDefaults::kHotspots;
  size_t queries_per_hotspot = PaperDefaults::kQueriesPerHotspot;
  // Multi-tenant graph federation: tenant keyspace count and the per-tenant
  // admission quota (ClusterConfig::admission, copied as is). Open-loop
  // arrival timestamps need no switch: a query carrying Query::arrive_us
  // >= 0 arrives at that instant on both engines.
  uint32_t num_tenants = 1;
  AdmissionConfig admission;
  // Online graph mutations (src/workload/mutations.h): enable the storage
  // tier's versioned write path, and — when num_mutations > 0 — generate a
  // deterministic edge-mutation schedule (seed = env seed ^ 0x66) spaced
  // mutation_gap_us apart and install it on the engine before Run().
  bool enable_mutations = false;
  size_t num_mutations = 0;
  double mutation_gap_us = 50.0;
  // Minimum virtual/wall time between index-maintenance passes on the
  // gossip cadence; 0 = refresh on every gossip tick.
  double index_refresh_period_us = 0.0;
};

class ExperimentEnv {
 public:
  explicit ExperimentEnv(DatasetId dataset, double scale = 1.0, uint64_t seed = 4242);

  const DatasetSpec& spec() const { return spec_; }
  const Graph& graph();

  // Memoised preprocessing artefacts.
  const LandmarkSet& landmarks(size_t count = PaperDefaults::kNumLandmarks,
                               int32_t separation = PaperDefaults::kMinSeparation);
  const LandmarkIndex& landmark_index(uint32_t processors,
                                      size_t count = PaperDefaults::kNumLandmarks,
                                      int32_t separation = PaperDefaults::kMinSeparation);
  const GraphEmbedding& embedding(size_t dims = PaperDefaults::kDimensions,
                                  size_t count = PaperDefaults::kNumLandmarks,
                                  int32_t separation = PaperDefaults::kMinSeparation);

  // The paper's hotspot workload for this graph (deterministic in the env
  // seed and the workload shape).
  std::vector<Query> HotspotWorkload(int32_t r = 2, int32_t h = 2,
                                     size_t hotspots = PaperDefaults::kHotspots,
                                     size_t per_hotspot = PaperDefaults::kQueriesPerHotspot);

  // Zipf-skewed session stream for this graph (deterministic in the env
  // seed): the arrival pattern adaptive re-splitting is measured against.
  std::vector<Query> SkewedWorkload(size_t sessions, size_t queries, double zipf_s,
                                    int32_t h = 2);

  // Cache size at which nothing is ever evicted (the "4 GB" setting).
  uint64_t AmpleCacheBytes();

  // Builds the routing strategy an options struct asks for. The returned
  // strategy references env-owned preprocessing (index/embedding), which
  // stays valid for the env's lifetime.
  std::unique_ptr<RoutingStrategy> MakeStrategy(const RunOptions& options);

  // Lowers an options struct into the unified engine config (resolving
  // "ample" cache to a concrete byte count and the no-cache scheme to a
  // cache-less processor). Benches that assemble engines manually (custom
  // strategies, explicit storage placements) start from this.
  ClusterConfig MakeClusterConfig(const RunOptions& options);

  // Assembles a cold decoupled cluster on the requested engine and runs the
  // workload implied by `options` (or `queries` if provided).
  ClusterMetrics Run(EngineKind engine, const RunOptions& options,
                     std::span<const Query> queries = {});

  uint64_t seed() const { return seed_; }

 private:
  DatasetSpec spec_;
  double scale_;
  uint64_t seed_;
  std::optional<Graph> graph_;
  std::map<std::tuple<size_t, int32_t>, std::unique_ptr<LandmarkSet>> landmark_sets_;
  std::map<std::tuple<size_t, int32_t, uint32_t>, std::unique_ptr<LandmarkIndex>> indexes_;
  std::map<std::tuple<size_t, size_t, int32_t>, std::unique_ptr<GraphEmbedding>> embeddings_;
  std::optional<uint64_t> ample_cache_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_CORE_EXPERIMENT_H_
