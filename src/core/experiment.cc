#include "src/core/experiment.h"

namespace grouting {

ExperimentEnv::ExperimentEnv(DatasetId dataset, double scale, uint64_t seed)
    : spec_(GetDatasetSpec(dataset)), scale_(scale), seed_(seed) {}

const Graph& ExperimentEnv::graph() {
  if (!graph_.has_value()) {
    graph_ = MakeDataset(spec_.id, scale_, seed_);
  }
  return *graph_;
}

const LandmarkSet& ExperimentEnv::landmarks(size_t count, int32_t separation) {
  const auto key = std::make_tuple(count, separation);
  auto it = landmark_sets_.find(key);
  if (it == landmark_sets_.end()) {
    LandmarkConfig config;
    config.num_landmarks = count;
    config.min_separation = separation;
    config.seed = seed_ ^ 0x11;
    auto set = std::make_unique<LandmarkSet>(LandmarkSet::Select(graph(), config));
    it = landmark_sets_.emplace(key, std::move(set)).first;
  }
  return *it->second;
}

const LandmarkIndex& ExperimentEnv::landmark_index(uint32_t processors, size_t count,
                                                   int32_t separation) {
  const auto key = std::make_tuple(count, separation, processors);
  auto it = indexes_.find(key);
  if (it == indexes_.end()) {
    // Build from a copy of the landmark set: the index owns its set so its
    // incremental updates never mutate the shared one.
    auto index = std::make_unique<LandmarkIndex>(
        LandmarkIndex::Build(landmarks(count, separation), processors));
    it = indexes_.emplace(key, std::move(index)).first;
  }
  return *it->second;
}

const GraphEmbedding& ExperimentEnv::embedding(size_t dims, size_t count,
                                               int32_t separation) {
  const auto key = std::make_tuple(dims, count, separation);
  auto it = embeddings_.find(key);
  if (it == embeddings_.end()) {
    EmbedConfig config;
    config.dimensions = dims;
    config.seed = seed_ ^ 0x22;
    auto emb = std::make_unique<GraphEmbedding>(
        GraphEmbedding::Build(landmarks(count, separation), config));
    it = embeddings_.emplace(key, std::move(emb)).first;
  }
  return *it->second;
}

std::vector<Query> ExperimentEnv::HotspotWorkload(int32_t r, int32_t h, size_t hotspots,
                                                  size_t per_hotspot) {
  WorkloadConfig config;
  config.num_hotspots = hotspots;
  config.queries_per_hotspot = per_hotspot;
  config.hotspot_radius = r;
  config.hops = h;
  config.seed = seed_ ^ 0x33;
  return GenerateHotspotWorkload(graph(), config);
}

std::vector<Query> ExperimentEnv::SkewedWorkload(size_t sessions, size_t queries,
                                                 double zipf_s, int32_t h) {
  SkewedWorkloadConfig config;
  config.num_sessions = sessions;
  config.num_queries = queries;
  config.zipf_s = zipf_s;
  config.hops = h;
  config.seed = seed_ ^ 0x55;
  return GenerateSkewedSessionWorkload(graph(), config);
}

uint64_t ExperimentEnv::AmpleCacheBytes() {
  if (!ample_cache_.has_value()) {
    ample_cache_ = graph().TotalAdjacencyBytes() + (16u << 20);
  }
  return *ample_cache_;
}

std::unique_ptr<RoutingStrategy> ExperimentEnv::MakeStrategy(const RunOptions& options) {
  switch (options.scheme) {
    case RoutingSchemeKind::kNextReady:
    case RoutingSchemeKind::kNoCache:
      return std::make_unique<NextReadyStrategy>();
    case RoutingSchemeKind::kHash:
      return std::make_unique<HashStrategy>();
    case RoutingSchemeKind::kLandmark:
      return std::make_unique<LandmarkStrategy>(
          &landmark_index(options.processors, options.num_landmarks,
                          options.min_separation),
          options.load_factor);
    case RoutingSchemeKind::kEmbed:
      return std::make_unique<EmbedStrategy>(
          &embedding(options.dimensions, options.num_landmarks, options.min_separation),
          options.alpha, options.load_factor, options.processors, seed_ ^ 0x44);
  }
  GROUTING_CHECK_MSG(false, "unknown routing scheme");
  return nullptr;
}

ClusterConfig ExperimentEnv::MakeClusterConfig(const RunOptions& options) {
  ClusterConfig config;
  config.num_processors = options.processors;
  config.num_storage_servers = options.storage_servers;
  config.processor.cache_bytes =
      options.cache_bytes == 0 ? AmpleCacheBytes() : options.cache_bytes;
  config.processor.cache_policy = options.cache_policy;
  config.processor.use_cache = options.scheme != RoutingSchemeKind::kNoCache;
  config.processor.max_inflight_batches = options.max_inflight_batches;
  config.processor.cache_compressed = options.cache_compressed;
  config.adjacency_encoding = options.adjacency_encoding;
  config.cost = options.cost;
  // The threaded engine cannot pace virtual time, but carrying the network
  // profile's propagation delay as an injected per-batch wait keeps
  // cost-model sweeps (Ethernet vs Infiniband) meaningful on real threads.
  config.injected_network_us = options.cost.net.one_way_us;
  config.enable_stealing = options.stealing;
  config.num_router_shards = options.router_shards;
  config.router_splitter = options.splitter;
  config.gossip_period_us = options.gossip_period_us;
  config.router_rebalance.threshold = options.rebalance_threshold;
  config.router_rebalance.migration_cap = options.migration_cap;
  config.repartition.threshold = options.repartition_threshold;
  config.repartition.migration_cap = options.repartition_cap;
  config.repartition.partitions_per_server = options.partitions_per_server;
  config.repartition.replication_top_k = options.replication_top_k;
  config.repartition.replica_demote_threshold = options.replica_demote_threshold;
  config.repartition.max_replicas_per_partition = options.max_replicas_per_partition;
  config.trace_sample_every_n = options.trace_sample_every_n;
  config.trace_buffer_capacity = options.trace_buffer_capacity;
  config.arrival_gap_us = options.arrival_gap_us;
  config.num_tenants = options.num_tenants;
  config.admission = options.admission;
  config.enable_mutations = options.enable_mutations;
  config.index_refresh_period_us = options.index_refresh_period_us;
  return config;
}

ClusterMetrics ExperimentEnv::Run(EngineKind engine, const RunOptions& options,
                                  std::span<const Query> queries) {
  std::vector<Query> generated;
  if (queries.empty()) {
    generated = HotspotWorkload(options.hotspot_radius, options.hops,
                                options.num_hotspots, options.queries_per_hotspot);
    queries = generated;
  }

  auto cluster = MakeClusterEngine(engine, graph(), MakeClusterConfig(options),
                                   MakeStrategy(options));
  if (options.enable_mutations && options.num_mutations > 0) {
    MutationScheduleConfig mc;
    mc.num_mutations = options.num_mutations;
    mc.gap_us = options.mutation_gap_us;
    mc.seed = seed_ ^ 0x66;
    cluster->set_mutation_schedule(GenerateMutationSchedule(graph(), {}, mc));
  }
  return cluster->Run(queries);
}

}  // namespace grouting
