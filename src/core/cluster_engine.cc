#include "src/core/cluster_engine.h"

#include <algorithm>
#include <utility>

#include "src/frontend/admission.h"
#include "src/runtime/threaded_cluster.h"
#include "src/sim/decoupled_sim.h"

namespace grouting {

std::string EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSimulated:
      return "simulated";
    case EngineKind::kThreaded:
      return "threaded";
  }
  GROUTING_CHECK_MSG(false, "unknown engine kind");
  return "";
}

ClusterEngine::ClusterEngine(const Graph& graph, const ClusterConfig& config,
                             std::unique_ptr<RoutingStrategy> strategy,
                             const PartitionAssignment* placement)
    : config_(config) {
  GROUTING_CHECK(config_.num_processors > 0);
  GROUTING_CHECK(config_.num_storage_servers > 0);
  GROUTING_CHECK(config_.num_router_shards > 0);
  GROUTING_CHECK_MSG(config_.processor.max_inflight_batches > 0,
                     "max_inflight_batches must be >= 1");
  GROUTING_CHECK(config_.num_tenants > 0);
  GROUTING_CHECK(config_.admission.burst >= 1.0);
  storage_ = std::make_unique<StorageTier>(config_.num_storage_servers);
  // One read-counter shard per processor plus the shared reader 0: every
  // simulated processor reads as reader 0, so the simulator's p2c sequence
  // is the single-reader one; threaded processor p reads as reader p + 1.
  storage_->set_num_readers(config_.num_processors + 1);
  if (config_.num_tenants > 1) {
    GROUTING_CHECK_MSG(placement == nullptr,
                       "multi-tenant federation is incompatible with an "
                       "explicit storage placement");
    // Federated keyspaces: the tier stores one copy of the graph per tenant
    // and the processors offset their keys by the tier's keyspace stride
    // (num_nodes). Must be set before LoadGraph below.
    storage_->set_num_tenants(config_.num_tenants);
  }
  storage_->set_encoding(config_.adjacency_encoding);
  const RepartitionConfig& repartition = config_.repartition;
  if (repartition.active()) {
    GROUTING_CHECK_MSG(placement == nullptr,
                       "storage repartitioning/replication is incompatible with "
                       "an explicit storage placement");
    storage_->EnableRepartitioning(repartition.partitions_per_server);
    if (repartition.replication_enabled()) {
      GROUTING_CHECK_MSG(
          repartition.max_replicas_per_partition <= PartitionMap::kMaxReplicas,
          "max_replicas_per_partition exceeds the map's packing limit");
      storage_->EnableReplication();
    }
  }
  if (config_.enable_mutations) {
    // Versioned write path: counters must exist before the load below so
    // LoadGraphSubset can register withheld keys. The graph reference is
    // the mutation universe (kAddVertex materialises from it), so callers
    // keep it alive across Run — same lifetime rule every engine already
    // has for traversal.
    storage_->EnableMutations(graph);
  } else {
    GROUTING_CHECK_MSG(config_.mutation_preload_keep.empty(),
                       "mutation_preload_keep requires enable_mutations");
  }
  if (placement != nullptr) {
    GROUTING_CHECK_MSG(config_.mutation_preload_keep.empty(),
                       "a preload keep mask is incompatible with an explicit "
                       "storage placement");
    storage_->LoadGraph(graph, *placement);
  } else if (!config_.mutation_preload_keep.empty()) {
    GROUTING_CHECK_MSG(config_.mutation_preload_keep.size() == graph.num_nodes(),
                       "mutation_preload_keep must be sized num_nodes");
    storage_->LoadGraphSubset(graph, config_.mutation_preload_keep);
  } else {
    storage_->LoadGraph(graph);
  }
  processors_.reserve(config_.num_processors);
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    processors_.push_back(
        std::make_unique<QueryProcessor>(p, storage_.get(), config_.processor));
  }
  FleetConfig fleet;
  fleet.num_shards = config_.num_router_shards;
  fleet.splitter = config_.router_splitter;
  fleet.router.enable_stealing = config_.enable_stealing;
  fleet.gossip_period_us = config_.gossip_period_us;
  fleet.rebalance = config_.router_rebalance;
  fleet_ = std::make_unique<RouterFleet>(std::move(strategy), config_.num_processors,
                                         fleet);
  if (config_.trace_sample_every_n > 0) {
    tracer_ = std::make_unique<TraceRecorder>(
        config_.trace_sample_every_n, config_.trace_buffer_capacity,
        config_.num_processors, config_.num_router_shards);
  }
}

bool ClusterEngine::ExportTrace(const std::string& path, TraceMetadata metadata) const {
  if (tracer_ == nullptr) {
    return false;
  }
  const TraceCounters c = tracer_->counters();
  metadata.emplace_back("engine", EngineKindName(kind()));
  metadata.emplace_back("trace_sample_every_n",
                        std::to_string(tracer_->sample_every_n()));
  metadata.emplace_back("num_processors", std::to_string(config_.num_processors));
  metadata.emplace_back("num_router_shards",
                        std::to_string(config_.num_router_shards));
  metadata.emplace_back("events_recorded", std::to_string(c.recorded));
  metadata.emplace_back("events_dropped", std::to_string(c.dropped));
  metadata.emplace_back("time_unit", "us");
  return WriteChromeTrace(path, tracer_->MergedEvents(), config_.num_processors,
                          config_.num_router_shards, metadata);
}

std::vector<StorageTier::MigrationResult> ClusterEngine::RepartitionRound() {
  std::vector<StorageTier::MigrationResult> executed;
  PartitionMonitor* monitor = storage_->partition_monitor();
  if (monitor == nullptr) {
    return executed;
  }
  const RepartitionConfig& repartition = config_.repartition;
  monitor->RollWindow(RepartitionConfig::kLoadDecay);
  if (repartition.replication_enabled()) {
    const ReplicationPlan plan =
        PlanReplication(*storage_->partition_map(), monitor->rates(), repartition);
    for (const ReplicaChange& d : plan.demote) {
      executed.push_back(storage_->RemoveReplica(d.partition, d.server));
      ++replica_demotions_;
    }
    for (const ReplicaChange& p : plan.promote) {
      executed.push_back(storage_->AddReplica(p.partition, p.server));
      ++replica_promotions_;
    }
  }
  if (repartition.enabled()) {
    // Planned after the replica changes landed, so replicated partitions
    // are excluded as migration victims against the freshest replica sets.
    const std::vector<PartitionMigration> plan =
        PlanRepartition(*storage_->partition_map(), monitor->rates(), repartition);
    for (const PartitionMigration& mig : plan) {
      executed.push_back(storage_->MigratePartition(mig.partition, mig.to));
      ++partitions_migrated_;
    }
  }
  return executed;
}

void ClusterEngine::set_mutation_schedule(std::vector<GraphMutation> schedule) {
  GROUTING_CHECK_MSG(config_.enable_mutations,
                     "set_mutation_schedule requires enable_mutations");
  GROUTING_CHECK_MSG(!ran_, "set the mutation schedule before Run()");
  mutation_schedule_ = std::move(schedule);
  // Stable by apply_us: entries at the same offset keep schedule order, so
  // both engines apply identical sequences.
  std::stable_sort(mutation_schedule_.begin(), mutation_schedule_.end(),
                   [](const GraphMutation& a, const GraphMutation& b) {
                     return a.apply_us < b.apply_us;
                   });
}

void ClusterEngine::set_index_maintainer(IndexMaintainer maintainer) {
  GROUTING_CHECK_MSG(config_.enable_mutations,
                     "set_index_maintainer requires enable_mutations");
  GROUTING_CHECK_MSG(!ran_, "set the index maintainer before Run()");
  index_maintainer_ = std::move(maintainer);
}

uint64_t ClusterEngine::ApplyOneMutation(const GraphMutation& m) {
  const uint64_t writes = storage_->ApplyMutation(m);
  std::lock_guard<std::mutex> lock(mutation_mu_);
  ++mutations_applied_;
  pending_refresh_.push_back(m.u);
  if (m.v != kInvalidNode) {
    pending_refresh_.push_back(m.v);
  }
  return writes;
}

void ClusterEngine::ApplyQuiescedMutations() {
  for (const GraphMutation& m : mutation_schedule_) {
    if (m.apply_us <= 0.0) {
      ApplyOneMutation(m);
    }
  }
}

uint64_t ClusterEngine::RunIndexMaintenance(double now_us) {
  if (!config_.enable_mutations) {
    return 0;
  }
  if (config_.index_refresh_period_us > 0.0 &&
      now_us - last_index_refresh_us_ < config_.index_refresh_period_us) {
    return 0;  // gated: dirty nodes stay pending for a later tick
  }
  std::vector<NodeId> dirty;
  {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    dirty.swap(pending_refresh_);
  }
  if (dirty.empty()) {
    return 0;
  }
  last_index_refresh_us_ = now_us;
  // Canonical order regardless of which thread dirtied what first, so the
  // maintainer sees an engine-independent node list.
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  ++index_refreshes_;
  if (index_maintainer_) {
    const IndexRefreshResult r = index_maintainer_(dirty);
    stale_error_sum_ += r.error_sum;
    stale_error_samples_ += r.error_samples;
  }
  return dirty.size();
}

double ClusterEngine::ArrivalTimeUs(const Query& q, size_t index) const {
  if (q.arrive_us >= 0.0) {
    return q.arrive_us;
  }
  return config_.arrival_gap_us * static_cast<double>(index);
}

ClusterEngine::AdmissionPlan ClusterEngine::PlanAdmission(
    std::span<const Query> queries) const {
  AdmissionPlan plan;
  plan.shed_per_tenant.assign(config_.num_tenants, 0);
  for (const Query& q : queries) {
    GROUTING_CHECK_MSG(q.tenant < config_.num_tenants,
                       "query tenant id out of range");
  }
  if (!config_.admission.enabled()) {
    plan.admitted = queries.size();
    return plan;
  }
  TenantAdmission buckets(config_.admission, config_.num_tenants);
  plan.admit.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool ok = buckets.Admit(queries[i].tenant, ArrivalTimeUs(queries[i], i));
    plan.admit[i] = ok ? 1 : 0;
    if (ok) {
      ++plan.admitted;
    } else {
      ++plan.shed;
      ++plan.shed_per_tenant[queries[i].tenant];
    }
  }
  return plan;
}

void ClusterEngine::RunSamples::Add(uint32_t tenant, double response_us) {
  this->response_us.Add(response_us);
  tenant_response_us[tenant].Add(response_us);
  ++tenant_queries[tenant];
}

void ClusterEngine::RunSamples::Merge(const RunSamples& other) {
  response_us.Merge(other.response_us);
  queue_wait_us.Merge(other.queue_wait_us);
  for (size_t t = 0; t < tenant_queries.size(); ++t) {
    tenant_response_us[t].Merge(other.tenant_response_us[t]);
    tenant_queries[t] += other.tenant_queries[t];
  }
}

ClusterMetrics ClusterEngine::Run(std::span<const Query> queries) {
  GROUTING_CHECK_MSG(!ran_, "ClusterEngine::Run may only be called once");
  ran_ = true;
  // Admission is decided from the schedule's own timestamps before the
  // engine starts, so both engines shed the same arrivals; only admitted
  // queries count towards run completion.
  const AdmissionPlan plan = PlanAdmission(queries);
  answers_.reserve(plan.admitted);
  // Quiesced mutation entries land before any dispatch or worker thread
  // exists: the deterministic mode the cross-engine parity tests run in.
  ApplyQuiescedMutations();
  const RunOutcome run = Execute(queries, plan);
  ClusterMetrics m = FillMetrics(run, plan);
  AddEngineMetrics(&m);
  return m;
}

ClusterMetrics ClusterEngine::FillMetrics(const RunOutcome& run,
                                          const AdmissionPlan& plan) const {
  ClusterMetrics m;
  m.queries = answers_.size();
  m.makespan_us = run.makespan_us;
  m.throughput_qps =
      m.makespan_us > 0.0 ? static_cast<double>(m.queries) / (m.makespan_us / 1e6) : 0.0;
  // The histogram's embedded RunningStat keeps the mean exact; every
  // percentile is one bucket walk instead of a full sort per quantile.
  const LatencyHistogram& response = run.samples.response_us;
  m.mean_response_ms = response.mean() / 1000.0;
  m.p50_response_ms = response.Percentile(50.0) / 1000.0;
  m.p95_response_ms = response.Percentile(95.0) / 1000.0;
  m.p99_response_ms = response.Percentile(99.0) / 1000.0;
  m.p999_response_ms = response.Percentile(99.9) / 1000.0;
  m.mean_queue_wait_ms = run.samples.queue_wait_us.mean() / 1000.0;

  for (const auto& proc : processors_) {
    const ProcessorStats& ps = proc->stats();
    m.cache_hits += ps.cache_hits;
    m.cache_misses += ps.cache_misses;
    m.nodes_visited += ps.nodes_visited;
    m.bytes_from_storage += ps.bytes_fetched;
    m.storage_batches += ps.storage_batches;
    m.batches_inflight_peak = std::max(m.batches_inflight_peak, ps.batches_inflight_peak);
    m.fetch_overlap_us += ps.fetch_overlap_us;
    m.decompress_us += ps.decompress_us;
    if (proc->cache_enabled()) {
      m.cache_entries += proc->cache()->entry_count();
    }
  }

  m.queries_per_router_shard = fleet_->RoutedPerShard();
  m.gossip_rounds = fleet_->gossip_stats().rounds;
  m.router_ema_divergence = fleet_->CurrentEmaDivergence();
  m.sessions_migrated = fleet_->splitter().stats().migrations;
  m.sticky_evictions = fleet_->splitter().stats().evictions;
  m.router_load_imbalance = MaxMinLoadRatio(m.queries_per_router_shard);

  m.storage_load_imbalance = MaxMinLoadRatio(storage_->GetRequestsPerServer());
  m.partitions_migrated = partitions_migrated_;
  m.repartition_stall_us = repartition_stall_us_;
  m.partitions_replicated = replica_promotions_;
  m.replica_reads = storage_->replica_reads();
  m.replica_demotions = replica_demotions_;
  m.adjacency_compression_ratio = storage_->AdjacencyCompressionRatio();

  if (tracer_ != nullptr) {
    const TraceCounters c = tracer_->counters();
    m.trace_events_recorded = c.recorded;
    m.trace_events_dropped = c.dropped;
    m.trace_buffer_high_water = c.high_water;
  }

  m.mutations_applied = mutations_applied_;
  m.index_refreshes = index_refreshes_;
  m.stale_distance_error =
      stale_error_sum_ /
      static_cast<double>(std::max<uint64_t>(1, stale_error_samples_));

  m.queries_shed = plan.shed;
  m.per_tenant.reserve(config_.num_tenants);
  for (uint32_t t = 0; t < config_.num_tenants; ++t) {
    TenantMetrics tm;
    tm.tenant = t;
    tm.queries = run.samples.tenant_queries[t];
    tm.shed = plan.shed_per_tenant[t];
    const LatencyHistogram& h = run.samples.tenant_response_us[t];
    if (h.count() > 0) {
      tm.mean_response_ms = h.mean() / 1000.0;
      tm.p50_response_ms = h.Percentile(50.0) / 1000.0;
      tm.p99_response_ms = h.Percentile(99.0) / 1000.0;
      tm.p999_response_ms = h.Percentile(99.9) / 1000.0;
    }
    m.per_tenant.push_back(tm);
  }
  return m;
}

std::unique_ptr<ClusterEngine> MakeClusterEngine(
    EngineKind kind, const Graph& graph, const ClusterConfig& config,
    std::unique_ptr<RoutingStrategy> strategy, const PartitionAssignment* placement) {
  GROUTING_CHECK(strategy != nullptr);
  switch (kind) {
    case EngineKind::kSimulated:
      return std::make_unique<DecoupledClusterSim>(graph, config, std::move(strategy),
                                                   placement);
    case EngineKind::kThreaded:
      return std::make_unique<ThreadedCluster>(graph, config, std::move(strategy),
                                               placement);
  }
  GROUTING_CHECK_MSG(false, "unknown engine kind");
  return nullptr;
}

}  // namespace grouting
