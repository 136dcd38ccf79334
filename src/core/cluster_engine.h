// ClusterEngine: the single abstraction both execution engines implement.
//
// The paper's claim is that smart routing pays off in *both* a modelled
// decoupled cluster (the discrete-event simulator, virtual time) and a real
// one (the threaded runtime, wall time). This header gives them one shared
// vocabulary so every bench, example and test can target either engine:
//
//   * ClusterConfig  — processors, storage servers, per-processor cache,
//                      stealing, cost model / injected network delay,
//   * ClusterMetrics — throughput, mean/p95 response, queue wait, cache
//                      hits/misses, storage bytes/batches, steals, and the
//                      per-processor load split,
//   * EngineKind     — kSimulated | kThreaded, resolved by the
//                      MakeClusterEngine factory.
//
// The base class owns what both engines share: the assembly (loading the
// graph into the storage tier, hash placement or an explicit assignment,
// standing up the processors and the router frontend's RouterFleet) and the
// run itself — Run() plans admission, applies quiesced mutations and fills
// the metrics once for both engines, which supply only Execute and
// AddEngineMetrics.

#ifndef GROUTING_SRC_CORE_CLUSTER_ENGINE_H_
#define GROUTING_SRC_CORE_CLUSTER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/frontend/admission.h"
#include "src/frontend/router_fleet.h"
#include "src/net/cost_model.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/proc/processor.h"
#include "src/query/query.h"
#include "src/routing/strategy.h"
#include "src/storage/storage_tier.h"
#include "src/util/stats.h"

namespace grouting {

enum class EngineKind {
  kSimulated,  // discrete-event simulation, deterministic virtual time
  kThreaded,   // real threads, wall-clock time
};

std::string EngineKindName(EngineKind kind);

// One configuration for either engine. Fields a given engine cannot honour
// are documented as such rather than split into per-engine structs — the
// whole point is that a sweep can flip EngineKind without rebuilding its
// config.
struct ClusterConfig {
  uint32_t num_processors = 7;  // paper default tier split: 1 / 7 / 4
  // Storage servers in the decoupled tier (paper default: 4).
  uint32_t num_storage_servers = 4;
  // Per-processor settings, including the async fetch pipeline's
  // processor.max_inflight_batches window (1 = synchronous level barrier;
  // > 1 = overlap cache probes with outstanding multiget batches).
  ProcessorConfig processor;
  // Idle processors steal queued queries from the longest sibling queue.
  bool enable_stealing = true;
  // Virtual-time cost model. Drives the simulated engine; the threaded
  // engine runs at memory speed and honours only the network terms: a
  // 2 x injected_network_us round trip plus cost.net.per_kb_us on each
  // batch's wire bytes (both skipped when injected_network_us is 0).
  CostModel cost = CostModel::InfinibandDefaults();
  // Inter-arrival gap between queries at the router (µs); the paper sends
  // queries back to back. The simulated engine schedules arrivals in
  // virtual time; the threaded engine's feeder paces it in wall time. A
  // query carrying an open-loop timestamp (Query::arrive_us >= 0, set by
  // the open-loop generators) arrives at that instant instead.
  double arrival_gap_us = 0.0;
  // Threaded engine: injected one-way network delay per storage batch (µs),
  // sat out by the issuing processor in its wait for the batch's reply.
  // 0 = memory speed.
  double injected_network_us = 0.0;
  // Wire format the storage tier stores and ships adjacency blobs in
  // (src/storage/adjacency.h). kDeltaVarint compresses sorted neighbour
  // ids to delta varints, cutting per-KB network transfer; decoding
  // auto-detects, so either setting reads either format.
  AdjacencyEncoding adjacency_encoding = AdjacencyEncoding::kRaw;

  // --- Router frontend tier (src/frontend/) ---
  // Shared-nothing router shards fed by the arrival splitter; each owns a
  // slice of the arrival stream and its own strategy state. 1 = the paper's
  // single smart router.
  uint32_t num_router_shards = 1;
  // How arrivals are split across shards.
  SplitterKind router_splitter = SplitterKind::kRoundRobin;
  // Period of the load/EMA gossip between shards (virtual µs on the
  // simulated engine, wall-clock µs on the threaded one). 0 disables gossip.
  double gossip_period_us = 200.0;
  // Adaptive arrival re-splitting (router_splitter == kAdaptive): at each
  // gossip round, migrate up to router_rebalance.migration_cap hot sessions
  // from the most- to the least-loaded shard once the max/min routed-load
  // ratio exceeds router_rebalance.threshold. The default threshold
  // disables migration — kAdaptive then behaves exactly like kSticky.
  // Requires gossip_period_us > 0 (rebalance rides the gossip round).
  RebalanceConfig router_rebalance;

  // --- Storage-tier adaptive repartitioning (src/partition/repartition.h) ---
  // At each gossip-aligned round, migrate up to repartition.migration_cap
  // hot partitions from the most- to the least-loaded storage server once
  // the max/min decayed access-rate ratio exceeds repartition.threshold,
  // and promote up to repartition.replication_top_k of the hottest
  // partitions to an extra replica. Both are off by default, which keeps
  // the storage tier byte-identical to the static hash-placement design.
  // repartition.enabled() / replication_enabled() / active() are the single
  // source of truth for whether migration and/or replication run. Either
  // needs gossip_period_us > 0 (rounds ride the gossip tick) and is
  // incompatible with an explicit storage placement.
  RepartitionConfig repartition;

  // --- Observability (src/obs/) ---
  // Per-query lifecycle tracing: record every Nth query's spans (arrival,
  // routing, queue wait, levels, batches, stalls, decode) into per-track
  // ring buffers. 0 disables tracing entirely — no recorder is built and a
  // simulated run is metric-identical to one without the subsystem; 1
  // traces every query. Virtual timestamps on the simulated engine, wall
  // clock on the threaded one.
  uint32_t trace_sample_every_n = 0;
  // Capacity (events) of each per-processor / per-router-shard trace ring.
  // A full ring drops new events and counts them (trace_events_dropped).
  uint32_t trace_buffer_capacity = 1u << 16;

  // --- Multi-tenant graph federation (src/storage/ keyspaces + admission) ---
  // Tenant count: the storage tier loads one keyspace copy of the graph per
  // tenant (tenant t's node u lives at global key u + t * num_nodes), so
  // placement, repartitioning, and replication keep working per tenant with
  // no special cases below the keyspace mapping. 1 = the classic
  // single-tenant cluster, metric-identical to the pre-federation engine.
  // Incompatible with an explicit storage placement.
  uint32_t num_tenants = 1;
  // Per-tenant admission quota and token burst at the arrival splitter,
  // applied to the arrival schedule before any router shard sees it. The
  // default quota disables admission control.
  AdmissionConfig admission;

  // --- Online graph mutations (StorageTier::ApplyMutation) ---
  // Versioned write path: the tier allocates one monotonic version counter
  // per global key, processor caches re-validate hits against it, and the
  // engine accepts a mutation schedule (set_mutation_schedule) that both
  // engines apply identically — the sim as virtual-time events charging
  // CostModel::mutation_* terms, the threaded runtime via a writer thread
  // pacing each entry's apply_us from the run epoch. false keeps every
  // read path metric-identical to the read-only engine.
  bool enable_mutations = false;
  // Nodes preloaded before the run when mutations are on: keep[u] != 0
  // loads node u's adjacency up front, keep[u] == 0 withholds it until a
  // kAddVertex mutation materialises it (the fig10 "X% preprocessed"
  // protocol). Sized num_nodes, or empty = preload everything. Requires
  // enable_mutations and no explicit storage placement.
  std::vector<uint8_t> mutation_preload_keep;
  // Minimum gap between incremental index-refresh passes (virtual µs on
  // the simulated engine, wall µs on the threaded one). Refresh rides the
  // gossip cadence: at each gossip tick at least this far from the last
  // pass, nodes dirtied by mutations since then are drained to the
  // registered index maintainer. 0 = refresh at every gossip tick.
  double index_refresh_period_us = 0.0;
};

// One tenant's slice of a run (multi-tenant federation). Response
// percentiles come from a per-tenant LatencyHistogram, same time base and
// bucket error as the run-level percentiles.
struct TenantMetrics {
  // Tenant id (index into ClusterConfig::num_tenants).
  uint32_t tenant = 0;
  // Queries from this tenant answered over the run.
  uint64_t queries = 0;
  // Arrivals from this tenant shed by admission control.
  uint64_t shed = 0;
  // Mean dispatch -> completion time for this tenant's queries (ms).
  double mean_response_ms = 0.0;
  // Median of the same distribution (ms).
  double p50_response_ms = 0.0;
  // 99th percentile (ms) — the per-tenant SLO tail.
  double p99_response_ms = 0.0;
  // 99.9th percentile (ms).
  double p999_response_ms = 0.0;

  // Shed arrivals as a fraction of this tenant's offered arrivals.
  double ShedRate() const {
    const uint64_t offered = queries + shed;
    return offered == 0 ? 0.0 : static_cast<double>(shed) / static_cast<double>(offered);
  }

  bool operator==(const TenantMetrics&) const = default;
};

// One metrics struct for either engine. Times are virtual µs for the
// simulated engine and wall-clock µs for the threaded one; the shape of the
// numbers (ratios between schemes) is what experiments compare.
struct ClusterMetrics {
  // Queries answered over the run (every workload query, exactly once).
  uint64_t queries = 0;
  double makespan_us = 0.0;  // arrival of first query -> last completion
  // queries / makespan, in queries per second.
  double throughput_qps = 0.0;
  double mean_response_ms = 0.0;  // dispatch -> completion (paper's metric)
  // Response-time percentiles over the per-query dispatch -> completion
  // time, read from the log-bucketed LatencyHistogram (within one bucket
  // width, ~3%, of the exact sorted-sample percentile). The tail pair
  // (p99/p999) is what run-level means cannot show and what the CI
  // regression gate additionally watches.
  double p50_response_ms = 0.0;
  // 95th percentile of the per-query dispatch -> completion time.
  double p95_response_ms = 0.0;
  // 99th percentile of the per-query dispatch -> completion time.
  double p99_response_ms = 0.0;
  // 99.9th percentile of the per-query dispatch -> completion time.
  double p999_response_ms = 0.0;
  double mean_queue_wait_ms = 0.0;  // routed -> dispatched
  // Processor-cache probe outcomes summed over all processors.
  uint64_t cache_hits = 0;
  // Probes that missed (every probe is a miss in no-cache mode).
  uint64_t cache_misses = 0;
  // Adjacency entries consumed by traversals (hits + fetched).
  uint64_t nodes_visited = 0;
  // Payload bytes shipped from the storage tier to the processors.
  uint64_t bytes_from_storage = 0;
  // Per-server multiget batches issued (the cost model's queueing unit).
  uint64_t storage_batches = 0;
  // Queries executed by a processor other than the router's pick.
  uint64_t steals = 0;
  // Post-stealing execution split across processors (sums to `queries`).
  std::vector<uint64_t> queries_per_processor;
  // Router frontend tier: how the arrival stream split across router shards.
  std::vector<uint64_t> queries_per_router_shard;
  // Completed load/EMA gossip rounds between router shards.
  uint64_t gossip_rounds = 0;
  // Cross-shard EMA divergence at the end of the run (mean pairwise L2
  // between shard strategies' state; 0 for stateless strategies).
  double router_ema_divergence = 0.0;
  // Adaptive re-splitting: sessions moved between router shards over the run.
  uint64_t sessions_migrated = 0;
  // Sessions dropped at the sticky/adaptive splitter's capacity bound.
  uint64_t sticky_evictions = 0;
  // Final max/min routed-load ratio across router shards (1.0 = perfectly
  // balanced or a single shard).
  double router_load_imbalance = 0.0;
  // Async storage pipeline: peak concurrently outstanding multiget batches
  // on any processor. Time base for the overlap below: virtual µs on the
  // simulated engine, wall µs on the threaded one.
  uint32_t batches_inflight_peak = 0;
  // Useful processor work overlapped with in-flight fetches (µs).
  double fetch_overlap_us = 0.0;
  // Storage-tier repartitioning: partitions physically moved between
  // storage servers over the run (0 when repartitioning is off).
  uint64_t partitions_migrated = 0;
  // Max/min ratio of per-server served get counts at the end of the run
  // (1.0 = perfectly balanced; reported whether or not repartitioning ran).
  double storage_load_imbalance = 0.0;
  // Storage-server time consumed by migrations: added virtual busy time on
  // the simulated engine, wall-clock time the gossip tick spent copying /
  // draining / deleting on the threaded one (µs).
  double repartition_stall_us = 0.0;
  // Hot-partition replication: replica copies created by promotion rounds
  // over the run (a partition promoted to two replicas counts twice; 0
  // when replication is off).
  uint64_t partitions_replicated = 0;
  // Reads served by a non-primary replica under power-of-two-choices
  // routing (the replication fan-out actually used).
  uint64_t replica_reads = 0;
  // Replica copies torn down by the cold-partition demotion rule.
  uint64_t replica_demotions = 0;
  // Logical (v1) bytes / encoded wire bytes across the loaded graph; 1.0
  // under raw encoding.
  double adjacency_compression_ratio = 1.0;
  // Adjacency entries resident across all processor caches at run end —
  // the compressed-cache win is this count at a fixed byte budget.
  uint64_t cache_entries = 0;
  // Time spent decoding compressed blobs on cache hits: the cost model's
  // virtual charge on the simulated engine (hits + fetched installs), wall
  // decode time on the threaded one (µs). 0 in raw/uncompressed mode.
  double decompress_us = 0.0;
  // Query-lifecycle tracing (trace_sample_every_n > 0): events stored
  // across all trace rings over the run (0 when tracing is off).
  uint64_t trace_events_recorded = 0;
  // Events lost to full trace rings — nonzero means the exported trace is
  // clipped and trace_buffer_capacity should be raised (never silent).
  uint64_t trace_events_dropped = 0;
  // Peak events resident in any single trace ring (capacity head-room).
  uint64_t trace_buffer_high_water = 0;
  // Multi-tenant federation: arrivals refused by per-tenant admission
  // control at the splitter. Shed queries never reach a router shard and
  // are not counted in `queries` (0 when quotas are off).
  uint64_t queries_shed = 0;
  // Online mutations: schedule entries applied over the run (each entry
  // counts once, however many tenant keyspaces / blobs it rewrote; 0 with
  // mutations off).
  uint64_t mutations_applied = 0;
  // Incremental index-maintenance passes that drained at least one dirty
  // node to the maintainer on the gossip cadence (counted even when no
  // maintainer is registered — the drain itself is the pass).
  uint64_t index_refreshes = 0;
  // Mean stale-index distance error reported by the maintainer across all
  // refresh passes (paper fig 12(a)'s relative-error metric when the
  // embedding maintainer is wired; 0 with no maintainer or no samples).
  double stale_distance_error = 0.0;
  // Per-tenant slice of the run, indexed by tenant id; a single-tenant run
  // reports one row mirroring the run totals.
  std::vector<TenantMetrics> per_tenant;

  double CacheHitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
  double WallSeconds() const { return makespan_us / 1e6; }
};

// Every ClusterMetrics field, named once and in declaration order: calls
// f("name", &ClusterMetrics::name) per field. The bench JSON, the CLI table
// and the determinism test iterate this list instead of naming fields, and
// tools/check_docs.py fails when a field of the struct is missing here.
template <typename F>
void ForEachMetricField(F&& f) {
#define GROUTING_METRIC_FIELD(name) f(#name, &ClusterMetrics::name)
  GROUTING_METRIC_FIELD(queries);
  GROUTING_METRIC_FIELD(makespan_us);
  GROUTING_METRIC_FIELD(throughput_qps);
  GROUTING_METRIC_FIELD(mean_response_ms);
  GROUTING_METRIC_FIELD(p50_response_ms);
  GROUTING_METRIC_FIELD(p95_response_ms);
  GROUTING_METRIC_FIELD(p99_response_ms);
  GROUTING_METRIC_FIELD(p999_response_ms);
  GROUTING_METRIC_FIELD(mean_queue_wait_ms);
  GROUTING_METRIC_FIELD(cache_hits);
  GROUTING_METRIC_FIELD(cache_misses);
  GROUTING_METRIC_FIELD(nodes_visited);
  GROUTING_METRIC_FIELD(bytes_from_storage);
  GROUTING_METRIC_FIELD(storage_batches);
  GROUTING_METRIC_FIELD(steals);
  GROUTING_METRIC_FIELD(queries_per_processor);
  GROUTING_METRIC_FIELD(queries_per_router_shard);
  GROUTING_METRIC_FIELD(gossip_rounds);
  GROUTING_METRIC_FIELD(router_ema_divergence);
  GROUTING_METRIC_FIELD(sessions_migrated);
  GROUTING_METRIC_FIELD(sticky_evictions);
  GROUTING_METRIC_FIELD(router_load_imbalance);
  GROUTING_METRIC_FIELD(batches_inflight_peak);
  GROUTING_METRIC_FIELD(fetch_overlap_us);
  GROUTING_METRIC_FIELD(partitions_migrated);
  GROUTING_METRIC_FIELD(storage_load_imbalance);
  GROUTING_METRIC_FIELD(repartition_stall_us);
  GROUTING_METRIC_FIELD(partitions_replicated);
  GROUTING_METRIC_FIELD(replica_reads);
  GROUTING_METRIC_FIELD(replica_demotions);
  GROUTING_METRIC_FIELD(adjacency_compression_ratio);
  GROUTING_METRIC_FIELD(cache_entries);
  GROUTING_METRIC_FIELD(decompress_us);
  GROUTING_METRIC_FIELD(trace_events_recorded);
  GROUTING_METRIC_FIELD(trace_events_dropped);
  GROUTING_METRIC_FIELD(trace_buffer_high_water);
  GROUTING_METRIC_FIELD(queries_shed);
  GROUTING_METRIC_FIELD(mutations_applied);
  GROUTING_METRIC_FIELD(index_refreshes);
  GROUTING_METRIC_FIELD(stale_distance_error);
  GROUTING_METRIC_FIELD(per_tenant);
#undef GROUTING_METRIC_FIELD
}

// One answered query, in completion order. `processor` is the processor
// that executed it (post-stealing).
struct AnsweredQuery {
  uint64_t query_id = 0;
  uint32_t processor = 0;
  QueryResult result;
};

// What one incremental index-refresh pass did: how many dirty nodes the
// maintainer re-estimated, plus an optional staleness measurement (summed
// error over `error_samples` probes) that aggregates into
// ClusterMetrics::stale_distance_error.
struct IndexRefreshResult {
  uint64_t nodes_refreshed = 0;
  double error_sum = 0.0;
  uint64_t error_samples = 0;
};

// Incremental index maintenance hook: called on the gossip cadence with the
// sorted, deduplicated node ids dirtied by mutations since the last pass
// (tenant-local universe ids). Implementations typically call
// LandmarkIndex::AddNodeIncremental / RefreshAroundEdge and
// GraphEmbedding::AddNodeIncremental. Invoked with all router-shard
// strategy locks held on the threaded engine, so it may touch the routing
// strategy's index state race-free.
using IndexMaintainer = std::function<IndexRefreshResult(std::span<const NodeId>)>;

// The engine abstraction, as a template method: Run() is the same sequence
// on both engines, and each engine supplies only the two private hooks at
// the bottom — Execute (move the admitted stream through its routers and
// processors) and AddEngineMetrics (the fields only it can measure).
class ClusterEngine {
 public:
  virtual ~ClusterEngine() = default;

  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  virtual EngineKind kind() const = 0;

  // Runs the workload to completion (cold caches) and returns the metrics.
  // May be called once per instance. In order: plans admission from the
  // schedule's own timestamps, reserves the answers, applies the quiesced
  // mutations, hands the stream to the engine's Execute, fills every
  // engine-independent metric, then lets the engine add its own fields.
  ClusterMetrics Run(std::span<const Query> queries);

  // Answers from Run, in completion order within each processor; how the
  // processors' answers interleave is up to the engine.
  const std::vector<AnsweredQuery>& answers() const { return answers_; }

  const ClusterConfig& config() const { return config_; }
  StorageTier& storage() { return *storage_; }
  QueryProcessor& processor(uint32_t p) { return *processors_[p]; }
  // The router frontend: splitter, shard strategies, gossip and routed
  // counters (src/frontend/router_fleet.h).
  RouterFleet& fleet() { return *fleet_; }
  const RouterFleet& fleet() const { return *fleet_; }

  // The query-lifecycle trace recorder; nullptr when tracing is disabled
  // (config.trace_sample_every_n == 0). Read the events only after Run().
  TraceRecorder* tracer() { return tracer_.get(); }
  const TraceRecorder* tracer() const { return tracer_.get(); }

  // Exports the recorded trace as Chrome-trace/Perfetto JSON
  // (src/obs/trace_export.h), appending engine/sampling entries to
  // `metadata`. Returns false when tracing was off or the write failed.
  bool ExportTrace(const std::string& path, TraceMetadata metadata = {}) const;

  // Installs the mutation schedule Run() applies (requires
  // config.enable_mutations; call before Run). Entries with apply_us <= 0
  // are applied quiesced at the start of the run, before any query is
  // dispatched — that is the deterministic, parity-testable mode. Timed
  // entries are stably sorted by apply_us and applied at that offset: as
  // virtual-time events on the simulated engine, by a wall-clock writer
  // thread on the threaded one.
  void set_mutation_schedule(std::vector<GraphMutation> schedule);

  // Registers the incremental index-maintenance hook driven on the gossip
  // cadence (see IndexMaintainer; call before Run). Optional: without it,
  // dirty nodes are still drained and counted as index_refreshes.
  void set_index_maintainer(IndexMaintainer maintainer);

 protected:
  // Shared cluster assembly: validates the config, loads the graph into a
  // fresh storage tier (hash placement unless `placement` is given; the
  // tier's repartitioning overlay is enabled when the config asks for it),
  // stands up the query processors, and builds the router fleet around
  // `strategy` (shard 0 keeps it, further shards get clones).
  ClusterEngine(const Graph& graph, const ClusterConfig& config,
                std::unique_ptr<RoutingStrategy> strategy,
                const PartitionAssignment* placement);

  // Deterministic per-tenant admission decisions for one arrival schedule,
  // computed by Run() from the schedule's own timestamps before Execute —
  // so both engines shed exactly the same arrivals. An empty `admit` vector
  // means no quota: everything is admitted.
  struct AdmissionPlan {
    std::vector<uint8_t> admit;  // parallel to the schedule; empty = all
    uint64_t admitted = 0;
    uint64_t shed = 0;
    std::vector<uint64_t> shed_per_tenant;  // sized config.num_tenants

    bool Admitted(size_t i) const { return admit.empty() || admit[i] != 0; }
  };

  // Per-query latency samples of a run (µs). Response times feed a
  // log-bucketed histogram (O(1) memory, mergeable), queue waits only feed
  // a mean. The per-tenant vectors are indexed by Query::tenant and sized
  // config.num_tenants. The simulated engine keeps one; the threaded engine
  // keeps one per processor thread, written only by that thread and merged
  // after join.
  struct RunSamples {
    explicit RunSamples(uint32_t num_tenants)
        : tenant_response_us(num_tenants), tenant_queries(num_tenants, 0) {}

    // One answered query of `tenant`: its dispatch -> completion time.
    void Add(uint32_t tenant, double response_us);
    void Merge(const RunSamples& other);

    LatencyHistogram response_us;
    RunningStat queue_wait_us;  // routed -> dispatched
    std::vector<LatencyHistogram> tenant_response_us;
    std::vector<uint64_t> tenant_queries;
  };

  // What an engine's Execute hands back to Run.
  struct RunOutcome {
    // First arrival -> last completion (virtual or wall µs).
    double makespan_us = 0.0;
    RunSamples samples;
  };

  // Schedule time (µs) of the i-th arrival: the query's open-loop
  // timestamp when it carries one (arrive_us >= 0), else
  // i * arrival_gap_us.
  double ArrivalTimeUs(const Query& q, size_t index) const;

  // Whether the config enables storage-tier repartition rounds at all —
  // hot-partition migration, replication, or both.
  bool repartition_enabled() const { return config_.repartition.active(); }

  // Whether the storage side needs the periodic gossip tick: repartition
  // rounds or index maintenance ride it, and a zero period disables both.
  // The router-shard gossip is the engines' own, on top of this.
  bool storage_tick_enabled() const {
    return (repartition_enabled() || config_.enable_mutations) &&
           config_.gossip_period_us > 0.0;
  }

  // One storage-tier repartition round, shared by both engines: rolls the
  // access monitor's window into decayed rates, then (replication on)
  // executes planned replica demotions and promotions and (migration on)
  // plans hot-partition moves (threshold + hysteresis + cap + noise floor)
  // and executes each against the tier (copy -> flip -> drain -> delete).
  // Replica changes execute BEFORE the migration plan is computed, so
  // PlanRepartition sees the fresh replica sets and never picks a
  // just-promoted partition as a migration victim. Returns what
  // physically moved so the caller can charge engine-specific time for it
  // (into repartition_stall_us_). Thread-safe against concurrent query
  // execution, but rounds themselves must be serialised (the sim's event
  // loop / the threaded gossip tick are).
  std::vector<StorageTier::MigrationResult> RepartitionRound();

  // Applies one schedule entry against the tier, counts it, and marks the
  // touched nodes dirty for the next index-refresh pass. Returns the blob
  // writes the tier performed (the sim's mutation_per_write_us multiplier).
  // Thread-safe (the tier serialises writes; the dirty list is locked).
  uint64_t ApplyOneMutation(const GraphMutation& m);

  // One index-maintenance pass at schedule time `now_us`: honours
  // config.index_refresh_period_us against the previous pass, drains the
  // dirty-node list (sorted, deduplicated) into the registered maintainer,
  // and accumulates the refresh/staleness counters. Returns the number of
  // nodes drained (0 when gated or clean) — the sim's
  // index_refresh_per_node_us multiplier. Must be called from the engine's
  // serialised controller context (sim event loop / threaded gossip tick).
  uint64_t RunIndexMaintenance(double now_us);

  // The installed schedule, stably sorted by apply_us (empty without
  // mutations). Timed entries are the ones with apply_us > 0; the quiesced
  // rest were applied by Run() before Execute.
  const std::vector<GraphMutation>& mutation_schedule() const {
    return mutation_schedule_;
  }

  ClusterConfig config_;
  std::unique_ptr<StorageTier> storage_;
  std::vector<std::unique_ptr<QueryProcessor>> processors_;
  std::unique_ptr<RouterFleet> fleet_;
  std::vector<AnsweredQuery> answers_;
  // Built in the base ctor when config.trace_sample_every_n > 0; engines
  // record lifecycle spans into its per-track rings.
  std::unique_ptr<TraceRecorder> tracer_;
  // Storage-server time consumed by migrations, charged by the engine that
  // ran the round: added virtual busy time on the simulated engine, the
  // gossip tick's wall time on the threaded one (written only by that
  // serialised context, read after Execute).
  double repartition_stall_us_ = 0.0;

 private:
  // Engine hook: runs the admitted part of `queries` (plan.Admitted(i)) to
  // completion through the engine's routers and processors, pushing every
  // answer onto answers_ and applying the timed mutation entries on the
  // way. Returns the makespan and the run's latency samples.
  virtual RunOutcome Execute(std::span<const Query> queries,
                             const AdmissionPlan& plan) = 0;

  // Engine hook: the fields only the engine can measure — steals and the
  // per-processor split — plus any engine-specific override of a field Run
  // already filled.
  virtual void AddEngineMetrics(ClusterMetrics* m) const = 0;

  AdmissionPlan PlanAdmission(std::span<const Query> queries) const;

  // Applies every apply_us <= 0 schedule entry, before Execute starts any
  // dispatch or worker thread.
  void ApplyQuiescedMutations();

  // Every engine-independent ClusterMetrics field, from the run's outcome,
  // its admission plan, the router fleet, and the counters the base class
  // keeps.
  ClusterMetrics FillMetrics(const RunOutcome& run, const AdmissionPlan& plan) const;

  // Partitions moved / replica copies created / replica copies torn down so
  // far (written only by RepartitionRound's caller).
  uint64_t partitions_migrated_ = 0;
  uint64_t replica_promotions_ = 0;
  uint64_t replica_demotions_ = 0;
  // Online mutations: the installed schedule, the dirty-node list awaiting
  // the next index-refresh pass (guarded by mutation_mu_ — the threaded
  // writer thread appends while the gossip tick drains), and the counters
  // FillMetrics reports.
  std::vector<GraphMutation> mutation_schedule_;
  IndexMaintainer index_maintainer_;
  std::mutex mutation_mu_;
  std::vector<NodeId> pending_refresh_;
  uint64_t mutations_applied_ = 0;
  uint64_t index_refreshes_ = 0;
  double stale_error_sum_ = 0.0;
  uint64_t stale_error_samples_ = 0;
  double last_index_refresh_us_ = -std::numeric_limits<double>::infinity();
  bool ran_ = false;
};

// Builds the requested engine over a cold cluster. The strategy must route
// into [0, config.num_processors); `placement` (optional) pins each node's
// adjacency entry to an explicit storage server.
std::unique_ptr<ClusterEngine> MakeClusterEngine(
    EngineKind kind, const Graph& graph, const ClusterConfig& config,
    std::unique_ptr<RoutingStrategy> strategy,
    const PartitionAssignment* placement = nullptr);

}  // namespace grouting

#endif  // GROUTING_SRC_CORE_CLUSTER_ENGINE_H_
