// gRouting experiment CLI: run any cluster configuration from the command
// line without writing code.
//
//   ./grouting_cli --dataset=webgraph --scale=0.3 --scheme=embed \
//                  --engine=sim --processors=7 --storage=4 --cache=16MB \
//                  --radius=2 --hops=2 --hotspots=100 --per-hotspot=10 \
//                  --network=infiniband --load-factor=20 --alpha=0.5
//
// Prints the run's metrics as a table. `--help` lists everything.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>

#include "src/core/grouting.h"

using namespace grouting;

namespace {

// Defaults of the flags that no options struct holds.
constexpr const char* kDefaultDataset = "webgraph";
constexpr const char* kDefaultEngine = "sim";
constexpr const char* kDefaultScale = "0.25";
constexpr uint64_t kDefaultSeed = 4242;
constexpr double kDefaultMutationFraction = 0.0;  // read-only

[[noreturn]] void InvalidFlag(const std::string& key, const std::string& text) {
  std::fprintf(stderr, "invalid --%s '%s'; see --help\n", key.c_str(), text.c_str());
  std::exit(1);
}

// Every read of a flag marks it known; RejectUnknown then fails on any flag
// the program never read, so a misspelt flag cannot silently fall back to a
// default.
struct Flags {
  std::map<std::string, std::string> values;
  mutable std::set<std::string> known;

  bool Has(const std::string& key) const {
    known.insert(key);
    return values.count(key) > 0;
  }
  std::string Get(const std::string& key, const std::string& def) const {
    known.insert(key);
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
  // The flag's value as a T, or `def` when the flag is absent. The whole
  // token must parse (std::from_chars) and fit T; anything else ends the
  // program with exit code 1.
  template <typename T>
  T GetNumber(const std::string& key, T def) const {
    known.insert(key);
    auto it = values.find(key);
    if (it == values.end()) {
      return def;
    }
    const std::string& text = it->second;
    T value{};
    const char* end = text.data() + text.size();
    const auto [parsed_to, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || parsed_to != end) {
      InvalidFlag(key, text);
    }
    return value;
  }
  // Overwrites *field with the flag's value when it is given; otherwise the
  // field keeps the default its struct set.
  template <typename T>
  void Override(const std::string& key, T* field) const {
    *field = GetNumber(key, *field);
  }
  // The same for a count that must be at least 1: a given 0 ends the
  // program with exit code 1.
  template <typename T>
  void OverridePositive(const std::string& key, T* field) const {
    Override(key, field);
    if (*field == 0 && values.count(key) > 0) {
      InvalidFlag(key, values.at(key));
    }
  }
  // Ends the program with exit code 1 at the first flag never read.
  void RejectUnknown() const {
    for (const auto& [key, text] : values) {
      if (known.count(key) == 0) {
        std::fprintf(stderr, "unknown --%s '%s'; see --help\n", key.c_str(),
                     text.c_str());
        std::exit(1);
      }
    }
  }
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values[arg] = "1";
    } else {
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

// Every default printed here is read from the struct (or constant) that
// sets it, so the help cannot drift from what a run uses.
void PrintHelp() {
  const RunOptions d;
  const OpenLoopConfig ol;
  std::printf("gRouting experiment CLI\n");
  std::printf("  --dataset=webgraph|friendster|memetracker|freebase   (default %s)\n",
              kDefaultDataset);
  std::printf("  --scale=<float>          dataset scale               (default %s)\n",
              kDefaultScale);
  std::printf("  --scheme=no_cache|next_ready|hash|landmark|embed     (default %s)\n",
              RoutingSchemeKindName(d.scheme).c_str());
  std::printf("  --engine=sim|threaded    execution engine            (default %s)\n",
              kDefaultEngine);
  std::printf("  --processors=<int>       query processors            (default %u)\n",
              d.processors);
  std::printf("  --storage=<int>          storage servers             (default %u)\n",
              d.storage_servers);
  std::printf("  --cache=<size>           per-processor cache, e.g. 16MB; 0 = ample\n"
              "                           (default %llu)\n",
              static_cast<unsigned long long>(d.cache_bytes));
  std::printf("  --policy=lru|fifo|lfu|clock                          (default %s)\n",
              CachePolicyName(d.cache_policy).c_str());
  std::printf("  --network=infiniband|ethernet                        (default %s)\n",
              d.cost.net.name.c_str());
  std::printf("  --radius=<int> --hops=<int>                          (defaults %d, %d)\n",
              d.hotspot_radius, d.hops);
  std::printf("  --hotspots=<int> --per-hotspot=<int>                 (defaults %zu, %zu)\n",
              d.num_hotspots, d.queries_per_hotspot);
  std::printf("  --landmarks=<int> --separation=<int> --dims=<int>    (defaults %zu, %d, %zu)\n",
              d.num_landmarks, d.min_separation, d.dimensions);
  std::printf("  --load-factor=<float> --alpha=<float>                (defaults %g, %g)\n",
              d.load_factor, d.alpha);
  std::printf("  --no-stealing            turn query stealing off\n");
  std::printf("  --router-shards=<int>    router frontend shards      (default %u)\n",
              d.router_shards);
  std::printf("  --splitter=round_robin|hash|sticky|adaptive          (default %s)\n",
              SplitterKindName(d.splitter).c_str());
  std::printf("  --gossip-period=<µs>     0 disables gossip           (default %g)\n",
              d.gossip_period_us);
  std::printf("  --rebalance-threshold=<ratio>  adaptive splitter migration trigger\n"
              "                           (max/min routed load; <=1 disables, default %g)\n",
              d.rebalance_threshold);
  std::printf("  --migration-cap=<int>    sessions moved per rebalance round (default %u)\n",
              d.migration_cap);
  std::printf("  --arrival-gap=<µs>       sim inter-arrival gap       (default %g)\n",
              d.arrival_gap_us);
  std::printf("  --inflight-batches=<int> async multiget window per processor\n"
              "                           (1 = synchronous level barrier, default %u)\n",
              d.max_inflight_batches);
  std::printf("  --repartition-threshold=<ratio>  storage-tier repartition trigger\n"
              "                           (max/min server access rate; <=1 disables,\n"
              "                           default %g)\n",
              d.repartition_threshold);
  std::printf("  --repartition-cap=<int>  partitions moved per repartition round\n"
              "                           (default %u)\n",
              d.repartition_cap);
  std::printf("  --partitions-per-server=<int>  virtual partitions per storage server\n"
              "                           (migration granularity, default %u)\n",
              d.partitions_per_server);
  std::printf("  --replication-top-k=<int>  hot partitions promoted to an extra\n"
              "                           replica per round (0 disables, default %u)\n",
              d.replication_top_k);
  std::printf("  --replica-demote-threshold=<frac>  demote replicas once a\n"
              "                           partition's rate falls to this fraction of\n"
              "                           the average server load (default %g)\n",
              d.replica_demote_threshold);
  std::printf("  --max-replicas-per-partition=<int>  extra copies a partition may\n"
              "                           hold beyond its primary (default %u, max %u)\n",
              d.max_replicas_per_partition, PartitionMap::kMaxReplicas);
  std::printf("  --adjacency-encoding=raw|delta_varint  storage wire format\n"
              "                           (default %s)\n",
              d.adjacency_encoding == AdjacencyEncoding::kRaw ? "raw" : "delta_varint");
  std::printf("  --cache-compressed       processor caches admit the compressed blob\n"
              "                           (decode on hit; needs delta_varint to pay off)\n");
  std::printf("  --trace-out=<file>       export the query-lifecycle trace as Chrome-\n"
              "                           trace JSON (open in Perfetto / chrome://tracing)\n");
  std::printf("  --trace-sample-every-n=<int>  trace every Nth query (default 1 when\n"
              "                           --trace-out is set, else %u = tracing off)\n",
              d.trace_sample_every_n);
  std::printf("  --trace-buffer-capacity=<int> events per trace ring (default %u)\n",
              d.trace_buffer_capacity);
  std::printf("  --num-tenants=<int>      tenant keyspaces federated over the storage\n"
              "                           tier (default %u)\n",
              d.num_tenants);
  std::printf("  --tenant-quota-qps=<float>  per-tenant admission quota at the\n"
              "                           splitter (<=0 disables, default %g)\n",
              d.admission.quota_qps);
  std::printf("  --tenant-quota-burst=<float>  admission token-bucket burst\n"
              "                           (default %g)\n",
              d.admission.burst);
  std::printf("  --open-loop              open-loop Poisson workload: Query::arrive_us\n"
              "                           timestamps drive arrivals on both engines\n");
  std::printf("  --arrivals=<int>         open-loop arrivals          (default %zu)\n",
              ol.num_arrivals);
  std::printf("  --arrival-rate=<qps>     open-loop aggregate rate    (default %g)\n",
              ol.arrival_rate_qps);
  std::printf("  --tenant-skew=<float>    Zipf skew of per-tenant rates (default %g)\n",
              ol.tenant_skew);
  std::printf("  --sessions-per-tenant=<int>  open-loop session universe per tenant\n"
              "                           (default %llu)\n",
              static_cast<unsigned long long>(ol.sessions_per_tenant));
  std::printf("  --session-skew=<float>   heavy-tail exponent of session popularity\n"
              "                           (default %g)\n",
              ol.session_skew);
  std::printf("  --tenant-metrics-out=<file>  write per-tenant admission/latency\n"
              "                           metrics + answer checksum as JSON\n");
  std::printf("  --mutation-fraction=<frac>  fraction of open-loop arrivals converted\n"
              "                           to live graph writes (enables the versioned\n"
              "                           mutation path; requires --open-loop;\n"
              "                           default %g = read-only)\n",
              kDefaultMutationFraction);
  std::printf("  --index-refresh-period=<µs>  minimum time between incremental\n"
              "                           index-maintenance passes on the gossip\n"
              "                           cadence (default %g = every gossip tick)\n",
              d.index_refresh_period_us);
  std::printf("  --seed=<int>             (default %llu)\n",
              static_cast<unsigned long long>(kDefaultSeed));
}

// Order-independent checksum over the run's answers: each answer folds its
// id and result fields through a SplitMix64 chain into one 64-bit word, and
// the words XOR together — so the value is identical across engines
// regardless of completion order (the soak pipeline's exactly-once check).
// With `ids_only`, only query ids are folded: under concurrent mutations
// the VALUE a query observes legitimately depends on whether the write
// landed first (engine timing), but the SET of answered ids must still
// match exactly-once across engines.
uint64_t AnswerChecksum(const std::vector<AnsweredQuery>& answers, bool ids_only) {
  uint64_t sum = 0;
  for (const AnsweredQuery& a : answers) {
    SplitMix64 chain(a.query_id);
    if (ids_only) {
      sum ^= chain.Next();
      continue;
    }
    uint64_t w = chain.Next();
    chain = SplitMix64(w ^ static_cast<uint64_t>(a.result.type));
    w = chain.Next();
    chain = SplitMix64(w ^ a.result.aggregate);
    w = chain.Next();
    chain = SplitMix64(w ^ (static_cast<uint64_t>(a.result.walk_end) << 32 |
                            a.result.walk_distinct_nodes));
    w = chain.Next();
    chain = SplitMix64(w ^ (a.result.reachable ? 1u : 0u) ^
                       (static_cast<uint64_t>(static_cast<uint32_t>(a.result.distance))
                        << 8));
    sum ^= chain.Next();
  }
  return sum;
}

// Per-tenant admission/latency metrics as JSON, consumed by
// tools/check_soak.py to gate the CI multi-tenant soak on both engines.
bool WriteTenantMetricsJson(const std::string& path, const std::string& engine,
                            const RunOptions& opts, size_t arrivals,
                            const ClusterMetrics& m, uint64_t checksum) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "{\n  \"engine\": \"%s\",\n  \"tenants\": %u,\n"
               "  \"quota_qps\": %.6g,\n  \"arrivals\": %zu,\n"
               "  \"answered\": %llu,\n  \"shed_total\": %llu,\n"
               "  \"mutations_applied\": %llu,\n  \"index_refreshes\": %llu,\n"
               "  \"answer_checksum\": \"%016llx\",\n  \"per_tenant\": [",
               engine.c_str(), opts.num_tenants, opts.admission.quota_qps, arrivals,
               static_cast<unsigned long long>(m.queries),
               static_cast<unsigned long long>(m.queries_shed),
               static_cast<unsigned long long>(m.mutations_applied),
               static_cast<unsigned long long>(m.index_refreshes),
               static_cast<unsigned long long>(checksum));
  for (size_t i = 0; i < m.per_tenant.size(); ++i) {
    const TenantMetrics& t = m.per_tenant[i];
    std::fprintf(f,
                 "%s\n    {\"tenant\": %u, \"queries\": %llu, \"shed\": %llu, "
                 "\"shed_rate\": %.6g, \"mean_response_ms\": %.6g, "
                 "\"p50_response_ms\": %.6g, \"p99_response_ms\": %.6g, "
                 "\"p999_response_ms\": %.6g}",
                 i == 0 ? "" : ",", t.tenant, static_cast<unsigned long long>(t.queries),
                 static_cast<unsigned long long>(t.shed), t.ShedRate(),
                 t.mean_response_ms, t.p50_response_ms, t.p99_response_ms,
                 t.p999_response_ms);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (flags.Has("help")) {
    PrintHelp();
    return 0;
  }

  static const std::map<std::string, DatasetId> kDatasets = {
      {"webgraph", DatasetId::kWebGraphLike},
      {"friendster", DatasetId::kFriendsterLike},
      {"memetracker", DatasetId::kMemetrackerLike},
      {"freebase", DatasetId::kFreebaseLike},
  };
  static const std::map<std::string, RoutingSchemeKind> kSchemes = {
      {"no_cache", RoutingSchemeKind::kNoCache},
      {"next_ready", RoutingSchemeKind::kNextReady},
      {"hash", RoutingSchemeKind::kHash},
      {"landmark", RoutingSchemeKind::kLandmark},
      {"embed", RoutingSchemeKind::kEmbed},
  };
  static const std::map<std::string, CachePolicy> kPolicies = {
      {"lru", CachePolicy::kLru},
      {"fifo", CachePolicy::kFifo},
      {"lfu", CachePolicy::kLfu},
      {"clock", CachePolicy::kClock},
  };

  const RunOptions defaults;
  const std::string dataset_name = flags.Get("dataset", kDefaultDataset);
  const std::string scheme_name = flags.Get("scheme", RoutingSchemeKindName(defaults.scheme));
  const std::string engine_name = flags.Get("engine", kDefaultEngine);
  if (kDatasets.count(dataset_name) == 0 || kSchemes.count(scheme_name) == 0 ||
      (engine_name != "sim" && engine_name != "threaded")) {
    std::fprintf(stderr, "unknown --dataset, --scheme or --engine; see --help\n");
    return 1;
  }
  const EngineKind engine =
      engine_name == "threaded" ? EngineKind::kThreaded : EngineKind::kSimulated;
  const std::string policy_name = flags.Get("policy", CachePolicyName(defaults.cache_policy));
  if (kPolicies.count(policy_name) == 0) {
    std::fprintf(stderr, "unknown --policy '%s'; see --help\n", policy_name.c_str());
    return 1;
  }
  const std::string network_name = flags.Get("network", defaults.cost.net.name);
  if (network_name != "infiniband" && network_name != "ethernet") {
    std::fprintf(stderr, "unknown --network '%s'; see --help\n", network_name.c_str());
    return 1;
  }

  const double scale = flags.GetNumber("scale", std::strtod(kDefaultScale, nullptr));
  const uint64_t seed = flags.GetNumber("seed", kDefaultSeed);

  // Numeric flags left unset keep RunOptions' own defaults. Every flag is
  // parsed before the dataset is built, so a malformed one fails at once.
  RunOptions opts;
  opts.scheme = kSchemes.at(scheme_name);
  flags.OverridePositive("processors", &opts.processors);
  flags.OverridePositive("storage", &opts.storage_servers);
  if (flags.Has("cache")) {
    const std::string text = flags.Get("cache", "");
    const std::optional<uint64_t> bytes = ParseByteSize(text);
    if (!bytes.has_value()) {
      InvalidFlag("cache", text);
    }
    opts.cache_bytes = *bytes;
  }
  opts.cache_policy = kPolicies.at(policy_name);
  if (network_name == "ethernet") {
    opts.cost = CostModel::EthernetDefaults();
  }
  flags.Override("radius", &opts.hotspot_radius);
  flags.Override("hops", &opts.hops);
  flags.Override("hotspots", &opts.num_hotspots);
  flags.Override("per-hotspot", &opts.queries_per_hotspot);
  flags.Override("landmarks", &opts.num_landmarks);
  flags.Override("separation", &opts.min_separation);
  flags.Override("dims", &opts.dimensions);
  flags.Override("load-factor", &opts.load_factor);
  flags.Override("alpha", &opts.alpha);
  opts.stealing = !flags.Has("no-stealing");
  static const std::map<std::string, SplitterKind> kSplitters = {
      {"round_robin", SplitterKind::kRoundRobin},
      {"hash", SplitterKind::kHash},
      {"sticky", SplitterKind::kSticky},
      {"adaptive", SplitterKind::kAdaptive},
  };
  flags.OverridePositive("router-shards", &opts.router_shards);
  const std::string splitter_name = flags.Get("splitter", SplitterKindName(defaults.splitter));
  if (kSplitters.count(splitter_name) == 0) {
    std::fprintf(stderr, "unknown --splitter '%s'; see --help\n", splitter_name.c_str());
    return 1;
  }
  opts.splitter = kSplitters.at(splitter_name);
  flags.Override("gossip-period", &opts.gossip_period_us);
  flags.Override("rebalance-threshold", &opts.rebalance_threshold);
  flags.Override("migration-cap", &opts.migration_cap);
  flags.Override("arrival-gap", &opts.arrival_gap_us);
  flags.OverridePositive("inflight-batches", &opts.max_inflight_batches);
  flags.Override("repartition-threshold", &opts.repartition_threshold);
  flags.Override("repartition-cap", &opts.repartition_cap);
  flags.Override("partitions-per-server", &opts.partitions_per_server);
  flags.Override("replication-top-k", &opts.replication_top_k);
  flags.Override("replica-demote-threshold", &opts.replica_demote_threshold);
  flags.Override("max-replicas-per-partition", &opts.max_replicas_per_partition);
  const std::string encoding_name = flags.Get("adjacency-encoding", "raw");
  if (encoding_name != "raw" && encoding_name != "delta_varint") {
    std::fprintf(stderr, "unknown --adjacency-encoding '%s'; see --help\n",
                 encoding_name.c_str());
    return 1;
  }
  opts.adjacency_encoding = encoding_name == "delta_varint"
                                ? AdjacencyEncoding::kDeltaVarint
                                : AdjacencyEncoding::kRaw;
  opts.cache_compressed = flags.Has("cache-compressed");
  const std::string trace_out = flags.Get("trace-out", "");
  opts.trace_sample_every_n = flags.GetNumber(
      "trace-sample-every-n", trace_out.empty() ? defaults.trace_sample_every_n : 1u);
  flags.Override("trace-buffer-capacity", &opts.trace_buffer_capacity);
  if (!trace_out.empty() && opts.trace_sample_every_n == 0) {
    std::fprintf(stderr, "--trace-out requires --trace-sample-every-n >= 1\n");
    return 1;
  }
  flags.OverridePositive("num-tenants", &opts.num_tenants);
  flags.Override("tenant-quota-qps", &opts.admission.quota_qps);
  flags.Override("tenant-quota-burst", &opts.admission.burst);
  const bool open_loop = flags.Has("open-loop");
  const std::string tenant_metrics_out = flags.Get("tenant-metrics-out", "");
  const double mutation_fraction =
      flags.GetNumber("mutation-fraction", kDefaultMutationFraction);
  if (mutation_fraction < 0.0 || mutation_fraction > 1.0) {
    std::fprintf(stderr, "--mutation-fraction must be in [0, 1]\n");
    return 1;
  }
  if (mutation_fraction > 0.0 && !open_loop) {
    std::fprintf(stderr, "--mutation-fraction requires --open-loop\n");
    return 1;
  }
  opts.enable_mutations = mutation_fraction > 0.0;
  flags.Override("index-refresh-period", &opts.index_refresh_period_us);
  OpenLoopConfig ol;
  ol.num_tenants = opts.num_tenants;
  flags.Override("arrivals", &ol.num_arrivals);
  flags.Override("arrival-rate", &ol.arrival_rate_qps);
  flags.Override("tenant-skew", &ol.tenant_skew);
  flags.Override("sessions-per-tenant", &ol.sessions_per_tenant);
  flags.Override("session-skew", &ol.session_skew);
  ol.hops = opts.hops;
  flags.RejectUnknown();

  ExperimentEnv env(kDatasets.at(dataset_name), scale, seed);
  const Graph& g = env.graph();
  std::printf("dataset %s (scale %.2f): %zu nodes, %zu edges\n", dataset_name.c_str(),
              scale, g.num_nodes(), g.num_edges());
  std::printf("running %s on %u processors / %u storage servers (%s, %s engine)...\n",
              scheme_name.c_str(), opts.processors, opts.storage_servers,
              opts.cost.net.name.c_str(), EngineKindName(engine).c_str());

  // Assembled by hand (rather than env.Run) so the engine outlives the run:
  // the trace export reads the recorder after the metrics come back.
  std::vector<Query> workload;
  std::vector<GraphMutation> mutations;
  if (open_loop) {
    ol.seed = env.seed() ^ 0x99;
    if (mutation_fraction > 0.0) {
      // Mixed read/write stream from one arrival process: a deterministic
      // slice of the arrivals becomes live edge writes at the same instants.
      MutationScheduleConfig mc;
      mc.seed = env.seed() ^ 0x66;
      MixedWorkload mixed =
          GenerateMixedOpenLoopWorkload(env.graph(), ol, mutation_fraction, mc);
      workload = std::move(mixed.queries);
      mutations = std::move(mixed.mutations);
    } else {
      workload = GenerateOpenLoopWorkload(env.graph(), ol);
    }
  } else {
    workload = env.HotspotWorkload(opts.hotspot_radius, opts.hops, opts.num_hotspots,
                                   opts.queries_per_hotspot);
  }
  auto cluster = MakeClusterEngine(engine, env.graph(), env.MakeClusterConfig(opts),
                                   env.MakeStrategy(opts));
  if (!mutations.empty()) {
    cluster->set_mutation_schedule(std::move(mutations));
  }
  const ClusterMetrics m = cluster->Run(workload);

  if (!trace_out.empty()) {
    TraceMetadata metadata;
    metadata.emplace_back("dataset", dataset_name);
    metadata.emplace_back("scheme", scheme_name);
    metadata.emplace_back("scale", flags.Get("scale", kDefaultScale));
    if (cluster->ExportTrace(trace_out, metadata)) {
      std::printf("wrote trace: %s (%llu events, %llu dropped)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(m.trace_events_recorded),
                  static_cast<unsigned long long>(m.trace_events_dropped));
    } else {
      std::fprintf(stderr, "trace export to %s failed\n", trace_out.c_str());
      return 1;
    }
  }

  Table t({"metric", "value"});
  t.AddRow({"engine", EngineKindName(engine)});
  ForEachMetricField([&](const char* name, auto member) {
    const auto& v = m.*member;
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_floating_point_v<T>) {
      t.AddRow({name, Table::Num(v, 4)});
    } else if constexpr (std::is_integral_v<T>) {
      t.AddRow({name, Table::Int(static_cast<int64_t>(v))});
    }
  });
  t.AddRow({"hit_rate", Table::Num(m.CacheHitRate(), 4)});
  for (const TenantMetrics& tm : m.per_tenant) {
    t.AddRow({"tenant " + Table::Int(tm.tenant),
              Table::Int(static_cast<int64_t>(tm.queries)) + " q / " +
                  Table::Int(static_cast<int64_t>(tm.shed)) + " shed / p99 " +
                  Table::Num(tm.p99_response_ms, 3) + " ms"});
  }
  std::printf("%s", t.ToString().c_str());

  if (!tenant_metrics_out.empty()) {
    // Under concurrent mutations the observed values depend on engine
    // timing; exactly-once is then asserted over the answered-id set.
    const uint64_t checksum =
        AnswerChecksum(cluster->answers(), /*ids_only=*/opts.enable_mutations);
    if (WriteTenantMetricsJson(tenant_metrics_out, engine_name, opts, workload.size(),
                               m, checksum)) {
      std::printf("wrote tenant metrics: %s\n", tenant_metrics_out.c_str());
    } else {
      std::fprintf(stderr, "tenant metrics export to %s failed\n",
                   tenant_metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}
