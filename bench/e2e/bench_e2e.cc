// End-to-end wall-clock benchmark of the threaded engine (EngineKind::kThreaded).
//
// One process runs one workload. It sets the cluster up from scratch kSetups
// times (graph, routing preprocessing, storage load) and reports the median
// set-up time. Then it runs one discarded warm-up rep and, for --seconds of
// wall time, reps of a fixed size, each on a fresh cold cluster over its own
// input seeded from --seed and the rep index. Every answer is checked outside
// the timed region. Each metric is the median over the reps: a single rep
// on a shared 4-core host varies by +-20%, so one rep is never a number. The
// last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 1 every rep is
// run a second time with each layer timed from outside (layer_timing.h), and
// "metrics" holds the per-layer numbers.
//
// The graph is a fixed dataset: it is generated from kGraphSeed, not from
// --seed, so runs with different seeds differ in their queries only.
//
// Workloads (README.md has the rationale and the metric glossary):
//   hotspot_ample        paper hotspot mix, ample cache: routing, cache
//                        probes and traversal compute do the work,
//   hotspot_small_cache  same shape, delta_varint + compressed cache at a
//                        budget far below the working set: MultiGet and
//                        decode dominate,
//   skewed_nocache       Zipf 1.4 over 4 sessions, 1-hop, no cache, with
//                        repartitioning and replication: per-query overhead.
//
// Thread budget under load: 2 processor threads and 1 router-shard thread.
// Input generation, the reference answers and the embedding build use up to
// 4 threads, but only between reps.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/e2e/layer_timing.h"
#include "src/core/experiment.h"
#include "src/workload/workload.h"

namespace grouting::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// The graph is the webgraph-like stand-in at a quarter of its base size, and
// every cache budget shrinks with it so cache-to-working-set ratios match
// the full-size graph. Scale 1.0 costs ~9 s per set-up, which the
// benchmark's time budget cannot pay several times per run.
constexpr double kScale = 0.25;
constexpr double kSmokeScale = 0.1;
constexpr int kSetups = 3;
constexpr uint64_t kGraphSeed = 4242;
constexpr uint64_t kSmallCacheBytesAtScale1 = 4ULL << 20;
// Timed reps per run: as many as --seconds holds, within these limits.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 2000;
// --smoke shrinks every rep to this share of its size.
constexpr double kSmokeRepShare = 0.25;

// Replay spans written to the trace file (all spans are timed; only the
// first queries' spans are kept, to bound the file).
constexpr size_t kSpanQueries = 2000;

enum class Shape { kHotspot, kSkewed };

struct Workload {
  std::string name;
  Shape shape = Shape::kHotspot;
  // Queries per rep, all submitted at t=0: about 1 s of work on a 4-core
  // x86 host.
  size_t rep_queries = 0;
  RunOptions options;
};

std::optional<Workload> MakeWorkload(const std::string& name, double scale) {
  Workload w;
  w.name = name;
  RunOptions& o = w.options;
  o.processors = 2;
  o.storage_servers = 4;
  o.router_shards = 1;
  o.stealing = true;
  o.max_inflight_batches = 1;
  o.scheme = RoutingSchemeKind::kEmbed;
  if (name == "hotspot_ample") {
    w.rep_queries = 16000;
    o.cache_bytes = 0;  // ample: nothing is ever evicted
  } else if (name == "hotspot_small_cache") {
    w.rep_queries = 4480;
    o.cache_bytes =
        static_cast<uint64_t>(static_cast<double>(kSmallCacheBytesAtScale1) * scale);
    o.adjacency_encoding = AdjacencyEncoding::kDeltaVarint;
    o.cache_compressed = true;
  } else if (name == "skewed_nocache") {
    w.shape = Shape::kSkewed;
    w.rep_queries = 150000;
    o.scheme = RoutingSchemeKind::kNoCache;
    o.hops = 1;
    o.repartition_threshold = 1.15;
    o.repartition_cap = 4;
    o.partitions_per_server = 8;
    o.replication_top_k = 4;
    o.max_replicas_per_partition = 3;
    o.replica_demote_threshold = 0.05;
    o.gossip_period_us = 100.0;
  } else {
    return std::nullopt;
  }
  return w;
}

struct Args {
  std::string workload;
  uint64_t seed = 4242;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out;  // E2E_<workload>.json unless given
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return std::nullopt;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        std::fprintf(stderr, "--seconds must be in (0, 600]\n");
        return std::nullopt;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return std::nullopt;
      }
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad number for %s: %s\n", key.c_str(), value.c_str());
      return std::nullopt;
    }
  }
  if (args.workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return std::nullopt;
  }
  return args;
}

// ---------------------------------------------------------------- stats ---

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// First and third quartile, by the same rule as Python's
// statistics.quantiles(values, n=4) (the "exclusive" method).
std::pair<double, double> Quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double m = Median(v);
    return {m, m};
  }
  std::sort(v.begin(), v.end());
  const auto n = static_cast<int64_t>(v.size());
  const auto cut = [&](int64_t i) {
    const int64_t m = n + 1;
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  return {cut(1), cut(3)};
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Named samples in first-seen order; each metric reports its median.
class MetricSet {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.samples.push_back(value);
        return;
      }
    }
    metrics_.push_back({name, unit, {value}});
  }

  // {"name": {"value": v, "unit": u}, ...} — the result line's shape.
  std::string ValuesJson() const {
    std::string s = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           Num(Median(m.samples)) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
  }

  // Adds quartiles and every sample, for the E2E_<workload>.json file.
  std::string DetailJson() const {
    std::string s = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const auto [q1, q3] = Quartiles(m.samples);
      s += std::string(i == 0 ? "\n" : ",\n") + "    \"" + m.name +
           "\": {\"value\": " + Num(Median(m.samples)) + ", \"unit\": \"" + m.unit +
           "\", \"q1\": " + Num(q1) + ", \"q3\": " + Num(q3) + ", \"samples\": [";
      for (size_t k = 0; k < m.samples.size(); ++k) {
        s += (k == 0 ? "" : ", ") + Num(m.samples[k]);
      }
      s += "]}";
    }
    return s + "\n  }";
  }

  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const Metric& m : metrics_) {
      const auto [q1, q3] = Quartiles(m.samples);
      std::printf("  %-30s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%zu]\n", m.name.c_str(),
                  Median(m.samples), m.unit.c_str(), q1, q3, m.samples.size());
    }
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    std::vector<double> samples;
  };
  std::vector<Metric> metrics_;
};

// ------------------------------------------------------ inputs + checks ---

// Inputs are made in kInputParts parts, on up to as many threads. The part
// count is fixed, so an input depends on (seed, rep) and not on the machine.
constexpr size_t kInputParts = 4;

// Runs f(0) .. f(n - 1) on up to kInputParts threads.
template <typename F>
void ParallelFor(size_t n, const F& f) {
  const size_t threads = std::min<size_t>(
      n, std::clamp<size_t>(std::thread::hardware_concurrency(), 1, kInputParts));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&f, t, threads, n] {
      for (size_t i = t; i < n; i += threads) {
        f(i);
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
}

// Every node's adjacency entry, fetched once from DirectGraphSource, so the
// reference traversals pay compute only.
using EntryTable = std::vector<AdjacencyPtr>;

// One table per input part: parts sharing entries would contend on their
// reference counts.
std::vector<EntryTable> FetchEntryTables(const Graph& g) {
  std::vector<NodeId> all(g.num_nodes());
  for (size_t u = 0; u < all.size(); ++u) {
    all[u] = static_cast<NodeId>(u);
  }
  std::vector<EntryTable> tables(kInputParts);
  ParallelFor(kInputParts, [&](size_t part) {
    DirectGraphSource direct(g);
    tables[part] = direct.FetchBatch(all);
  });
  return tables;
}

class TableSource : public NodeDataSource {
 public:
  explicit TableSource(const EntryTable& table) : table_(table) {}

  std::vector<AdjacencyPtr> FetchBatch(std::span<const NodeId> nodes) override {
    std::vector<AdjacencyPtr> out(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] < table_.size()) {
        out[i] = table_[nodes[i]];
      }
    }
    return out;
  }
  const FetchTrace& trace() const override { return trace_; }
  void ResetTrace() override {}

 private:
  const EntryTable& table_;
  FetchTrace trace_;
};

// Reference answers from the graph itself, computed outside the timed region.
std::vector<QueryResult> ReferenceAnswers(const std::vector<EntryTable>& tables,
                                          std::span<const Query> qs) {
  std::vector<QueryResult> out(qs.size());
  ParallelFor(kInputParts, [&](size_t part) {
    TableSource source(tables[part]);
    for (size_t i = part; i < qs.size(); i += kInputParts) {
      out[i] = ExecuteQuery(qs[i], source);
    }
  });
  return out;
}

// One rep's input: a query batch submitted at t=0 with its reference
// answers.
struct RepInput {
  std::vector<Query> queries;
  std::vector<QueryResult> reference;
};

// Generator seed of one rep (or input part), distinct per salt.
uint64_t InputSeed(uint64_t seed, size_t index, uint64_t salt) {
  return (seed ^ salt) + 0x9E3779B97F4A7C15ULL * (index + 1);
}

// The input of rep `r`, a function of (seed, r) alone. `share` shrinks the
// rep (--smoke).
RepInput MakeRepInput(const Workload& w, const Graph& g,
                      const std::vector<EntryTable>& tables, uint64_t seed, size_t r,
                      double share) {
  RepInput in;
  const auto queries = static_cast<size_t>(static_cast<double>(w.rep_queries) * share);
  switch (w.shape) {
    case Shape::kHotspot: {
      // Each part draws its own hotspots; ids are renumbered across parts.
      std::vector<std::vector<Query>> parts(kInputParts);
      ParallelFor(kInputParts, [&](size_t part) {
        WorkloadConfig c;
        c.num_hotspots = std::max<size_t>(1, queries / 10 / kInputParts);
        c.queries_per_hotspot = 10;
        c.hotspot_radius = 2;
        c.hops = w.options.hops;
        c.seed = InputSeed(seed, r * kInputParts + part, 0x33);
        parts[part] = GenerateHotspotWorkload(g, c);
      });
      for (std::vector<Query>& part : parts) {
        for (Query& q : part) {
          q.id = in.queries.size();
          in.queries.push_back(q);
        }
      }
      break;
    }
    case Shape::kSkewed: {
      SkewedWorkloadConfig c;
      c.num_sessions = 4;
      c.num_queries = queries;
      c.zipf_s = 1.4;
      c.hops = w.options.hops;
      c.seed = InputSeed(seed, r, 0x55);
      in.queries = GenerateSkewedSessionWorkload(g, c);
      break;
    }
  }
  in.reference = ReferenceAnswers(tables, in.queries);
  return in;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.type == b.type && a.aggregate == b.aggregate && a.walk_end == b.walk_end &&
         a.walk_distinct_nodes == b.walk_distinct_nodes && a.reachable == b.reachable &&
         a.distance == b.distance;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

// Every query must be answered exactly once, with the reference's result.
Tally CheckAnswers(std::span<const Query> queries, std::span<const QueryResult> reference,
                   std::span<const AnsweredQuery> answers) {
  uint64_t max_id = 0;
  for (const Query& q : queries) {
    max_id = std::max(max_id, q.id);
  }
  constexpr size_t kAbsent = std::numeric_limits<size_t>::max();
  std::vector<size_t> index_of(max_id + 1, kAbsent);
  for (size_t i = 0; i < queries.size(); ++i) {
    index_of[queries[i].id] = i;
  }
  std::vector<uint32_t> times(queries.size(), 0);
  std::vector<uint8_t> right(queries.size(), 0);
  for (const AnsweredQuery& a : answers) {
    if (a.query_id > max_id || index_of[a.query_id] == kAbsent) {
      continue;  // an answer to no query: the unanswered one fails below
    }
    const size_t i = index_of[a.query_id];
    if (++times[i] == 1) {
      right[i] = SameResult(a.result, reference[i]);
    }
  }
  Tally t;
  t.attempted = queries.size();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (times[i] != 1 || right[i] == 0) {
      ++t.failed;
    }
  }
  return t;
}

// ---------------------------------------------------------------- set-up ---

ClusterConfig ConfigFor(ExperimentEnv& env, const RunOptions& options) {
  ClusterConfig config = env.MakeClusterConfig(options);
  // MakeClusterConfig copies the cost model's one-way network delay into the
  // threaded engine's busy-wait. The benchmark measures the engine at memory
  // speed: the spin would time a constant and burn a core.
  config.injected_network_us = 0.0;
  return config;
}

struct Setup {
  std::unique_ptr<ExperimentEnv> env;
  ClusterConfig config;
  std::unique_ptr<ClusterEngine> cluster;  // destroyed before env
  double graph_s = 0.0;
  double preprocess_s = 0.0;
  double load_s = 0.0;
};

// A fresh environment (nothing memoised), timed stage by stage: graph build,
// routing preprocessing (landmarks + embedding), storage load + processors.
Setup SetUp(const Workload& w, double scale) {
  Setup s;
  const auto t0 = Clock::now();
  s.env = std::make_unique<ExperimentEnv>(DatasetId::kWebGraphLike, scale, kGraphSeed);
  s.env->graph();
  const auto t1 = Clock::now();
  auto strategy = s.env->MakeStrategy(w.options);
  const auto t2 = Clock::now();
  s.config = ConfigFor(*s.env, w.options);
  s.cluster = MakeClusterEngine(EngineKind::kThreaded, s.env->graph(), s.config,
                                std::move(strategy));
  const auto t3 = Clock::now();
  s.graph_s = Seconds(t0, t1);
  s.preprocess_s = Seconds(t1, t2);
  s.load_s = Seconds(t2, t3);
  return s;
}

// Layer timers installed on an instrumented cluster.
struct Instruments {
  CallTimer route;
  CallTimer dispatch;
  std::vector<std::unique_ptr<TimedFetchExecutor>> executors;
};

// A cold cluster over the set-up's graph and preprocessing, optionally
// instrumented.
std::unique_ptr<ClusterEngine> NewCluster(const Workload& w, Setup& s,
                                          Instruments* instruments) {
  std::unique_ptr<RoutingStrategy> strategy = s.env->MakeStrategy(w.options);
  if (instruments != nullptr) {
    strategy = std::make_unique<TimedStrategy>(std::move(strategy), &instruments->route,
                                               &instruments->dispatch);
  }
  auto cluster = MakeClusterEngine(EngineKind::kThreaded, s.env->graph(), s.config,
                                   std::move(strategy));
  if (instruments != nullptr) {
    for (uint32_t p = 0; p < s.config.num_processors; ++p) {
      instruments->executors.push_back(std::make_unique<TimedFetchExecutor>());
      cluster->processor(p).set_fetch_executor(instruments->executors.back().get());
    }
  }
  return cluster;
}

// ------------------------------------------------------------------ runs ---

double MaxOverMean(std::span<const uint64_t> v) {
  uint64_t sum = 0;
  uint64_t hi = 0;
  for (const uint64_t x : v) {
    sum += x;
    hi = std::max(hi, x);
  }
  return sum == 0 ? 0.0
                  : static_cast<double>(hi) * static_cast<double>(v.size()) /
                        static_cast<double>(sum);
}

double PerQuery(double total, uint64_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

// Per-layer numbers of one rep: the untraced run's engine counters plus the
// instrumented run's timers.
void AddLayerMetrics(MetricSet* layers, const ClusterMetrics& m, ClusterEngine& untraced,
                     const Instruments& ins, double overhead_frac) {
  const uint64_t q = m.queries;
  layers->Add("routing.route_ns", "ns", ins.route.MeanNs());
  layers->Add("routing.dispatch_ns", "ns", ins.dispatch.MeanNs());
  layers->Add("routing.proc_load_ratio", "ratio", MaxOverMean(m.queries_per_processor));
  layers->Add("runtime.queue_wait_us", "us", m.mean_queue_wait_ms * 1000.0);
  layers->Add("runtime.steal_frac", "frac", PerQuery(static_cast<double>(m.steals), q));
  layers->Add("cache.hit_rate", "frac", m.CacheHitRate());
  layers->Add("cache.entries", "count", static_cast<double>(m.cache_entries));
  layers->Add("proc.decode_us", "us", PerQuery(m.decompress_us, q));
  uint64_t batches = 0;
  uint64_t keys = 0;
  double busy_us = 0.0;
  for (const auto& e : ins.executors) {
    batches += e->batches();
    keys += e->keys();
    busy_us += e->busy_us();
  }
  layers->Add("storage.batches_per_query", "count",
              PerQuery(static_cast<double>(m.storage_batches), q));
  layers->Add("storage.keys_per_batch", "count",
              PerQuery(static_cast<double>(keys), batches));
  layers->Add("storage.bytes_per_query", "B",
              PerQuery(static_cast<double>(m.bytes_from_storage), q));
  layers->Add("storage.multiget_us", "us", PerQuery(busy_us, batches));
  layers->Add("storage.multiget_ns_per_key", "ns", PerQuery(busy_us * 1000.0, keys));
  layers->Add("storage.load_imbalance", "ratio", m.storage_load_imbalance);
  layers->Add("query.visited_per_query", "count",
              PerQuery(static_cast<double>(m.nodes_visited), q));
  uint64_t gets = 0;
  for (const uint64_t g : untraced.storage().GetRequestsPerServer()) {
    gets += g;
  }
  layers->Add("partition.migrations", "count",
              static_cast<double>(m.partitions_migrated));
  layers->Add("partition.replicas_created", "count",
              static_cast<double>(m.partitions_replicated));
  layers->Add("partition.replica_read_frac", "frac",
              PerQuery(static_cast<double>(m.replica_reads), gets));
  layers->Add("partition.stall_ms", "ms", m.repartition_stall_us / 1000.0);
  layers->Add("trace.overhead_frac", "frac", overhead_frac);
}

std::string TracePath(const std::string& out) {
  const std::string ext = ".json";
  if (out.size() >= ext.size() &&
      out.compare(out.size() - ext.size(), ext.size(), ext) == 0) {
    return out.substr(0, out.size() - ext.size()) + ".trace.json";
  }
  return out + ".trace.json";
}

int Main(int argc, char** argv) {
  const std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.has_value()) {
    return 2;
  }
  Args args = *parsed;
  const double scale = args.smoke ? kSmokeScale : kScale;
  const std::optional<Workload> found = MakeWorkload(args.workload, scale);
  if (!found.has_value()) {
    std::fprintf(stderr,
                 "unknown workload %s (hotspot_ample, hotspot_small_cache, "
                 "skewed_nocache)\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const int setups = args.smoke ? 1 : kSetups;
  const int min_reps = args.smoke ? 2 : kMinReps;
  const double share = args.smoke ? kSmokeRepShare : 1.0;
  if (args.smoke) {
    args.seconds = std::min(args.seconds, 1.0);
  }
  if (args.out.empty()) {
    args.out = "E2E_" + w.name + ".json";
  }

  MetricSet e2e;
  MetricSet layers;
  // Set up from scratch several times; the last set-up serves the reps.
  std::optional<Setup> setup;
  for (int i = 0; i < setups; ++i) {
    setup.reset();
    setup.emplace(SetUp(w, scale));
    const Setup& s = *setup;
    e2e.Add("setup_s", "s", s.graph_s + s.preprocess_s + s.load_s);
    layers.Add("setup.graph_s", "s", s.graph_s);
    layers.Add("setup.preprocess_s", "s", s.preprocess_s);
    layers.Add("setup.load_s", "s", s.load_s);
    std::printf("set-up %d: %.3f s (graph %.3f, preprocess %.3f, load %.3f)\n", i,
                s.graph_s + s.preprocess_s + s.load_s, s.graph_s, s.preprocess_s,
                s.load_s);
  }
  Setup& s = *setup;
  s.cluster.reset();
  const Graph& g = s.env->graph();
  const std::vector<EntryTable> tables = FetchEntryTables(g);

  Tally tally;
  std::string notes;
  // Rep 0 warms the process up (allocator, first-touch page faults) and is
  // checked but not measured. Timed reps follow until --seconds of wall time,
  // their input generation and checks included, have passed.
  int reps = 0;
  Clock::time_point timed_start;
  for (int rep = 0;; ++rep) {
    const bool warmup = rep == 0;
    if (rep == 1) {
      timed_start = Clock::now();
    }
    const RepInput in =
        MakeRepInput(w, g, tables, args.seed, static_cast<size_t>(rep), share);
    // The untraced run: the end-to-end numbers.
    std::unique_ptr<ClusterEngine> cluster = NewCluster(w, s, nullptr);
    const ClusterMetrics m = cluster->Run(in.queries);
    tally.Add(CheckAnswers(in.queries, in.reference, cluster->answers()));
    std::printf("rep %d%s: %llu queries, throughput %.1f q/s, p50 %.2f us, p99 %.2f us, "
                "hit rate %.4f\n",
                rep, warmup ? " (warm-up)" : "",
                static_cast<unsigned long long>(m.queries), m.throughput_qps,
                m.p50_response_ms * 1000.0, m.p99_response_ms * 1000.0, m.CacheHitRate());
    if (warmup) {
      continue;
    }
    ++reps;
    e2e.Add("throughput_qps", "q/s", m.throughput_qps);
    e2e.Add("p50_us", "us", m.p50_response_ms * 1000.0);
    e2e.Add("p99_us", "us", m.p99_response_ms * 1000.0);
    const auto last = [&] {
      return reps >= kMaxReps ||
             (reps >= min_reps && Seconds(timed_start, Clock::now()) >= args.seconds);
    };

    if (!args.trace) {
      if (last()) {
        break;
      }
      continue;
    }
    // The instrumented run over the same input, on a fresh cold cluster.
    Instruments ins;
    std::unique_ptr<ClusterEngine> traced = NewCluster(w, s, &ins);
    const ClusterMetrics tm = traced->Run(in.queries);
    tally.Add(CheckAnswers(in.queries, in.reference, traced->answers()));
    const double overhead =
        m.throughput_qps > 0.0 ? 1.0 - tm.throughput_qps / m.throughput_qps : 0.0;
    AddLayerMetrics(&layers, m, *cluster, ins, overhead);
    if (!last()) {
      continue;
    }
    // Once per run: the single-threaded replay of the last instrumented run.
    const ReplayResult replay =
        Replay(g, s.config, in.queries, traced->answers(), kSpanQueries);
    uint64_t run_hits = 0;
    uint64_t replay_hits = 0;
    for (uint32_t p = 0; p < s.config.num_processors; ++p) {
      const uint64_t hits = traced->processor(p).stats().cache_hits;
      run_hits += hits;
      replay_hits += replay.hits_per_processor[p];
      if (w.shape == Shape::kHotspot && hits != replay.hits_per_processor[p]) {
        notes += "replay cache hits differ from the run's on processor " +
                 std::to_string(p) + "; ";
      }
    }
    layers.Add("cache.hits", "count", static_cast<double>(run_hits));
    layers.Add("replay.cache_hits", "count", static_cast<double>(replay_hits));
    layers.Add("proc.fetch_self_us", "us", replay.fetch_self_us);
    layers.Add("query.compute_us", "us", replay.compute_us);
    const std::string trace_path = TracePath(args.out);
    if (!WriteSpans(trace_path, w.name, replay)) {
      notes += "could not write " + trace_path + "; ";
    }
    std::printf("replay: %llu queries, cache hits %llu (run %llu), compute %.2f us, "
                "fetch self %.2f us per query -> %s\n",
                static_cast<unsigned long long>(replay.queries),
                static_cast<unsigned long long>(replay_hits),
                static_cast<unsigned long long>(run_hits), replay.compute_us,
                replay.fetch_self_us, trace_path.c_str());
    break;
  }

  const bool correct = tally.failed == 0 && notes.empty();
  const double failed_frac =
      tally.attempted == 0
          ? 0.0
          : static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  std::printf("workload %s seed %llu scale %.2f (%zu nodes, %zu edges), %d set-ups, "
              "%d reps\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), scale,
              g.num_nodes(), g.num_edges(), setups, reps);
  e2e.Print("end-to-end (median of set-ups / reps):");
  if (args.trace) {
    layers.Print("per layer (median of set-ups / reps):");
  }
  std::printf("failed_frac %.6g (%llu of %llu operations)%s%s\n", failed_frac,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted), notes.empty() ? "" : ": ",
              notes.c_str());

  const std::string summary =
      std::string("\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed);
  if (std::FILE* f = std::fopen(args.out.c_str(), "w"); f != nullptr) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
                 "\"smoke\": %s, \"scale\": %s, \"nodes\": %zu, \"edges\": %zu, "
                 "\"setups\": %d, \"reps\": %d,\n  %s, \"failed_frac\": %s,\n"
                 "  \"metrics\": %s",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 Num(args.seconds).c_str(), args.trace ? 1 : 0,
                 args.smoke ? "true" : "false", Num(scale).c_str(), g.num_nodes(),
                 g.num_edges(), setups, reps, summary.c_str(), Num(failed_frac).c_str(),
                 e2e.DetailJson().c_str());
    if (args.trace) {
      std::fprintf(f, ",\n  \"per_layer\": %s", layers.DetailJson().c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
  } else {
    std::fprintf(stderr, "could not write %s\n", args.out.c_str());
  }
  std::printf("{%s, \"metrics\": %s}\n", summary.c_str(),
              (args.trace ? layers : e2e).ValuesJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace grouting::e2e

int main(int argc, char** argv) { return grouting::e2e::Main(argc, argv); }
