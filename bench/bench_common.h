// Shared plumbing for the per-table / per-figure benchmark binaries.
//
// Every bench binary:
//   * builds (lazily, once) an ExperimentEnv for its dataset at the bench
//     scale (override with GROUTING_BENCH_SCALE, default 0.5),
//   * runs its cluster configurations on the engine selected by
//     GROUTING_BENCH_ENGINE (sim | threaded, default sim) — the same sweep
//     re-runs on real threads with one flag,
//   * registers one google-benchmark per configuration point, carrying the
//     paper's metrics (throughput, response time, cache hit rate) as
//     counters — wall time of a benchmark iteration is the simulation's
//     execution cost, NOT the reproduced metric,
//   * prints a paper-style results table plus the expected shape from the
//     paper after the benchmark run, so bench_output.txt reads as an
//     EXPERIMENTS log.

#ifndef GROUTING_BENCH_BENCH_COMMON_H_
#define GROUTING_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/grouting.h"
#include "src/util/table.h"

namespace grouting {
namespace bench {

inline double BenchScale() {
  if (const char* s = std::getenv("GROUTING_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0) {
      return v;
    }
  }
  return 0.5;
}

// Which ClusterEngine the bench sweeps run on: GROUTING_BENCH_ENGINE=threaded
// reruns every figure on real threads; anything else (or unset) keeps the
// paper's deterministic discrete-event simulation.
inline EngineKind BenchEngine() {
  if (const char* s = std::getenv("GROUTING_BENCH_ENGINE")) {
    if (std::string(s) == "threaded") {
      return EngineKind::kThreaded;
    }
  }
  return EngineKind::kSimulated;
}

// Paper-shaped hotspot count scaled to the bench size: the figure benches
// replay the paper's 100-hotspot workload, but at the CI scale
// (GROUTING_BENCH_SCALE=0.08) the full count swamps the shrunken graphs.
// At the default scale (0.5) this returns `paper_hotspots` unchanged, so
// local runs reproduce the paper exactly; smaller scales shrink the
// workload proportionally with a floor of 10 hotspots.
inline size_t ScaledHotspots(size_t paper_hotspots = 100) {
  return std::max<size_t>(
      10, static_cast<size_t>(static_cast<double>(paper_hotspots) * BenchScale() / 0.5));
}

inline const std::vector<RoutingSchemeKind>& AllSchemes() {
  static const std::vector<RoutingSchemeKind> kSchemes = {
      RoutingSchemeKind::kNoCache, RoutingSchemeKind::kNextReady,
      RoutingSchemeKind::kHash, RoutingSchemeKind::kLandmark,
      RoutingSchemeKind::kEmbed};
  return kSchemes;
}

inline void SetCounters(benchmark::State& state, const ClusterMetrics& m) {
  state.counters["throughput_qps"] = m.throughput_qps;
  state.counters["response_ms"] = m.mean_response_ms;
  state.counters["p50_response_ms"] = m.p50_response_ms;
  state.counters["p95_response_ms"] = m.p95_response_ms;
  state.counters["p99_response_ms"] = m.p99_response_ms;
  state.counters["p999_response_ms"] = m.p999_response_ms;
  state.counters["hit_rate_pct"] = 100.0 * m.CacheHitRate();
  state.counters["cache_hits"] = static_cast<double>(m.cache_hits);
  state.counters["cache_misses"] = static_cast<double>(m.cache_misses);
  state.counters["steals"] = static_cast<double>(m.steals);
  state.counters["compression_ratio"] = m.adjacency_compression_ratio;
  state.counters["cache_entries"] = static_cast<double>(m.cache_entries);
  state.counters["decompress_us"] = m.decompress_us;
}

// One collected row for the post-run summary table.
struct ResultRow {
  std::string label;
  ClusterMetrics metrics;
};

inline void PrintMetricsTable(const std::string& title,
                              const std::vector<ResultRow>& rows) {
  Table t({"configuration", "throughput (q/s)", "response (ms)", "hit rate (%)",
           "cache hits", "cache misses", "steals"});
  for (const auto& row : rows) {
    t.AddRow({row.label, Table::Num(row.metrics.throughput_qps, 1),
              Table::Num(row.metrics.mean_response_ms, 3),
              Table::Num(100.0 * row.metrics.CacheHitRate(), 1),
              Table::Int(static_cast<int64_t>(row.metrics.cache_hits)),
              Table::Int(static_cast<int64_t>(row.metrics.cache_misses)),
              Table::Int(static_cast<int64_t>(row.metrics.steals))});
  }
  std::printf("\n=== %s [engine: %s] ===\n%s", title.c_str(),
              EngineKindName(BenchEngine()).c_str(), t.ToString().c_str());
  std::fflush(stdout);
}

inline void PrintPaperShape(const char* shape) {
  std::printf("--- paper shape: %s\n", shape);
  std::fflush(stdout);
}

// --- machine-readable results: BENCH_<name>.json ------------------------
//
// Every bench binary ends its main() with WriteBenchJson, emitting one JSON
// document per bench run into GROUTING_BENCH_JSON_DIR (default: the working
// directory). CI uploads these as artifacts — the bench trajectory — and
// tools/check_bench_regression.py gates pushes against the checked-in
// bench/baselines/*.json on the deterministic simulated engine. Each row
// carries every scalar ClusterMetrics field under its own name (via
// ForEachMetricField) plus five derived keys.

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Fraction of arrivals refused by per-tenant admission control (0 when
// quotas are off or nothing arrived).
inline double ShedRateOf(const ClusterMetrics& m) {
  const uint64_t arrivals = m.queries + m.queries_shed;
  return arrivals == 0 ? 0.0
                       : static_cast<double>(m.queries_shed) / static_cast<double>(arrivals);
}

// Worst per-tenant response-time tail across the run's tenants (ms);
// p999 when `p999`, else p99. 0 when per-tenant metrics are absent.
inline double MaxTenantPercentile(const ClusterMetrics& m, bool p999) {
  double worst = 0.0;
  for (const TenantMetrics& t : m.per_tenant) {
    worst = std::max(worst, p999 ? t.p999_response_ms : t.p99_response_ms);
  }
  return worst;
}

// One named group of result rows (a bench's summary tables map 1:1).
struct JsonGroup {
  const char* group;
  const std::vector<ResultRow>* rows;
};

inline void WriteBenchJson(const std::string& name,
                           std::initializer_list<JsonGroup> groups) {
  const char* dir = std::getenv("GROUTING_BENCH_JSON_DIR");
  const std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
                           "/BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WriteBenchJson: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"engine\": \"%s\",\n  \"scale\": %g,\n",
               JsonEscape(name).c_str(), EngineKindName(BenchEngine()).c_str(),
               BenchScale());
  std::fprintf(f, "  \"results\": [");
  bool first = true;
  for (const JsonGroup& g : groups) {
    for (const ResultRow& row : *g.rows) {
      const ClusterMetrics& m = row.metrics;
      std::fprintf(f, "%s\n    {\"group\": \"%s\", \"label\": \"%s\", ", first ? "" : ",",
                   JsonEscape(g.group).c_str(), JsonEscape(row.label).c_str());
      ForEachMetricField([&](const char* key, auto member) {
        const auto& v = m.*member;
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_floating_point_v<T>) {
          std::fprintf(f, "\"%s\": %.6g, ", key, v);
        } else if constexpr (std::is_integral_v<T>) {
          std::fprintf(f, "\"%s\": %llu, ", key, static_cast<unsigned long long>(v));
        }
      });
      std::fprintf(f,
                   "\"hit_rate\": %.6g, \"tenants\": %u, \"shed_rate\": %.6g, "
                   "\"max_tenant_p99_ms\": %.6g, \"max_tenant_p999_ms\": %.6g}",
                   m.CacheHitRate(),
                   static_cast<unsigned>(std::max<size_t>(1, m.per_tenant.size())),
                   ShedRateOf(m), MaxTenantPercentile(m, false),
                   MaxTenantPercentile(m, true));
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("--- wrote %s\n", path.c_str());
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace grouting

#endif  // GROUTING_BENCH_BENCH_COMMON_H_
