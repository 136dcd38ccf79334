// Multi-tenant graph federation (beyond the paper): tenant-striped storage
// keyspaces under an open-loop Poisson arrival stream (src/workload/
// open_loop.h) with per-tenant admission control at the splitter
// (src/frontend/admission.h).
//
//   (a) tenant count x tenant-rate skew, quotas off: federation overhead —
//       every tenant traverses its own keyspace slice, so cache capacity
//       fragments with the tenant count while the merged arrival schedule
//       stays fixed,
//   (b) per-tenant quota on/off at 4 tenants, high skew: the Zipf-heavy
//       tenant 0 exceeds its qps quota and is shed at the splitter; the
//       in-quota tenants keep a zero shed count and their response tails.
//
// Expected shape: quota off sheds nothing at any tenant count; quota on
// sheds only tenant 0's over-quota arrivals (queries_shed > 0, bounded
// shed_rate) and pulls max_tenant_p99_ms down versus the unthrottled run.
// Runs on either engine via GROUTING_BENCH_ENGINE; both engines compute the
// same admission plan from the same schedule.

#include "bench/bench_common.h"

#include <algorithm>

#include "src/workload/open_loop.h"

namespace grouting {
namespace bench {
namespace {

constexpr double kArrivalRateQps = 50000.0;
constexpr double kQuotaQps = 18000.0;

ExperimentEnv& Env() {
  static ExperimentEnv env(DatasetId::kWebGraphLike, BenchScale());
  return env;
}

// The arrival stream honours GROUTING_BENCH_SCALE so the CI small-scale run
// shrinks the schedule; the default scale (0.5) keeps a 10k-arrival stream.
size_t ScaledArrivals() {
  return std::max<size_t>(2000, static_cast<size_t>(20000.0 * BenchScale()));
}

std::vector<ResultRow>& TenantRows() {
  static std::vector<ResultRow> rows;
  return rows;
}
std::vector<ResultRow>& QuotaRows() {
  static std::vector<ResultRow> rows;
  return rows;
}

std::vector<Query> MultitenantWorkload(uint32_t tenants, double skew) {
  OpenLoopConfig config;
  config.num_tenants = tenants;
  config.num_arrivals = ScaledArrivals();
  config.arrival_rate_qps = kArrivalRateQps;
  config.tenant_skew = skew;
  config.seed = Env().seed() ^ 0x77;
  return GenerateOpenLoopWorkload(Env().graph(), config);
}

RunOptions MultitenantOpts(uint32_t tenants, double quota_qps) {
  RunOptions opts;
  opts.scheme = RoutingSchemeKind::kEmbed;
  opts.num_tenants = tenants;
  opts.admission.quota_qps = quota_qps;
  return opts;
}

std::string Pct(double v) { return Table::Num(v, 2); }

void BM_Multitenant_TenantsXSkew(benchmark::State& state) {
  static const uint32_t kTenants[] = {1, 4, 8};
  static const double kSkews[] = {0.6, 1.2};
  const uint32_t tenants = kTenants[static_cast<size_t>(state.range(0))];
  const double skew = kSkews[static_cast<size_t>(state.range(1))];
  const RunOptions opts = MultitenantOpts(tenants, /*quota_qps=*/0.0);
  const auto queries = MultitenantWorkload(tenants, skew);
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts, queries);
  }
  SetCounters(state, m);
  state.counters["queries_shed"] = static_cast<double>(m.queries_shed);
  state.counters["max_tenant_p99_ms"] = MaxTenantPercentile(m, /*p999=*/false);
  // Labels are parameter-only: they are the regression gate's join key.
  TenantRows().push_back(
      {"tenants=" + std::to_string(tenants) + " skew=" + Pct(skew), m});
}

void BM_Multitenant_Quota(benchmark::State& state) {
  const bool quota_on = state.range(0) != 0;
  const RunOptions opts = MultitenantOpts(/*tenants=*/4,
                                          quota_on ? kQuotaQps : 0.0);
  const auto queries = MultitenantWorkload(/*tenants=*/4, /*skew=*/1.2);
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts, queries);
  }
  SetCounters(state, m);
  state.counters["queries_shed"] = static_cast<double>(m.queries_shed);
  state.counters["shed_rate"] = ShedRateOf(m);
  state.counters["max_tenant_p99_ms"] = MaxTenantPercentile(m, /*p999=*/false);
  QuotaRows().push_back({quota_on ? "quota=on" : "quota=off", m});
}

BENCHMARK(BM_Multitenant_TenantsXSkew)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Multitenant_Quota)
    ->ArgsProduct({{0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace grouting

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  grouting::bench::PrintMetricsTable(
      "Multi-tenant federation: tenant count x rate skew (open-loop Poisson "
      "arrivals, quotas off; queries_shed + max_tenant_p99_ms in the "
      "benchmark counters)",
      grouting::bench::TenantRows());
  grouting::bench::PrintPaperShape(
      "with quotas off nothing is shed at any tenant count; adding tenants "
      "fragments the shared cache across keyspace slices, so hit rate drifts "
      "down and response up while the arrival schedule stays fixed.");
  grouting::bench::PrintMetricsTable(
      "Multi-tenant federation: per-tenant quota on/off (4 tenants, "
      "skew=1.2, Zipf-heavy tenant 0 over quota)",
      grouting::bench::QuotaRows());
  grouting::bench::PrintPaperShape(
      "quota on sheds only tenant 0's over-quota arrivals (bounded "
      "shed_rate, zero sheds for in-quota tenants) and trims the worst "
      "per-tenant p99 versus the unthrottled run.");
  grouting::bench::WriteBenchJson("fig_multitenant",
                                  {{"tenants_x_skew", &grouting::bench::TenantRows()},
                                   {"quota", &grouting::bench::QuotaRows()}});
  return 0;
}
