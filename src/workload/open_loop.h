// Open-loop multi-tenant workload generator (beyond the paper; ROADMAP's
// "heavy traffic from millions of users" north star):
//
// Arrivals follow a merged Poisson process — exponential gaps at the
// aggregate rate — and each arrival is attributed to a tenant with
// probability proportional to normalised Zipf(tenant_skew) weights, so
// tenant rates are heavy-tailed (tenant 0 is the hottest). Within a tenant
// the arrival belongs to one of `sessions_per_tenant` lightweight sessions
// (a millions-sized implicit space — no per-session state is materialised),
// drawn bounded-Pareto so a few sessions dominate; the session determines
// the query node by hashing, so hot sessions re-read hot nodes.
//
// Each query carries an absolute `Query::arrive_us` timestamp (>= 0), and
// that alone makes both engines consume the same schedule
// deterministically: the simulator fires arrival events at arrive_us in
// virtual time, the threaded feeder paces them in wall time from the run's
// epoch. No config switch is involved. The generator itself is pure and
// deterministic in OpenLoopConfig::seed.

#ifndef GROUTING_SRC_WORKLOAD_OPEN_LOOP_H_
#define GROUTING_SRC_WORKLOAD_OPEN_LOOP_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/query/query.h"

namespace grouting {

struct OpenLoopConfig {
  uint32_t num_tenants = 4;
  size_t num_arrivals = 8192;
  // Aggregate arrival rate across all tenants, queries per second of
  // schedule time.
  double arrival_rate_qps = 50000.0;
  // Zipf exponent over per-tenant rates: tenant t's share of the aggregate
  // rate is proportional to 1/(t+1)^tenant_skew. 0 = uniform shares.
  double tenant_skew = 1.0;
  // Size of each tenant's implicit session space and the bounded-Pareto
  // exponent concentrating traffic on its low-rank sessions.
  uint64_t sessions_per_tenant = 1000000;
  double session_skew = 1.1;
  int32_t hops = 2;
  // Relative weights of the three query types (default: uniform mixture).
  double weight_aggregation = 1.0;
  double weight_random_walk = 1.0;
  double weight_reachability = 1.0;
  double restart_prob = 0.15;
  uint64_t seed = 2024;
};

// Expected per-tenant shares of the aggregate arrival rate (normalised
// Zipf(skew) weights, summing to 1). This is what quota sizing and the CI
// soak checker reason against: tenant t's offered rate is
// share[t] * arrival_rate_qps.
std::vector<double> TenantRateShares(uint32_t num_tenants, double skew);

// Generates num_arrivals queries with strictly increasing arrive_us and
// sequential ids. Deterministic in config.seed.
std::vector<Query> GenerateOpenLoopWorkload(const Graph& g,
                                            const OpenLoopConfig& config);

}  // namespace grouting

#endif  // GROUTING_SRC_WORKLOAD_OPEN_LOOP_H_
