// Per-tenant admission control at the arrival splitter (multi-tenant
// federation): one token bucket per tenant, driven by the arrival
// schedule's own timestamps rather than any clock — so the simulated and
// threaded engines, handed the same schedule, shed exactly the same
// arrivals. In-quota arrivals are never dropped; over-quota arrivals are
// shed before reaching a router shard, and counted per tenant.

#ifndef GROUTING_SRC_FRONTEND_ADMISSION_H_
#define GROUTING_SRC_FRONTEND_ADMISSION_H_

#include <cstdint>
#include <vector>

namespace grouting {

// Per-tenant quota, held by ClusterConfig::admission.
struct AdmissionConfig {
  // Sustained admitted rate per tenant, in queries per second of schedule
  // time (virtual µs on the simulated engine; the same schedule paced in
  // wall time on the threaded one). Over-quota arrivals are shed before
  // reaching a router shard and counted (ClusterMetrics::queries_shed);
  // in-quota arrivals are never dropped. <= 0 disables admission control
  // (everything is admitted).
  double quota_qps = 0.0;
  // Token-bucket depth per tenant, in queries: bursts this deep above the
  // quota are absorbed before shedding starts. Must be >= 1.
  double burst = 32.0;

  bool enabled() const { return quota_qps > 0.0; }
};

class TenantAdmission {
 public:
  // One token bucket per tenant id in [0, num_tenants).
  TenantAdmission(const AdmissionConfig& config, uint32_t num_tenants);

  // Decides the arrival of `tenant` at schedule time `arrive_us`.
  // Timestamps must be non-decreasing per tenant (arrival schedules are
  // time-ordered). Returns true when the arrival is admitted.
  bool Admit(uint32_t tenant, double arrive_us);

  uint64_t admitted(uint32_t tenant) const { return admitted_[tenant]; }
  uint64_t shed(uint32_t tenant) const { return shed_[tenant]; }

 private:
  AdmissionConfig config_;
  std::vector<double> tokens_;
  std::vector<double> last_us_;
  std::vector<uint64_t> admitted_;
  std::vector<uint64_t> shed_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_FRONTEND_ADMISSION_H_
