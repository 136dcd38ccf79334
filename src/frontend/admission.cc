#include "src/frontend/admission.h"

#include <algorithm>

#include "src/util/check.h"

namespace grouting {

TenantAdmission::TenantAdmission(const AdmissionConfig& config, uint32_t num_tenants)
    : config_(config),
      tokens_(num_tenants, config.burst),
      last_us_(num_tenants, 0.0),
      admitted_(num_tenants, 0),
      shed_(num_tenants, 0) {
  GROUTING_CHECK(num_tenants > 0);
  GROUTING_CHECK(config_.burst >= 1.0);
}

bool TenantAdmission::Admit(uint32_t tenant, double arrive_us) {
  GROUTING_CHECK(tenant < tokens_.size());
  if (!config_.enabled()) {
    ++admitted_[tenant];
    return true;
  }
  const double elapsed_us = std::max(0.0, arrive_us - last_us_[tenant]);
  last_us_[tenant] = std::max(last_us_[tenant], arrive_us);
  tokens_[tenant] = std::min(
      config_.burst, tokens_[tenant] + elapsed_us * config_.quota_qps / 1e6);
  if (tokens_[tenant] >= 1.0) {
    tokens_[tenant] -= 1.0;
    ++admitted_[tenant];
    return true;
  }
  ++shed_[tenant];
  return false;
}

}  // namespace grouting
