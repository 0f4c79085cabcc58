#include "src/fleet/admission.h"

#include "src/common/metrics.h"

namespace erebor {

const char* TenantAdmitStateName(TenantAdmitState state) {
  switch (state) {
    case TenantAdmitState::kServing:
      return "serving";
    case TenantAdmitState::kDraining:
      return "draining";
    case TenantAdmitState::kShedding:
      return "shedding";
  }
  return "?";
}

void AdmissionController::RegisterTenant(int tenant) { tenants_[tenant]; }

void AdmissionController::SetState(int tenant, TenantAdmitState state) {
  TenantAdmission& t = tenants_[tenant];
  if (t.state == TenantAdmitState::kShedding) {
    return;  // terminal: a shed tenant never serves again
  }
  if (state == TenantAdmitState::kDraining && t.state != TenantAdmitState::kDraining) {
    t.draining_deferred = 0;  // fresh drain: re-arm the deferral budget
  }
  t.state = state;
}

TenantAdmitState AdmissionController::state(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantAdmitState::kServing : it->second.state;
}

AdmitDecision AdmissionController::Admit(int tenant) {
  TenantAdmission& t = tenants_[tenant];
  switch (t.state) {
    case TenantAdmitState::kServing:
      ++t.admitted;
      return AdmitDecision::kAdmit;
    case TenantAdmitState::kDraining:
      if (t.draining_deferred < policy_.max_deferred_per_tenant) {
        ++t.draining_deferred;
        ++t.deferred;
        MetricsRegistry::Global().Increment("fleet.admission_deferred");
        return AdmitDecision::kDefer;
      }
      ++t.shed;
      MetricsRegistry::Global().Increment("fleet.admission_shed");
      return AdmitDecision::kShed;
    case TenantAdmitState::kShedding:
      ++t.shed;
      MetricsRegistry::Global().Increment("fleet.admission_shed");
      return AdmitDecision::kShed;
  }
  return AdmitDecision::kShed;
}

uint64_t AdmissionController::deferred(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.deferred;
}

uint64_t AdmissionController::shed(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.shed;
}

}  // namespace erebor
