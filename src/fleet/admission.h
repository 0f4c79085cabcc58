// Per-tenant admission control for the fleet supervisor.
//
// When a tenant's sandbox is being drained and replaced, the supervisor must not
// stall the whole fleet — only that tenant's traffic is affected. Each tenant sits
// in one of three states:
//
//   kServing  - requests are admitted normally.
//   kDraining - the tenant's sandbox is quarantined/tearing down and a standby is
//               being promoted: requests are *deferred* (counted, retried next
//               round) up to a per-tenant bound, then shed.
//   kShedding - the tenant exhausted its replacement budget (repeatedly hostile or
//               repeatedly failing): requests are refused outright. Terminal.
//
// Every decision is accounted both per-tenant and in the global metrics registry
// ("fleet.admission_deferred", "fleet.admission_shed"), so the bench and the soak
// test can assert that load shedding stayed tenant-scoped.
#ifndef EREBOR_SRC_FLEET_ADMISSION_H_
#define EREBOR_SRC_FLEET_ADMISSION_H_

#include <cstdint>
#include <map>

namespace erebor {

enum class TenantAdmitState : uint8_t { kServing, kDraining, kShedding };
enum class AdmitDecision : uint8_t { kAdmit, kDefer, kShed };

const char* TenantAdmitStateName(TenantAdmitState state);

struct AdmissionPolicy {
  // Requests a draining tenant may defer before further ones are shed: bounds the
  // backlog a slow replacement can accumulate.
  uint64_t max_deferred_per_tenant = 8;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionPolicy& policy) : policy_(policy) {}

  void RegisterTenant(int tenant);

  // State transitions. Entering kDraining re-arms the deferral budget; kShedding
  // is terminal (SetState back out of it is refused).
  void SetState(int tenant, TenantAdmitState state);
  TenantAdmitState state(int tenant) const;

  // Classifies one incoming request and accounts the decision.
  AdmitDecision Admit(int tenant);

  uint64_t deferred(int tenant) const;
  uint64_t shed(int tenant) const;

 private:
  struct TenantAdmission {
    TenantAdmitState state = TenantAdmitState::kServing;
    uint64_t draining_deferred = 0;  // deferrals since entering kDraining
    uint64_t admitted = 0;
    uint64_t deferred = 0;
    uint64_t shed = 0;
  };

  AdmissionPolicy policy_;
  std::map<int, TenantAdmission> tenants_;
};

}  // namespace erebor

#endif  // EREBOR_SRC_FLEET_ADMISSION_H_
