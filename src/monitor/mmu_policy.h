// MMU virtualization policy engine (paper section 5.2 and 6.1).
//
// Every PTE the deprivileged kernel asks the monitor to write is validated — and where
// the paper's design *rewrites* rather than refuses (forcing protection tags onto
// monitor/PTP/kernel-text frames, stripping W from kernel text), the policy returns the
// adjusted value. Confined sandbox frames are simply unmappable by the kernel (the
// monitor maps them itself through a trusted path that updates map counts). The tag
// mechanics — which PTE bits carry a tag, whether the rewrite tags the mapping or binds
// the frame at the controller — belong to the isolation backend.
#ifndef EREBOR_SRC_MONITOR_MMU_POLICY_H_
#define EREBOR_SRC_MONITOR_MMU_POLICY_H_

#include "src/hw/paging.h"
#include "src/kernel/layout.h"
#include "src/monitor/frame_table.h"
#include "src/monitor/isolation.h"

namespace erebor {

class Machine;

struct PolicyDecision {
  bool allowed = false;
  Pte adjusted_value = 0;  // value to actually write when allowed
  // Huge-page request that must be force-split into 4 KiB mappings (paper section 7
  // future work): the monitor materializes a page table covering the same range.
  bool needs_split = false;
  std::string denial_reason;
};

class MmuPolicy {
 public:
  // `shootdowns` is the monitor counter that Shootdown bumps.
  MmuPolicy(FrameTable* frames, IsolationBackend* isolation, Machine* machine,
            uint64_t* shootdowns)
      : frames_(frames), isolation_(isolation), machine_(machine),
        shootdowns_(shootdowns) {}

  // Installed by the sandbox manager: approves user mappings of common-region frames
  // (root of the requesting address space, target frame, writability).
  using CommonMappingValidator = std::function<Status(Paddr, FrameNum, bool)>;
  void SetCommonValidator(CommonMappingValidator validator) {
    common_validator_ = std::move(validator);
  }

  // Validates a kernel-requested PTE store at `entry_pa` with `value`. Non-const:
  // allowed intermediate writes link the child PTP's paging level.
  PolicyDecision CheckPteWrite(Paddr entry_pa, Pte value);

  // Mirrors the PTP-level linking for monitor-trusted PTE writes (which bypass the
  // policy checks but must keep the hierarchy metadata coherent).
  void NoteTrustedLink(Paddr entry_pa, Pte value);

  // Validates a kernel-requested CR write. CR0.WP and the CR4 protection bits are
  // load-bearing and may never be cleared; CR3 must name a registered root PTP.
  Status CheckCrWrite(int reg, uint64_t value, uint64_t current_value) const;

  // Validates a kernel-requested MSR write. Monitor-owned MSRs (per backend: PKRS,
  // CET, shadow stack pointer, user-interrupt table) are refused.
  Status CheckMsrWrite(uint32_t index) const;

  // Validates a MapGPA shared conversion: only the shared-IO window may be shared.
  Status CheckSharedConversion(FrameNum first, uint64_t count, bool to_shared) const;

  // The monitor's one PTE store, made for `cpu` with the decision already taken:
  // writes `value` at `entry_pa`, keeps the frame table's map counts and supervisor
  // reverse map accurate, and, when a present entry changed, invalidates it: added
  // to `deferred` (a ring drain's batch, flushed through Shootdown at its end) or,
  // with `deferred` null, shot down now. This invalidation is the monitor's own TLB
  // obligation; it holds even for a kernel that skips its TLB maintenance.
  void StorePte(Cpu& cpu, Paddr entry_pa, Pte value, TlbShootdownBatch* deferred);

  // Frame-table accounting for one store: single-mapping counts and the supervisor
  // reverse map. StorePte calls it; only a raw store into a table no walk can reach
  // yet (the huge-page split's rollback) calls it directly. old_value is the
  // previous entry contents; entry_pa is where the PTE lives.
  void NoteLeafWrite(Pte old_value, Pte new_value, Paddr entry_pa);

  // The shootdown sink: counts one monitor shootdown and broadcasts the by-pa
  // invalidation of `entry_pa` from `cpu` to every vCPU's TLB.
  void Shootdown(Cpu& cpu, Paddr entry_pa);

  // Retrofits a protection class (and optionally strips W) onto a frame — binds the
  // frame at the backend and rewrites any pre-existing supervisor mapping through
  // StorePte, closing the window where a frame is re-typed after its direct-map
  // entry was created with the default tag.
  Status RetrofitTag(Cpu& cpu, FrameNum frame, ProtClass cls, bool strip_write);

  IsolationBackend& isolation() const { return *isolation_; }

 private:
  FrameTable* frames_;
  IsolationBackend* isolation_;
  Machine* machine_;
  uint64_t* shootdowns_;
  CommonMappingValidator common_validator_;
};

}  // namespace erebor

#endif  // EREBOR_SRC_MONITOR_MMU_POLICY_H_
