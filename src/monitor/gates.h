// EMC entry/exit gates and the #INT gate (paper section 5.3, Figure 5).
//
// The entry gate is the only endbr64-marked label in the monitor: CET-IBT makes it the
// sole legal indirect-branch target, so the kernel can only ever enter monitor code at
// the top of the gate, which (1) grants this core's view of monitor memory (a PKRS
// write under PKS; implicit in the gate context under TME-MK), (2) switches to the
// protected per-core monitor stack, and (3) flips the vCPU's monitor-context flag. The
// exit gate reverses all three. The #INT gate protects EMC execution against
// preemption: interrupts arriving while in monitor context have their view token saved
// and revoked before the untrusted OS handler runs. The register discipline at every
// one of these points is the isolation backend's (src/monitor/isolation.h); the PKS
// backend reproduces the paper's PKRS wrmsr sequence bit for bit.
#ifndef EREBOR_SRC_MONITOR_GATES_H_
#define EREBOR_SRC_MONITOR_GATES_H_

#include <memory>
#include <vector>

#include "src/hw/machine.h"
#include "src/kernel/layout.h"

namespace erebor {

class Histogram;
class IsolationBackend;

// PKRS views: what each protection key permits in normal (kernel) mode vs monitor mode.
inline constexpr uint64_t KernelModePkrs() {
  return pkrs::DenyAll(layout::kMonitorKey) | pkrs::DenyWrite(layout::kPtpKey) |
         pkrs::DenyWrite(layout::kKernelTextKey) | pkrs::DenyAll(layout::kShadowStackKey);
}
inline constexpr uint64_t MonitorModePkrs() { return 0; }  // grant all

class EmcGates {
 public:
  EmcGates(Machine* machine, IsolationBackend* isolation);

  // Registers the gate labels and per-core monitor stacks; enables CET on each CPU
  // (called from monitor stage-1 boot, running trusted).
  void Install();

  CodeLabelId entry_label() const { return entry_label_; }
  CodeLabelId internal_label() const { return internal_label_; }

  // The EMC path proper. Enter() performs the IBT-checked indirect branch to the entry
  // gate; on success the CPU is in monitor context with the monitor view granted.
  // Exit() returns to normal mode. Both charge their half of the round trip.
  Status Enter(Cpu& cpu);
  void Exit(Cpu& cpu);

  // #INT gate wrapping for an interrupt that arrives during EMC execution: saves and
  // revokes the view token around the untrusted handler. Interrupts nest (an NMI can
  // land inside a timer handler that itself preempted the monitor), so the save slot
  // is a per-CPU stack. InterruptRestore refuses an unbalanced call — a restore with
  // no prior save would otherwise hand the untrusted OS the monitor's view.
  void InterruptSave(Cpu& cpu);
  void InterruptRestore(Cpu& cpu);

  uint64_t entries() const { return entries_; }
  size_t interrupt_depth(int cpu) const { return saved_views_[cpu].size(); }

 private:
  Machine* machine_;
  IsolationBackend* isolation_;
  CodeLabelId entry_label_ = kInvalidCodeLabel;
  CodeLabelId exit_return_label_ = kInvalidCodeLabel;
  CodeLabelId internal_label_ = kInvalidCodeLabel;  // non-endbr body (attack target)
  std::vector<std::unique_ptr<ShadowStack>> shadow_stacks_;
  std::vector<std::vector<uint64_t>> saved_views_;  // per-CPU #INT-gate token stacks
  std::vector<Cycles> entry_ts_;  // per-CPU gate-entry timestamp (round-trip histogram)
  // trace.emc_round_trip_cycles, resolved once: the registry never erases a
  // histogram (Reset() zeroes it in place), so the pointer stays valid.
  Histogram* round_trip_cycles_;
  uint64_t entries_ = 0;
};

}  // namespace erebor

#endif  // EREBOR_SRC_MONITOR_GATES_H_
