#include "src/monitor/gates.h"

#include "src/common/exec.h"
#include "src/common/faultpoint.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/monitor/isolation.h"

namespace erebor {

EmcGates::EmcGates(Machine* machine, IsolationBackend* isolation)
    : machine_(machine),
      isolation_(isolation),
      round_trip_cycles_(
          MetricsRegistry::Global().GetHistogram("trace.emc_round_trip_cycles")) {
  saved_views_.resize(machine->num_cpus());
  entry_ts_.resize(machine->num_cpus(), 0);
}

void EmcGates::Install() {
  CodeRegistry& registry = machine_->registry();
  entry_label_ = registry.Register("emc_entry_gate", CodeDomain::kMonitor, /*endbr=*/true);
  exit_return_label_ =
      registry.Register("emc_exit_return", CodeDomain::kMonitor, /*endbr=*/false);
  internal_label_ =
      registry.Register("monitor_internal_fn", CodeDomain::kMonitor, /*endbr=*/false);

  for (int i = 0; i < machine_->num_cpus(); ++i) {
    Cpu& cpu = machine_->cpu(i);
    // Per-core shadow stack, activated by this core's token.
    shadow_stacks_.push_back(
        std::make_unique<ShadowStack>("monitor_ss_cpu" + std::to_string(i)));
    (void)shadow_stacks_.back()->Activate(i);
    cpu.SetShadowStack(shadow_stacks_.back().get());
    // Backend register discipline: CET enables plus the backend's own view
    // install (PKS: CR4.PKS + kernel-mode PKRS; TME-MK: keyID map wiring).
    isolation_->InstallCpu(cpu);
  }
}

Status EmcGates::Enter(Cpu& cpu) {
  // Gate boundaries are the drain points for cross-CPU TLB maintenance under the
  // real-thread engine (the software analogue of taking the shootdown IPI at the
  // next interruptible point). Free when nothing is pending: one relaxed load.
  cpu.DrainTlbInvalidations();
  if (FaultInjector::Armed() &&
      FaultInjector::Global().Fire("gates.enter", FaultAction::kFail)) {
    // Injected transient entry refusal (e.g. the host preempted the vCPU on the
    // very instruction of the indirect branch). No gate state was touched, so the
    // caller can simply retry the crossing.
    return UnavailableError("EAGAIN: injected gate-entry fault");
  }
  // The kernel's instrumented call site branches indirectly to the entry gate; IBT
  // verifies the endbr64 marker.
  EREBOR_RETURN_IF_ERROR(cpu.IndirectBranch(entry_label_));
  // Shadow stack records the return into kernel code for the eventual exit gate ret.
  EREBOR_RETURN_IF_ERROR(cpu.ShadowCall(exit_return_label_));
  // Entry gate body: grant the monitor view, switch stacks, mark monitor context.
  cpu.cycles().Charge(cpu.costs().emc_round_trip / 2);
  isolation_->GateEnter(cpu);
  cpu.SetMonitorContext(true);
  CounterAdd(entries_);
  entry_ts_[cpu.index()] = cpu.cycles().now();
  Tracer::Global().Record(TraceEvent::kEmcEnter, cpu.index(), cpu.cycles().now());
  if (FaultInjector::Armed() &&
      FaultInjector::Global().Fire("gates.enter", FaultAction::kPreempt)) {
    // Adversarial interrupt timing: a host-injected interrupt lands the instant EMC
    // execution begins. The #INT gate must save and revoke the monitor view around
    // the untrusted handler and restore it afterwards — the classic PKU-gate
    // interleaving that invariant checks then verify survived.
    InterruptSave(cpu);
    cpu.cycles().Charge(cpu.costs().int_gate_overhead);  // the handler's work
    InterruptRestore(cpu);
    NoteFaultRecovered();
  }
  return OkStatus();
}

void EmcGates::Exit(Cpu& cpu) {
  cpu.DrainTlbInvalidations();
  cpu.cycles().Charge(cpu.costs().emc_round_trip - cpu.costs().emc_round_trip / 2);
  if (FaultInjector::Armed()) {
    const FaultDecision decision = FaultInjector::Global().At("gates.exit");
    if (decision.action == FaultAction::kCorrupt) {
      // Simulated gate-register scramble racing the exit sequence (PKRS + S_CET
      // under PKS, S_CET alone under TME-MK — a no-op write in the unfaulted
      // baseline, so it is only modeled on the fault path). The exit gate's
      // unconditional rewrite below must leave the CPU in the exact kernel-mode
      // view regardless; the invariant checker verifies the registers after
      // every injected fault.
      isolation_->ScrambleOnExit(cpu, decision.entropy);
      NoteFaultRecovered();
    }
  }
  isolation_->GateExit(cpu);
  cpu.SetMonitorContext(false);
  // Balanced shadow-stack return; a mismatch would raise #CP.
  (void)cpu.ShadowReturn(exit_return_label_);
  Tracer& tracer = Tracer::Global();
  if (tracer.enabled()) {
    const Cycles now = cpu.cycles().now();
    // Gated time plus both gate halves: comparable to the paper's EMC round trip.
    const Cycles in_monitor = now - entry_ts_[cpu.index()];
    tracer.Record(TraceEvent::kEmcExit, cpu.index(), now, -1, in_monitor);
    round_trip_cycles_->Observe(in_monitor + cpu.costs().emc_round_trip);
  }
}

void EmcGates::InterruptSave(Cpu& cpu) {
  cpu.cycles().Charge(cpu.costs().int_gate_overhead);
  saved_views_[cpu.index()].push_back(isolation_->InterruptViewToken(cpu));
  isolation_->InterruptRevoke(cpu);
  cpu.SetMonitorContext(false);
  Tracer::Global().Record(TraceEvent::kIntGateSave, cpu.index(), cpu.cycles().now(), -1,
                          saved_views_[cpu.index()].size());
}

void EmcGates::InterruptRestore(Cpu& cpu) {
  std::vector<uint64_t>& stack = saved_views_[cpu.index()];
  if (stack.empty()) {
    // Unbalanced restore: nothing was saved on this CPU, so there is no monitor
    // context to return to. Granting the saved-slot view here would let the untrusted
    // OS manufacture a monitor view grant; stay in the kernel view instead.
    MetricsRegistry::Global().Increment("gates.unbalanced_int_restore");
    return;
  }
  const uint64_t restored = stack.back();
  stack.pop_back();
  isolation_->InterruptRestoreView(cpu, restored);
  // A nested restore returns to the *outer interrupt handler's* kernel view, not to
  // the monitor; only the outermost restore re-grants monitor context.
  cpu.SetMonitorContext(isolation_->TokenGrantsMonitor(restored));
  Tracer::Global().Record(TraceEvent::kIntGateRestore, cpu.index(), cpu.cycles().now(),
                          -1, stack.size());
}

}  // namespace erebor
