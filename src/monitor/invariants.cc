#include "src/monitor/invariants.h"

#include <algorithm>
#include <set>

#include "src/common/metrics.h"
#include "src/monitor/gates.h"
#include "src/monitor/monitor.h"

namespace erebor {

void InvariantChecker::AddSecret(const Bytes& pattern) {
  if (!pattern.empty()) {
    secrets_.push_back(pattern);
  }
}

Status InvariantChecker::CheckAll() {
  ++checks_run_;
  MetricsRegistry::Global().Increment("invariants.checks");
  for (Status st :
       {CheckFrames(), CheckGates(), CheckSecrets(), CheckLocks(), CheckRings(),
        CheckQuarantine(), CheckDomains()}) {
    if (!st.ok()) {
      ++violations_;
      MetricsRegistry::Global().Increment("invariants.violations");
      return st;
    }
  }
  return OkStatus();
}

Status InvariantChecker::CheckFrames() { return monitor_->AuditInvariants(); }

Status InvariantChecker::CheckGates() {
  if (!monitor_->stage1_done()) {
    return OkStatus();  // gates not installed yet: nothing to hold
  }
  Machine& machine = monitor_->machine();
  const EmcGates& gates = monitor_->gates();
  for (int i = 0; i < machine.num_cpus(); ++i) {
    const Cpu& cpu = machine.cpu(i);
    // At a safe point no CPU is mid-gate, so every #INT-gate save must be balanced by
    // its restore; a leftover entry means an exit path skipped PKRS restoration.
    if (gates.interrupt_depth(i) != 0) {
      return InternalError("cpu " + std::to_string(i) + " has " +
                           std::to_string(gates.interrupt_depth(i)) +
                           " unbalanced #INT-gate PKRS saves");
    }
    // Backend register audit (PKS: PKRS == KernelModePkrs(); TME-MK: no CPU may
    // still hold the keyID-exempt monitor context).
    EREBOR_RETURN_IF_ERROR(monitor_->isolation().AuditCpu(cpu));
    const auto scet = cpu.ReadMsr(msr::kIa32SCet);
    const uint64_t cet_required = msr::kCetIbtEn | msr::kCetShstkEn;
    if (scet.ok() && (*scet & cet_required) != cet_required) {
      return InternalError("cpu " + std::to_string(i) +
                           " S_CET lost IBT/shadow-stack enables");
    }
  }
  return OkStatus();
}

Status InvariantChecker::CheckLocks() {
  const LockAudit& audit = LockAudit::Global();
  if (audit.ordering_violations() != 0) {
    return InternalError(std::to_string(audit.ordering_violations()) +
                         " lock-ordering violations recorded");
  }
  if (audit.unheld_violations() != 0) {
    return InternalError(std::to_string(audit.unheld_violations()) +
                         " sandbox/frame mutations without the covering lock");
  }
  Machine& machine = monitor_->machine();
  for (int i = 0; i < machine.num_cpus(); ++i) {
    if (!audit.NothingHeld(i)) {
      return InternalError("cpu " + std::to_string(i) +
                           " still holds an EMC lock at a safe point");
    }
  }
  return OkStatus();
}

Status InvariantChecker::CheckRings() {
  EmcRingTable& rings = monitor_->rings();
  for (int i = 0; i < rings.size(); ++i) {
    const RingState* rs = rings.state(i);
    if (rs == nullptr) {
      continue;
    }
    const std::string who = "ring " + std::to_string(i);
    // The published indexes are copies of the shadows; the monitor never reads
    // them back, so any divergence means a drain path skipped its publish (or
    // monitor state itself was corrupted — either way a violation).
    if (rs->ring.sq_head.load(std::memory_order_relaxed) != rs->shadow_sq_head) {
      return InternalError(who + ": published sq_head diverged from the shadow");
    }
    if (rs->ring.cq_tail.load(std::memory_order_relaxed) != rs->shadow_cq_tail) {
      return InternalError(who + ": published cq_tail diverged from the shadow");
    }
    // The monitor must never post more completions than the ring holds beyond
    // what it has seen consumed (cq_head is untrusted, so clamp-check only the
    // monitor-owned half: completions never exceed consumed submissions).
    const uint64_t completions = rs->shadow_cq_tail;
    const uint64_t consumed = rs->shadow_sq_head;
    if (completions > consumed) {
      return InternalError(who + ": more completions posted than SQEs consumed");
    }
    // Drain accounting balances: every applied or rejected descriptor consumed
    // at least one SQE (spans consume more).
    if (rs->applied + rs->rejected > consumed) {
      return InternalError(who + ": applied+rejected exceeds consumed SQEs");
    }
    // A ring at the strike limit must be poisoned — an unpoisoned ring past the
    // limit means a strike path forgot containment.
    if (rs->strikes >= EmcRingTable::kStrikeLimit && !rs->poisoned) {
      return InternalError(who + ": strike limit reached but ring not poisoned");
    }
  }
  return OkStatus();
}

Status InvariantChecker::CheckQuarantine() {
  EmcRingTable& rings = monitor_->rings();
  for (const auto& sandbox : monitor_->sandboxes().sandboxes()) {
    if (sandbox == nullptr || sandbox->state != SandboxState::kQuarantined) {
      continue;
    }
    const std::string who = "quarantined sandbox " + std::to_string(sandbox->id);
    // The teardown scrub must have left nothing deliverable: a stashed reorder
    // record or a queued outbound wire here would be ciphertext under destroyed
    // keys at best, and a use-after-scrub at worst.
    if (sandbox->session.recv.stashed() != 0) {
      return InternalError(who + ": undelivered reorder-buffer records survive");
    }
    if (!sandbox->input_plaintext.empty()) {
      return InternalError(who + ": undelivered input plaintext survives");
    }
    if (!sandbox->outbound_wire.empty()) {
      return InternalError(who + ": undelivered outbound records survive");
    }
    if (!sandbox->confined_ranges.empty()) {
      return InternalError(who + ": confined frames were not released");
    }
    // No live ring slots: any ring still bound to the sandbox must be poisoned
    // (nothing staged there can ever be applied) and its pre-quarantine window
    // fully consumed — an unpoisoned binding would keep accepting doorbells
    // against released frames.
    for (int i = 0; i < rings.size(); ++i) {
      const RingState* rs = rings.state(i);
      if (rs == nullptr || rs->bound_sandbox != sandbox->id) {
        continue;
      }
      if (!rs->poisoned) {
        return InternalError(who + ": ring " + std::to_string(i) +
                             " is still bound and not poisoned");
      }
    }
  }
  return OkStatus();
}

Status InvariantChecker::CheckDomains() {
  const IsolationBackend& iso = monitor_->isolation();
  uint64_t live = 0;
  std::set<uint32_t> tags;
  for (const auto& sandbox : monitor_->sandboxes().sandboxes()) {
    if (sandbox == nullptr) {
      continue;
    }
    const std::string who = "sandbox " + std::to_string(sandbox->id);
    if (sandbox->state == SandboxState::kInitializing ||
        sandbox->state == SandboxState::kSealed) {
      // Templates and unpromoted (domain-deferred) warm clones legitimately
      // hold no domain: a parked pool must not consume the backend's budget.
      if (sandbox->is_template || sandbox->domain_deferred) {
        if (sandbox->domain_tag != 0) {
          return InternalError(who + (sandbox->is_template
                                          ? " is a template but holds domain tag "
                                          : " is domain-deferred but holds tag ") +
                               std::to_string(sandbox->domain_tag));
        }
        continue;
      }
      ++live;
      if (sandbox->domain_tag == 0) {
        return InternalError(who + " is live without an isolation domain");
      }
      if (!tags.insert(sandbox->domain_tag).second) {
        return InternalError(who + " shares isolation domain tag " +
                             std::to_string(sandbox->domain_tag) +
                             " with another live sandbox");
      }
      if (iso.DomainTagOf(sandbox->id) != sandbox->domain_tag) {
        return InternalError(who + " domain tag diverged from the backend's record");
      }
    } else if (sandbox->domain_tag != 0) {
      return InternalError(who + " was torn down but still holds domain tag " +
                           std::to_string(sandbox->domain_tag));
    }
  }
  if (live != iso.sandbox_domains_in_use()) {
    return InternalError("isolation-domain leak: " + std::to_string(live) +
                         " live sandboxes but " +
                         std::to_string(iso.sandbox_domains_in_use()) +
                         " domains in use at the backend");
  }
  if (live > iso.max_sandbox_domains()) {
    return InternalError("more live sandboxes than the backend's domain budget");
  }
  return OkStatus();
}

Status InvariantChecker::CheckSecrets() {
  if (secrets_.empty()) {
    return OkStatus();
  }
  PhysMemory& memory = monitor_->machine().memory();
  FrameTable& frames = monitor_->frame_table();
  for (FrameNum frame = 0; frame < frames.size(); ++frame) {
    if (frames.info(frame).type == FrameType::kSandboxConfined) {
      continue;  // the one place plaintext is allowed to live
    }
    const uint8_t* data = memory.FramePtrIfPresent(frame);
    if (data == nullptr) {
      continue;  // never materialized: trivially clean
    }
    for (const Bytes& secret : secrets_) {
      if (secret.size() > kPageSize) {
        continue;
      }
      const uint8_t* end = data + kPageSize;
      if (std::search(data, end, secret.begin(), secret.end()) != end) {
        return InternalError("plaintext client secret found in " +
                             FrameTypeName(frames.info(frame).type) + " frame " +
                             std::to_string(frame));
      }
    }
  }
  return OkStatus();
}

}  // namespace erebor
