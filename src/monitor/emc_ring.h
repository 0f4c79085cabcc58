// Monitor-side MMU-ring state (the trusted half of src/kernel/mmu_ring.h).
//
// The monitor owns one RingState per vCPU: the shared EmcRing pair itself plus
// private shadow copies of the indexes it controls. The kernel-visible sq_head
// and cq_tail are *published copies* of the shadows — the monitor never reads
// its own progress back out of shared memory, so a kernel that scribbles over
// the published fields only corrupts its own view. Hostile-shaped submissions
// (overflowed windows, forged sandbox ids, span overruns, overlapping targets)
// are strike-counted; at kStrikeLimit the ring is poisoned (every further
// doorbell refused) and the bound sandbox, if any, is quarantined.
//
// The drain itself — EreborMonitor::EmcRingDoorbell — lives in emc_ring.cc and
// runs entirely inside the table-driven dispatch core (one EmcOp::kRingDoorbell
// gate crossing; per-descriptor Table-4 charging, tracing, and validation).
#ifndef EREBOR_SRC_MONITOR_EMC_RING_H_
#define EREBOR_SRC_MONITOR_EMC_RING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/kernel/mmu_ring.h"

namespace erebor {

// Monitor-private per-vCPU ring state. Everything outside `ring` is
// monitor-owned and never exposed to the kernel.
struct RingState {
  EmcRing ring;

  // Monitor-owned progress; published to ring.sq_head / ring.cq_tail after
  // each drain.
  uint32_t shadow_sq_head = 0;
  uint32_t shadow_cq_tail = 0;

  // Lock-plan binding: descriptors on this ring may only name this sandbox
  // (-1 = the kernel's own ring, no sandbox lock). A drain takes this
  // sandbox's lock, so concurrent per-sandbox rings on different vCPUs never
  // serialize against each other.
  int32_t bound_sandbox = -1;

  // Hostile-submission accounting.
  uint32_t strikes = 0;
  bool poisoned = false;

  // Drain statistics (audited by the ring invariant family).
  uint64_t doorbells = 0;
  uint64_t applied = 0;
  uint64_t rejected = 0;
};

// The per-vCPU ring table. Disabled (empty) by default; EnableMmuRings sizes
// it to the machine. Rings are identified by vCPU index.
class EmcRingTable {
 public:
  // Strikes before a ring is poisoned; matches SandboxSpec::max_fault_strikes.
  static constexpr uint32_t kStrikeLimit = 8;

  void Enable(int num_cpus) {
    states_.clear();
    for (int i = 0; i < num_cpus; ++i) {
      states_.push_back(std::make_unique<RingState>());
    }
  }
  void Disable() { states_.clear(); }
  bool enabled() const { return !states_.empty(); }
  int size() const { return static_cast<int>(states_.size()); }

  RingState* state(int cpu) {
    if (cpu < 0 || cpu >= size()) {
      return nullptr;
    }
    return states_[static_cast<size_t>(cpu)].get();
  }
  const RingState* state(int cpu) const {
    if (cpu < 0 || cpu >= size()) {
      return nullptr;
    }
    return states_[static_cast<size_t>(cpu)].get();
  }
  EmcRing* ring(int cpu) {
    RingState* rs = state(cpu);
    return rs == nullptr ? nullptr : &rs->ring;
  }

  // Binds a vCPU's ring to a sandbox id for lock planning and forged-id
  // rejection. -1 restores the kernel binding.
  Status BindSandbox(int cpu, int32_t sandbox_id) {
    RingState* rs = state(cpu);
    if (rs == nullptr) {
      return FailedPreconditionError("MMU rings are not enabled");
    }
    rs->bound_sandbox = sandbox_id;
    return OkStatus();
  }

 private:
  std::vector<std::unique_ptr<RingState>> states_;
};

}  // namespace erebor

#endif  // EREBOR_SRC_MONITOR_EMC_RING_H_
