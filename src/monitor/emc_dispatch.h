// Table-driven EMC dispatch core (paper sections 5.3 and 9, Tables 3/4).
//
// Every EMC — the kernel's only route into privileged operations — is described
// by one row of a static descriptor table: its name (which doubles as the
// fault-point site), Table-4 unit cycle cost, trace event, family counter,
// gate/lock requirements, and argument validator. EreborMonitor::EmcDispatch()
// is the single path that consumes a row: entry-gate accounting (with the
// bounded transient-refusal retry), lock acquisition, cycle charging, the
// emc_total bump, trace emission, fault-point arming, and argument validation
// happen exactly once there — no handler body duplicates any of it.
//
// The table is the auditable inventory of the monitor's attack surface: a new
// EMC cannot ship without a cost, a trace event, a fault site, and a validator
// (tests/emc_dispatch_test.cc enforces completeness against PrivilegedOps).
#ifndef EREBOR_SRC_MONITOR_EMC_DISPATCH_H_
#define EREBOR_SRC_MONITOR_EMC_DISPATCH_H_

#include <array>
#include <cstdint>

#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/hw/cycles.h"
#include "src/hw/types.h"

namespace erebor {

struct MonitorCounters {
  uint64_t emc_total = 0;
  uint64_t emc_pte = 0;
  uint64_t emc_ptp_register = 0;
  uint64_t emc_cr = 0;
  uint64_t emc_msr = 0;
  uint64_t emc_idt = 0;
  uint64_t emc_usercopy = 0;
  uint64_t emc_tdcall = 0;
  uint64_t emc_text_poke = 0;
  uint64_t emc_sandbox = 0;
  uint64_t policy_denials = 0;
  uint64_t sandbox_kills = 0;
  uint64_t scrubbed_interrupts = 0;
  uint64_t cached_cpuid_hits = 0;
  // Mitigation activity.
  uint64_t exit_stalls = 0;
  uint64_t cache_flushes = 0;
  uint64_t quantized_outputs = 0;
  uint64_t huge_splits = 0;  // forced huge-page splits (section 7 future work)
  uint64_t tlb_shootdowns = 0;  // monitor-initiated software-TLB shootdowns (all
                                // through MmuPolicy::Shootdown)
  // MMU submission/completion rings (src/monitor/emc_ring.cc).
  uint64_t emc_ring = 0;                   // doorbell crossings (family counter)
  uint64_t ring_descriptors = 0;           // descriptors drained and applied
  uint64_t ring_rejects = 0;               // descriptors refused (structural or policy)
  uint64_t ring_strikes = 0;               // hostile-shaped submissions (strike-counted)
  uint64_t ring_shootdowns_coalesced = 0;  // duplicate shootdowns merged per drain
};

// One value per EMC entry point. The first ten mirror the PrivilegedOps
// virtuals; the last three are the monitor's own gated surfaces.
enum class EmcOp : uint8_t {
  kWritePte,
  kRegisterPtp,
  kWriteCr,
  kWriteMsr,
  kLoadIdt,
  kCopyToUser,
  kCopyFromUser,
  kTdcall,
  kTextPoke,
  kRingDoorbell,
  kLoadKernelModule,
  kSandboxOp,   // declare-confined / attach-common / teardown
  kChannelOp,   // packet delivery/fetch + shepherd data movement
  kCount,
};

// Flat argument view shared by every validator (a union would hide misuse; the
// fields are cheap). Validators are pure functions of these values — stateful
// policy checks stay in the handler bodies.
struct EmcArgs {
  Paddr entry_pa = 0;
  uint64_t value = 0;
  int reg = -1;
  uint32_t msr_index = 0;
  uint64_t leaf = 0;
  size_t nargs = 0;
  const void* ptr = nullptr;
  uint64_t len = 0;
  size_t count = 0;
  uint64_t frame = 0;
  Paddr root_pa = 0;
};

struct EmcValidation {
  Status status;
  // True when a failed validation is a *policy denial* (counted and traced as
  // kPolicyDenial, matching the historical per-handler accounting) rather than
  // a plain malformed-argument error.
  bool count_denial = false;
};
using EmcValidator = EmcValidation (*)(const EmcArgs&);

struct EmcDescriptor {
  EmcOp op = EmcOp::kCount;
  const char* name = nullptr;        // "write_pte" — stable identifier
  const char* fault_site = nullptr;  // fault-point site, "emc.<name>"
  TraceEvent trace_event = TraceEvent::kNone;
  // Table-4 unit cost (member pointer so tests can assert identity against
  // src/hw/cycles.h, not just value equality).
  Cycles CycleModel::*unit_cost = nullptr;
  // Per-family counter bumped once per dispatch *call* (before the gate, as the
  // handlers always did); null for ops with no family counter of their own.
  uint64_t MonitorCounters::*family_counter = nullptr;
  // Gate/seal requirements enforced by the dispatcher.
  bool requires_attached_kernel = false;
  // Lock plan, taken in rank order: target sandbox, monitor state, frame shards.
  bool locks_monitor_state = false;
  bool locks_target_sandbox = false;
  bool locks_frame_shards = false;
  EmcValidator validate = nullptr;
};

// Descriptor lookup; the table is indexed by EmcOp and complete by
// construction (a static_assert pins its size to EmcOp::kCount).
const EmcDescriptor& EmcDescriptorFor(EmcOp op);
const std::array<EmcDescriptor, static_cast<size_t>(EmcOp::kCount)>&
EmcDescriptorTable();

// One dispatch request: the op plus its per-call cost shape and lock targets.
struct EmcCall {
  EmcOp op = EmcOp::kCount;
  EmcArgs args;
  // op_cycles = unit * cost_units + extra_cycles, where unit is the descriptor's
  // Table-4 constant unless overridden (EmcTdcall charges 64 for non-report
  // leaves, per the historical accounting).
  uint64_t cost_units = 1;
  Cycles extra_cycles = 0;
  bool has_unit_override = false;
  Cycles unit_override = 0;
  // Lock targets (used when the descriptor's lock plan asks for them).
  int sandbox_id = -1;      // also trace attribution; -1 = not sandbox-bound
  uint64_t shard_mask = 0;  // EmcLockTable frame shards, bit i = shard i
};

}  // namespace erebor

#endif  // EREBOR_SRC_MONITOR_EMC_DISPATCH_H_
