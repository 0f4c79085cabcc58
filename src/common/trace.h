// Cycle-accurate event tracing (observability subsystem).
//
// The paper's performance argument is rate x unit-cost arithmetic over discrete
// events — EMC gate crossings, tdcalls, interrupts, page faults. The tracer records
// those events as POD records in per-CPU fixed-capacity ring buffers so that bench
// tables can be cross-checked against *measured* event streams instead of modeled
// constants. Recording is observational only: it never charges simulated cycles, so
// enabling the tracer does not perturb any benchmark number. With tracing disabled
// the hot-path cost is a single branch.
//
// Enable programmatically (Tracer::Global().Enable()) or via the environment:
//   EREBOR_TRACE=1            enable tracing
//   EREBOR_TRACE_JSON=path    where exporters write the Chrome trace_event JSON
#ifndef EREBOR_SRC_COMMON_TRACE_H_
#define EREBOR_SRC_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace erebor {

using Cycles = uint64_t;  // mirrors src/hw/cycles.h (common/ cannot depend on hw/)

enum class TraceEvent : uint16_t {
  kNone = 0,
  // EMC gate crossings (src/monitor/gates.cc).
  kEmcEnter,
  kEmcExit,
  kIntGateSave,
  kIntGateRestore,
  // EMC dispatch (src/monitor/monitor.cc); payload = gated cycles for the op.
  kEmcPte,
  kEmcPteBatch,  // one MMU-ring kPteSpan (all entries charged together)
  kEmcPtpRegister,
  kEmcCr,
  kEmcMsr,
  kEmcIdt,
  kEmcUserCopy,
  kEmcTdcall,
  kEmcTextPoke,
  kEmcSandboxOp,
  kEmcChannelOp,
  // MMU ring doorbell (src/monitor/emc_ring.cc): one per drained submission
  // window; payload = gated cycles for the doorbell itself (descriptors drained
  // from the ring trace their own per-family events as usual).
  kEmcRingDoorbell,
  kPolicyDenial,
  // TDX module (src/tdx/tdx_module.cc).
  kTdxVmcall,
  kTdxReport,
  kTdxRtmrExtend,
  kTdxMapGpa,
  // Kernel paths (src/kernel/kernel.cc).
  kSyscallEnter,
  kSyscallExit,
  kInterrupt,
  kPageFault,
  kVeExit,
  kContextSwitch,
  // Secure channel (src/monitor/channel.cc + monitor record paths).
  kChannelEncrypt,
  kChannelDecrypt,
  // Software-TLB maintenance (src/hw/tlb). Recorded at the invalidation *sites*
  // unconditionally — even with the TLB disabled — so per-phase trace summaries are
  // deterministic across EREBOR_TLB settings.
  kTlbFlush,
  kTlbInvlpg,
  kTlbShootdown,
  // Fault injection + graceful degradation (src/common/faultpoint.cc and the
  // monitor's quarantine/retry paths).
  kFaultInject,
  kChannelRetry,
  kSandboxQuarantine,
  // Simulated EMC locking (src/monitor/sim_lock.cc): recorded only when a lock
  // acquire actually waits (payload = cycles waited), so uncontended runs emit
  // nothing and stay bit-identical.
  kLockContend,
  kPhaseMark,
  kCount,  // sentinel
};

const char* TraceEventName(TraceEvent event);

// One trace record: POD, fixed size, no ownership.
struct TraceRecord {
  Cycles timestamp = 0;   // the recording vCPU's cycle counter
  uint64_t payload = 0;   // event-specific word (op cycles, syscall nr, fault VA, ...)
  TraceEvent kind = TraceEvent::kNone;
  uint16_t cpu = 0;
  int32_t sandbox_id = -1;  // -1: not sandbox-attributed
};

// Fixed-capacity ring: appends overwrite the oldest record once full. Storage is
// allocated once at construction; Append never allocates. Under the real-thread
// engine a ring is (almost always) appended only by the vCPU thread that owns it,
// but cross-CPU records exist (the fault injector logs on the probing thread), so
// Append serializes through a per-ring mutex when real threads are live — the
// deterministic engine takes the original lock-free path.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void Append(const TraceRecord& record);
  size_t capacity() const { return slots_.size(); }
  size_t size() const;       // records currently retained
  uint64_t total() const { return total_; }  // records ever appended
  uint64_t dropped() const;  // records overwritten by wraparound

  // Visits retained records oldest-to-newest.
  void ForEach(const std::function<void(const TraceRecord&)>& fn) const;

 private:
  void AppendLocked(const TraceRecord& record);

  std::mutex mu_;  // taken only under ExecutionEngine::real_threads()
  std::vector<TraceRecord> slots_;
  size_t head_ = 0;  // next write position
  uint64_t total_ = 0;
};

// Process-global tracer with one ring per CPU. Recording from concurrent vCPU
// threads is safe: per-kind counts are relaxed-atomic bumps, ring growth is
// mutex-guarded with an atomically published ring count (the ring vector's
// backing store is pre-reserved, so peers index it without racing a realloc),
// and exports — taken at safe points after threads join — merge all rings into
// one deterministic stream ordered by (timestamp, cpu).
class Tracer {
 public:
  static constexpr size_t kDefaultCapacityPerCpu = 1 << 16;
  // Fixed upper bound on per-CPU rings, matching LockAudit::kMaxCpus; records
  // from higher CPU indices clamp onto the last ring.
  static constexpr int kMaxRingCpus = 64;

  static Tracer& Global();

  bool enabled() const { return enabled_; }
  void Enable(size_t capacity_per_cpu = kDefaultCapacityPerCpu);
  // Honors EREBOR_TRACE / EREBOR_TRACE_JSON; returns whether tracing is now enabled.
  bool EnableFromEnv();
  void Disable();
  // Drops all records, per-kind counts, and phase marks; keeps enablement.
  void Reset();

  const std::string& json_path() const { return json_path_; }
  void set_json_path(const std::string& path) { json_path_ = path; }

  // The hot-path entry: one branch when disabled, no cycle charging ever.
  void Record(TraceEvent kind, int cpu, Cycles timestamp, int32_t sandbox_id = -1,
              uint64_t payload = 0) {
    if (!enabled_) {
      return;
    }
    RecordSlow(kind, cpu, timestamp, sandbox_id, payload);
  }

  // Starts a named phase; the summary table breaks event counts down per phase.
  void MarkPhase(const std::string& name, Cycles timestamp = 0);

  // Running per-kind counts across all CPUs (monotonic while enabled; survive ring
  // wraparound, so they are exact even when old records were overwritten).
  uint64_t CountKind(TraceEvent kind) const;
  uint64_t TotalEvents() const;

  int num_rings() const {
    return static_cast<int>(num_rings_.load(std::memory_order_acquire));
  }
  const TraceRing* ring(int cpu) const;

  // ---- Exporters ----
  // All retained records across rings, merged deterministically: stable-sorted by
  // (timestamp, cpu), so two runs that recorded the same per-CPU streams export
  // the same sequence regardless of host-thread interleaving.
  std::vector<TraceRecord> MergedRecords() const;
  // Chrome trace_event JSON ("ts" is in simulated cycles, not microseconds; load via
  // chrome://tracing or Perfetto). EMC gates and syscalls export as B/E duration
  // pairs; everything else as instant events. Emits MergedRecords() order.
  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;
  // Plain-text per-phase count table.
  std::string SummaryTable() const;

 private:
  Tracer() = default;
  void RecordSlow(TraceEvent kind, int cpu, Cycles timestamp, int32_t sandbox_id,
                  uint64_t payload);

  struct PhaseMark {
    std::string name;
    std::vector<uint64_t> counts_at_mark;  // snapshot of counts_
  };

  TraceRing* RingFor(int cpu);

  bool enabled_ = false;
  size_t capacity_per_cpu_ = kDefaultCapacityPerCpu;
  std::string json_path_;
  // Ring growth: push_back under rings_mu_, then publish via num_rings_
  // (release); readers acquire-load the count before indexing. The vector is
  // reserved to kMaxRingCpus at Reset() so the backing store never reallocates
  // under a concurrent reader.
  std::mutex rings_mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::atomic<size_t> num_rings_{0};
  // Per-kind counts: fixed-size vector, relaxed-atomic bumps via CounterAdd.
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(
      static_cast<size_t>(TraceEvent::kCount), 0);
  std::vector<PhaseMark> phases_;
};

}  // namespace erebor

#endif  // EREBOR_SRC_COMMON_TRACE_H_
