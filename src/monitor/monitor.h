// EREBOR-MONITOR: the privileged CVM security monitor (paper sections 5-6).
//
// Stage-1 boot: only the firmware and the monitor are loaded and measured (so a remote
// client's quote verification pins the monitor binary). The monitor claims its memory,
// installs PKS keys/CET/gates on every vCPU and arms the sensitive-instruction fence.
// Stage-2 boot: the monitor receives the service provider's kernel image, byte-scans
// all executable sections for sensitive instructions, and loads it only if clean.
//
// At runtime the monitor exposes the gated EMC surface (the kernel's only route to
// privileged operations), enforces the MMU policy, runs the sandbox manager, and
// terminates the attestation-rooted secure channel.
#ifndef EREBOR_SRC_MONITOR_MONITOR_H_
#define EREBOR_SRC_MONITOR_MONITOR_H_

#include <memory>

#include "src/common/function_ref.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/host/vmm.h"
#include "src/kernel/image.h"
#include "src/kernel/kernel.h"
#include "src/monitor/channel.h"
#include "src/monitor/emc_dispatch.h"
#include "src/monitor/emc_ring.h"
#include "src/monitor/gates.h"
#include "src/monitor/isolation.h"
#include "src/monitor/mmu_policy.h"
#include "src/monitor/sandbox.h"
#include "src/monitor/sim_lock.h"

namespace erebor {

// /dev/erebor ioctl commands (the LibOS toolchain and the untrusted proxy use these).
namespace emc_ioctl {
inline constexpr uint64_t kDeclareConfined = 1;  // arg: {va, len}
inline constexpr uint64_t kInput = 2;            // arg: {buf_va, size_inout}
inline constexpr uint64_t kOutput = 3;           // arg: {buf_va, size}
inline constexpr uint64_t kProxyFetch = 5;       // arg: {buf_va, cap} -> returns len
// arg: {buf_va, len}; buf holds concatenated [LE32 packet_len | packet] frames.
// One EMC crossing ingests the whole burst (batched per-session under the
// per-sandbox lock plan) instead of one crossing per packet.
inline constexpr uint64_t kProxyDeliverBatch = 6;
}  // namespace emc_ioctl

// Software side-channel mitigations (paper section 12 "Digital side/covert channel
// mitigations"): optional, off by default, each trading throughput for channel
// bandwidth reduction.
struct MitigationConfig {
  // Rate limiting for sandbox exits: once a sandbox exceeds the budget within a
  // one-second (2.1e9-cycle) window, every further exit pays a stall.
  bool rate_limit_exits = false;
  uint64_t max_exits_per_window = 10'000;
  Cycles exit_stall_cycles = 50'000;

  // Cache/TLB eviction-enforced exiting: flush on every sandbox exit so the kernel
  // cannot probe the sandbox's cache footprint.
  bool flush_on_exit = false;
  Cycles flush_cycles = 30'000;

  // Leakage-free quantized communication intervals: results are released only on
  // fixed interval boundaries, hiding processing time.
  bool quantize_output = false;
  Cycles output_interval = 10'000'000;
};

// MonitorCounters lives in emc_dispatch.h so descriptor rows can name their
// family counter by member pointer.

class EreborMonitor {
 public:
  // `isolation` selects the backend enforcing intra-kernel domain separation
  // (src/monitor/isolation.h): kPks is the paper's design and the default;
  // kTmeMk trades the PKRS gate writes for per-frame keyID bindings and lifts
  // the 11-sandbox domain ceiling to ~2K.
  EreborMonitor(Machine* machine, TdxModule* tdx, HostVmm* host,
                IsolationKind isolation = IsolationKind::kPks);

  // ---- Boot ----
  // arm_fence=false supports the exit-protection-only evaluation ablation, which keeps
  // the kernel's direct privileged execution (not security-complete).
  Status BootStage1(const Bytes& firmware_image, bool arm_fence = true);
  StatusOr<KernelImage> LoadKernelImage(const Bytes& kelf_bytes);  // stage 2
  Status AttachKernel(Kernel* kernel);

  const Bytes& monitor_image() const { return monitor_image_; }
  bool stage1_done() const { return stage1_done_; }

  // Enables the per-vCPU MMU submission/completion rings: the batched MMU
  // updates the paper points to for lowering fork/pagefault costs (section
  // 9.1), with one EMC doorbell draining a whole descriptor window.
  // Off by default so every figure stays bit-identical without rings; see
  // src/monitor/emc_ring.h and DESIGN.md.
  void EnableMmuRings(bool enabled) {
    if (enabled) {
      rings_.Enable(machine_->num_cpus());
    } else {
      rings_.Disable();
    }
  }
  bool mmu_rings() const { return rings_.enabled(); }
  EmcRingTable& rings() { return rings_; }
  EmcRing* mmu_ring(int cpu_index) { return rings_.ring(cpu_index); }

  // Side-channel mitigation configuration (section 12); applies to sealed sandboxes.
  void SetMitigations(const MitigationConfig& config) { mitigations_ = config; }
  const MitigationConfig& mitigations() const { return mitigations_; }

  // EMC locking layer: serializes per sandbox, per monitor state and per frame
  // shard. Contention simulation is opt-in and off by default so every
  // single-vCPU figure stays bit-identical (see sim_lock.h).
  EmcLockTable& locks() { return locks_; }
  void SetLockContention(bool on) { locks_.set_simulate_contention(on); }

  // ---- EMC surface (PrivilegedOps routes here) ----
  Status EmcWritePte(Cpu& cpu, Paddr entry_pa, Pte value);
  Status EmcRegisterPtp(Cpu& cpu, FrameNum frame, Paddr root_pa);
  Status EmcWriteCr(Cpu& cpu, int reg, uint64_t value);
  Status EmcWriteMsr(Cpu& cpu, uint32_t index, uint64_t value);
  Status EmcLoadIdt(Cpu& cpu, const IdtTable* table);
  Status EmcCopyToUser(Cpu& cpu, Vaddr dst, const uint8_t* src, uint64_t len);
  Status EmcCopyFromUser(Cpu& cpu, Vaddr src, uint8_t* dst, uint64_t len);
  Status EmcTdcall(Cpu& cpu, uint64_t leaf, uint64_t* args, size_t nargs);
  Status EmcTextPoke(Cpu& cpu, Paddr code_pa, const uint8_t* bytes, uint64_t len);
  // MMU-ring doorbell: one gate crossing that drains the calling vCPU's
  // submission ring through the dispatch core (emc_ring.cc). Per-descriptor
  // refusals are reported via CQE results; the call itself fails only on
  // structural ring abuse (overflowed window, poisoned ring) or gate refusal.
  Status EmcRingDoorbell(Cpu& cpu);
  // Dynamic kernel code (loadable module / JITed eBPF): the monitor byte-scans the
  // blob, installs it into fresh kernel-text frames (W^X from then on) and returns
  // the load address (paper section 5.2: dynamic code is validated before loading).
  StatusOr<Paddr> EmcLoadKernelModule(Cpu& cpu, const Bytes& code);

  // ---- Sandbox surface ----
  SandboxManager& sandboxes() { return *sandbox_mgr_; }
  StatusOr<Sandbox*> CreateSandbox(Task& leader, const SandboxSpec& spec);
  Status DeclareConfined(Cpu& cpu, Sandbox& sandbox, Vaddr va, uint64_t len);
  StatusOr<CommonRegion*> CreateCommonRegion(const std::string& name, uint64_t len);
  Status AttachCommon(Cpu& cpu, Sandbox& sandbox, int region_id, Vaddr va,
                      bool writable_until_seal);
  Status TeardownSandbox(Cpu& cpu, Sandbox& sandbox);
  // Template snapshots + copy-on-write clones (ROADMAP item 2; sandbox.h).
  Status SnapshotTemplate(Cpu& cpu, Sandbox& sandbox);
  StatusOr<Sandbox*> CloneSandbox(Cpu& cpu, Task& leader, Sandbox& tmpl,
                                  const SandboxSpec& spec);
  Status ActivateClone(Cpu& cpu, Sandbox& sandbox);

  // ---- Attestation + channel (driven by the untrusted proxy) ----
  // The only way client data reaches a sandbox, and results leave it. Batched
  // ingest: one gated EMC round trip for a burst of packets. Control packets
  // (hello/fin) are handled first in arrival order, then data records are
  // grouped per target sandbox and each group is ingested under a single
  // acquisition of that sandbox's lock, so concurrent sessions on different
  // vCPUs do not contend. Every packet is processed; the first failure (if any)
  // is returned at the end.
  Status ProxyDeliverBatch(Cpu& cpu, const std::vector<Bytes>& wires);
  // Pops the next outbound wire packet across all sandboxes (empty = none).
  // source_sandbox_out (optional) receives the owning sandbox id, so a failed
  // copy-out can requeue the packet and a caller can route it to its client.
  StatusOr<Bytes> ProxyFetch(Cpu& cpu, int* source_sandbox_out = nullptr);

  // Walks the frame table and live mappings and verifies the global protection
  // invariants (single-mapped confined frames, keyed monitor/PTP/text mappings,
  // kernel W^X). Used as a test oracle and a debugging aid; returns the first
  // violation found.
  Status AuditInvariants();

  const MonitorCounters& counters() const { return counters_; }
  // Registry view of the same counters (every MonitorCounters field is registered as
  // an external cell under "monitor.<field>") plus monitor-owned histograms. The
  // struct accessor above stays the hot-path API; the registry is the export surface.
  MetricsRegistry& metrics() { return metrics_; }
  FrameTable& frame_table() { return *frame_table_; }
  MmuPolicy& policy() { return *policy_; }
  IsolationBackend& isolation() { return *isolation_; }
  const IsolationBackend& isolation() const { return *isolation_; }
  EmcGates& gates() { return *gates_; }
  Machine& machine() { return *machine_; }
  TdxModule& tdx() { return *tdx_; }
  Kernel* attached_kernel() { return kernel_; }

 private:
  friend class EmcPrivOps;

  // The single gated-dispatch path (emc_dispatch.cc): family counter, fault
  // point, gate entry with bounded transient retry, lock acquisition, cycle
  // charge, emc_total bump, trace emission, and argument validation — exactly
  // once per EMC, driven by the descriptor table row for `call.op`. `body` is
  // a non-owning reference: it runs at most once, inside the call, and is
  // never stored, so callers pass a stack lambda and nothing is allocated.
  Status EmcDispatch(Cpu& cpu, const EmcCall& call, FunctionRef<Status()> body);

  // Counts a policy denial and emits its trace event.
  void NoteDenial(Cpu& cpu);

  // Shared EMC bodies (locks held by the dispatcher): the synchronous EMCs and
  // the ring drain run the identical policy/apply sequence through these.
  // `deferred` non-null defers TLB shootdowns into the batch for coalescing
  // (ring drains); null keeps the immediate per-write shootdown.
  Status WritePteBodyLocked(Cpu& cpu, Paddr entry_pa, Pte value,
                            TlbShootdownBatch* deferred);
  Status RegisterPtpBodyLocked(Cpu& cpu, FrameNum frame, Paddr root_pa);

  // Ring drain internals (emc_ring.cc).
  Status DrainRingLocked(Cpu& cpu, RingState& rs, const std::vector<RingSqe>& window,
                         uint32_t cq_head_snapshot, uint32_t* strikes_out);
  void RingPostStrikes(Cpu& cpu, RingState& rs, uint32_t strikes);
  // Quarantine fence (emc_ring.cc): flushes every ring bound to the sandbox —
  // in-flight SQEs complete with error CQEs (where the CQ has room) and the ring
  // is poisoned — so no descriptor staged before the quarantine can be applied
  // against frames the teardown scrub is about to release. Installed as the
  // SandboxManager quarantine hook.
  void FenceRingsOnQuarantine(Cpu& cpu, Sandbox& sandbox);

  // ioctl dispatch for /dev/erebor.
  StatusOr<uint64_t> DeviceIoctl(SyscallContext& ctx, Task& task, uint64_t cmd,
                                 Vaddr arg_va);

  // Guest-memory access for monitor use (privileged; no SMAP constraints) on
  // behalf of a task running on `cpu`. Each page translates through `cpu`'s
  // cached user translation when its TLB holds one (the task usually just wrote
  // the bytes), else by a walk from `aspace`'s root. The probe counts and fills
  // nothing, so TLB statistics do not depend on whether it hit.
  Status ReadGuest(Cpu& cpu, const AddressSpace& aspace, Vaddr va, uint8_t* out,
                   uint64_t len);
  Status WriteGuest(Cpu& cpu, const AddressSpace& aspace, Vaddr va, const uint8_t* data,
                    uint64_t len);

  StatusOr<uint64_t> CachedCpuid(Cpu& cpu, uint32_t leaf, bool allow_hypercall);
  StatusOr<TdQuote> GenerateQuote(Cpu& cpu, const std::array<uint8_t, 64>& report_data);

  Status HandleHello(Cpu& cpu, const Packet& packet);
  Status HandleFin(Cpu& cpu, const Packet& packet);
  // Record admission + authenticate-then-decrypt for one data record; the caller
  // holds the target sandbox's lock (so a batch can amortize one acquisition
  // across a whole per-sandbox group).
  Status IngestDataRecordLocked(Cpu& cpu, Sandbox& sandbox, const RecordView& view);

  Machine* machine_;
  TdxModule* tdx_;
  HostVmm* host_;
  Kernel* kernel_ = nullptr;

  Bytes monitor_image_;
  std::unique_ptr<FrameTable> frame_table_;
  std::unique_ptr<IsolationBackend> isolation_;
  std::unique_ptr<MmuPolicy> policy_;
  std::unique_ptr<EmcGates> gates_;
  std::unique_ptr<SandboxManager> sandbox_mgr_;
  MonitorCounters counters_;
  MetricsRegistry metrics_;
  EmcLockTable locks_;
  EmcRingTable rings_;
  Rng rng_;

  const IdtTable* approved_idt_ = nullptr;
  CodeLabelId kernel_syscall_entry_ = kInvalidCodeLabel;
  CodeLabelId monitor_syscall_stub_ = kInvalidCodeLabel;
  std::map<uint32_t, uint64_t> cpuid_cache_;
  Paddr scratch_pa_ = 0;  // monitor-region scratch page for tdcall buffers

  // Applies the configured exit mitigations for one sealed-sandbox exit.
  void ApplyExitMitigations(Cpu& cpu, Sandbox& sandbox);
  // Forced huge-page splitting (gate must be held; see EmcWritePte).
  Status SplitHugePageLocked(Cpu& cpu, Paddr entry_pa, Pte huge_value);

  bool stage1_done_ = false;
  bool kernel_loaded_ = false;
  MitigationConfig mitigations_;
};

// PrivilegedOps backend that routes every sensitive operation through the monitor's
// EMC gates (the instrumented kernel build).
class EmcPrivOps : public PrivilegedOps {
 public:
  explicit EmcPrivOps(EreborMonitor* monitor) : monitor_(monitor) {}

  Status WritePte(Cpu& cpu, Paddr entry_pa, Pte value) override {
    return monitor_->EmcWritePte(cpu, entry_pa, value);
  }
  Status RegisterPtp(Cpu& cpu, FrameNum frame, Paddr root_pa) override {
    return monitor_->EmcRegisterPtp(cpu, frame, root_pa);
  }
  Status WriteCr(Cpu& cpu, int reg, uint64_t value) override {
    return monitor_->EmcWriteCr(cpu, reg, value);
  }
  Status WriteMsr(Cpu& cpu, uint32_t index, uint64_t value) override {
    return monitor_->EmcWriteMsr(cpu, index, value);
  }
  Status LoadIdt(Cpu& cpu, const IdtTable* table) override {
    return monitor_->EmcLoadIdt(cpu, table);
  }
  Status CopyToUser(Cpu& cpu, Vaddr dst, const uint8_t* src, uint64_t len) override {
    return monitor_->EmcCopyToUser(cpu, dst, src, len);
  }
  Status CopyFromUser(Cpu& cpu, Vaddr src, uint8_t* dst, uint64_t len) override {
    return monitor_->EmcCopyFromUser(cpu, src, dst, len);
  }
  Status Tdcall(Cpu& cpu, uint64_t leaf, uint64_t* args, size_t nargs) override {
    return monitor_->EmcTdcall(cpu, leaf, args, nargs);
  }
  Status TextPoke(Cpu& cpu, Paddr code_pa, const uint8_t* bytes, uint64_t len) override {
    return monitor_->EmcTextPoke(cpu, code_pa, bytes, len);
  }
  Status RingDoorbell(Cpu& cpu) override { return monitor_->EmcRingDoorbell(cpu); }
  EmcRing* mmu_ring(int cpu_index) override {
    return monitor_->mmu_ring(cpu_index);
  }
  uint64_t emc_count() const override { return monitor_->counters().emc_total; }

 private:
  EreborMonitor* monitor_;
};

// Builds the monitor's own binary image (measured in stage 1; contains the gate code
// with its legitimate sensitive instructions).
Bytes BuildMonitorImage();

}  // namespace erebor

#endif  // EREBOR_SRC_MONITOR_MONITOR_H_
