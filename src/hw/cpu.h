// Simulated virtual CPU.
//
// The Cpu enforces, on every checked access, the architectural protections the paper's
// monitor relies on: page-table permissions (P/W/U, NX), CR0.WP, SMEP/SMAP (with the
// RFLAGS.AC stac/clac window), supervisor protection keys (PKS via IA32_PKRS), CET IBT
// on indirect branches, and #GP on privileged instructions from user mode. Sensitive
// privileged instructions (Table 2 of the paper: mov-CR, wrmsr, stac, lidt, tdcall) are
// additionally gated by the "sensitive-instruction fence", which models the combined
// effect of the monitor's boot-time byte scan + W^X + SMEP: once Erebor is active, only
// monitor-context code can execute them.
#ifndef EREBOR_SRC_HW_CPU_H_
#define EREBOR_SRC_HW_CPU_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/hw/cet.h"
#include "src/hw/cycles.h"
#include "src/hw/isolation.h"
#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/hw/tlb.h"
#include "src/hw/types.h"

namespace erebor {

// General-purpose register file. Workloads park secrets here so tests can verify the
// monitor's register scrubbing at interrupts (paper section 6.2).
struct Gprs {
  std::array<uint64_t, 16> reg{};

  void Clear() { reg.fill(0); }
  bool IsClear() const {
    for (uint64_t r : reg) {
      if (r != 0) {
        return false;
      }
    }
    return true;
  }
};

// Model-specific registers used by the simulation (real x86 indices).
namespace msr {
inline constexpr uint32_t kIa32Pkrs = 0x6E1;
inline constexpr uint32_t kIa32SCet = 0x6A2;
inline constexpr uint32_t kIa32Pl0Ssp = 0x6A4;
inline constexpr uint32_t kIa32Lstar = 0xC0000082;
inline constexpr uint32_t kIa32UintrTt = 0x985;
inline constexpr uint32_t kIa32ApicTimer = 0x832;  // simulated timer period control

// IA32_S_CET bits.
inline constexpr uint64_t kCetShstkEn = 1ULL << 0;
inline constexpr uint64_t kCetIbtEn = 1ULL << 2;
// IA32_UINTR_TT valid bit.
inline constexpr uint64_t kUintrTtValid = 1ULL << 0;
}  // namespace msr

// Control-register bits.
namespace cr {
inline constexpr uint64_t kCr0Wp = 1ULL << 16;
inline constexpr uint64_t kCr4Smep = 1ULL << 20;
inline constexpr uint64_t kCr4Smap = 1ULL << 21;
inline constexpr uint64_t kCr4Pks = 1ULL << 24;
inline constexpr uint64_t kCr4Cet = 1ULL << 23;
}  // namespace cr

// PKRS permission helpers: 2 bits per key, AD (access-disable) then WD (write-disable).
namespace pkrs {
inline constexpr uint64_t Ad(uint8_t key) { return 1ULL << (2 * key); }
inline constexpr uint64_t Wd(uint8_t key) { return 1ULL << (2 * key + 1); }
inline constexpr uint64_t DenyAll(uint8_t key) { return Ad(key) | Wd(key); }
inline constexpr uint64_t DenyWrite(uint8_t key) { return Wd(key); }
}  // namespace pkrs

// Interrupt descriptor table: 256 gates, each a code label (the label's callback is
// looked up in the machine-wide handler map at delivery).
struct IdtTable {
  std::array<CodeLabelId, 256> gate{};
};

class Cpu;
using FaultHandler = std::function<void(Cpu&, const Fault&)>;

// One queued cross-CPU TLB maintenance operation. Under the real-thread engine a
// CPU never writes a peer's Tlb directly (that is a data race against the peer's
// own lookups); it posts one of these to the peer's pending queue instead, and
// the peer drains at its next EMC gate boundary — the software analogue of an
// IPI-based shootdown where the handler runs at the next interruptible point.
struct TlbInvalidation {
  enum class Kind : uint8_t {
    kRoot,   // address-space teardown: all entries under root
    kEntry,  // shootdown by PTE physical address
  };
  Kind kind = Kind::kEntry;
  Paddr root = 0;
  Paddr entry_pa = 0;
};

// Outcome of Cpu::CheckAccess: allowed (kNone), or the first architectural check
// the access fails with the #PF error bits that check contributes. Plain data: the
// diagnostic text, including the keyed PKS/TME-MK messages, is formatted only when
// a denial is turned into a Status/Fault.
struct AccessDenial {
  enum class Reason : uint8_t {
    kNone,
    kUserSupervisorPage,  // user access to a supervisor page
    kUserReadOnly,        // user write to a read-only page
    kShadowStackWrite,    // supervisor write to a shadow-stack page
    kNoExecute,           // execute of an NX page (either mode)
    kSmep,                // supervisor execute of a user page
    kSmap,                // supervisor data access to a user page, AC clear
    kPksAccessDisabled,   // PKRS.AD set for the page's key
    kPksWriteDisabled,    // PKRS.WD set for the page's key, write access
    kWriteProtect,        // supervisor write to a read-only page, CR0.WP set
    kKeyIdMismatch,       // TME-MK mapping keyID != frame binding
  };
  Reason reason = Reason::kNone;
  uint64_t error_bits = 0;  // pf_err::kPresent plus kProtectionKey/kShadowStack

  bool denied() const { return reason != Reason::kNone; }
};

// tdcall sink: implemented by the TDX module, installed by the machine.
class TdcallSink {
 public:
  virtual ~TdcallSink() = default;
  // Returns the tdcall result (leaf-specific payload handled by the tdx module).
  virtual Status Tdcall(Cpu& cpu, uint64_t leaf, uint64_t* args, size_t nargs) = 0;
};

class Cpu {
 public:
  Cpu(int index, PhysMemory* memory, CodeRegistry* registry, const CycleModel* costs);

  int index() const { return index_; }
  PhysMemory& memory() { return *memory_; }
  CodeRegistry& registry() { return *registry_; }
  const CycleModel& costs() const { return *costs_; }
  CycleCounter& cycles() { return cycles_; }
  const CycleCounter& cycles() const { return cycles_; }
  Gprs& gprs() { return gprs_; }

  CpuMode mode() const { return mode_; }
  void SetMode(CpuMode mode) {
    mode_ = mode;
    ++state_epoch_;
  }

  // ---- Control registers ----
  uint64_t cr0() const { return cr0_; }
  uint64_t cr3() const { return cr3_; }
  uint64_t cr4() const { return cr4_; }
  Status WriteCr0(uint64_t value);
  Status WriteCr3(uint64_t value);
  Status WriteCr4(uint64_t value);

  // ---- MSRs ----
  StatusOr<uint64_t> ReadMsr(uint32_t index) const;
  Status WriteMsr(uint32_t index, uint64_t value);
  // IA32_PKRS and the IA32_S_CET enable bits are read on every translation /
  // indirect branch and written on every gate crossing, so they live only in
  // their own members; the MSR map holds every other register.
  uint64_t pkrs() const { return pkrs_; }
  uint64_t s_cet() const { return s_cet_; }

  // ---- SMAP window ----
  Status Stac();
  Status Clac();
  bool ac_flag() const { return ac_flag_; }

  // ---- IDT ----
  Status Lidt(const IdtTable* table);
  const IdtTable* idt() const { return idt_; }

  // ---- tdcall ----
  Status Tdcall(uint64_t leaf, uint64_t* args, size_t nargs);
  void SetTdcallSink(TdcallSink* sink) { tdcall_sink_ = sink; }

  // ---- Sensitive-instruction fence (see file comment) ----
  void EnableSensitiveFence() { fence_enabled_ = true; }
  bool fence_enabled() const { return fence_enabled_; }
  void SetMonitorContext(bool in_monitor) {
    in_monitor_ = in_monitor;
    ++state_epoch_;
  }
  bool in_monitor() const { return in_monitor_; }

  // ---- TME-MK keyID enforcement ----
  // When a KeyIdMap is attached (TME-MK worlds only), every checked access
  // compares the mapping's keyID against the accessed frame's binding; the
  // monitor context is exempt (its accesses carry the monitor's keyID by
  // construction). PKS worlds leave this null and pay nothing.
  void SetKeyIdMap(const KeyIdMap* map) {
    // access_epoch() adds the map's generation: re-base this CPU's part so the
    // sum moves exactly one step forward across the swap (unsigned wrap-around).
    const uint64_t before = access_epoch();
    keyid_map_ = map;
    state_epoch_ += before + 1 - access_epoch();
  }
  const KeyIdMap* keyid_map() const { return keyid_map_; }

  // Trusted variants used only by monitor gate code (the gate is part of the scanned,
  // attested monitor binary, so its embedded sensitive instructions are legitimate).
  void TrustedWriteMsr(uint32_t index, uint64_t value);
  void TrustedWriteCr(int reg, uint64_t value);
  void TrustedLidt(const IdtTable* table) { idt_ = table; }
  void TrustedSetAc(bool ac) {
    ac_flag_ = ac;
    ++state_epoch_;
  }

  // ---- Checked memory access ----
  // Translates `va` for `access` under mode `as_mode` (defaults to the current mode),
  // applying all architectural checks. On denial returns kPermissionDenied/kNotFound
  // and fills `fault_out` (if non-null) with the would-be exception.
  StatusOr<WalkResult> Translate(Vaddr va, AccessType access, Fault* fault_out = nullptr);
  StatusOr<WalkResult> TranslateAs(CpuMode as_mode, Vaddr va, AccessType access,
                                   Fault* fault_out = nullptr);

  // The architectural permission checks on a walk result, in the order the
  // hardware applies them: U/S, W, NX (user); SMEP/SMAP or PKS, shadow stack,
  // CR0.WP, NX (supervisor); then the TME-MK keyID check. The one check list
  // behind both TranslateAs and TranslateHit; allocation-free.
  AccessDenial CheckAccess(const WalkResult& r, CpuMode as_mode, AccessType access) const;

  // TLB-hit fast path for an access in the current mode: the cached translation
  // when the leaf TLB holds (CR3, va, mode) and CheckAccess allows `access` (its
  // `pa` is the 4 KiB page base — add va & kPageMask; the entry lives in this CPU's
  // TLB and is valid until its next fill or invalidation). Counts one tlb.hits. On
  // a miss or a denial returns nullptr without side effects; the caller then runs
  // Translate, which counts, checks and reports exactly as if this was never tried.
  const WalkResult* TranslateHit(Vaddr va, AccessType access) {
    const WalkResult* hit = tlb_.ProbeLeaf(cr3_, va, mode_);
    if (hit == nullptr || CheckAccess(*hit, mode_, access).denied()) {
      return nullptr;
    }
    CounterAdd(Tlb::GlobalStats().hits);
    return hit;
  }

  // Changes whenever anything TranslateHit reads may have changed, so a checked
  // access cached under one value is still a TLB hit that CheckAccess allows while
  // the value holds: every leaf fill and leaf invalidation of this CPU's TLB (Tlb::
  // epoch), every write of the mode, CR0/CR3/CR4, IA32_PKRS, RFLAGS.AC, the monitor
  // context or the KeyIdMap pointer, and every keyID rebinding (KeyIdMap::
  // generation). Only this CPU's own thread changes the first two parts: peers
  // queue their invalidations, and the owner drains them.
  uint64_t access_epoch() const {
    const uint64_t own = tlb_.epoch() + state_epoch_;
    return keyid_map_ == nullptr ? own : own + keyid_map_->generation();
  }

  Status ReadVirt(Vaddr va, uint8_t* out, uint64_t len, Fault* fault_out = nullptr);
  Status WriteVirt(Vaddr va, const uint8_t* data, uint64_t len, Fault* fault_out = nullptr);

  // ---- Software TLB ----
  Tlb& tlb() { return tlb_; }
  // Walk with this CPU's TLB (no permission checks; what TranslateAs and the
  // kernel/monitor lookup helpers use instead of a raw WalkPageTables).
  StatusOr<WalkResult> WalkCached(Paddr root, Vaddr va, CpuMode mode);
  // Records the kernel's invlpg after an unmap/protect of `va` (invlpg is ring-0 but
  // not in the paper's sensitive set, so the deprivileged kernel runs it directly in
  // both worlds): a trace event and the tlb.invlpg counter, no cycles (the cost is
  // folded into the page-op cycle constants). The host cache needs nothing here: the
  // kernel's PTE writer already shot down every present entry the call rewrote.
  void RecordInvlpg(Vaddr va);

  // ---- Cross-CPU TLB invalidation queue (real-thread engine) ----
  // Applies `inv` to this CPU's TLB right now, or queues it when a *peer* thread
  // is the caller under the real-thread engine. The deterministic engine always
  // applies directly (same behaviour as before this queue existed).
  void RequestTlbInvalidation(const TlbInvalidation& inv);
  // Drains the pending queue into this CPU's TLB; called by this CPU's own
  // thread at EMC gate boundaries and by the World after a parallel region.
  void DrainTlbInvalidations();
  bool tlb_invalidations_pending() const {
    return tlb_queue_pending_.load(std::memory_order_acquire);
  }
  uint64_t tlb_invalidations_drained() const { return tlb_drained_; }

  // ---- Control flow (CET) ----
  // Indirect call/jmp to `target`: #CP unless the label is an endbr64 target (when IBT
  // is enabled for supervisor mode via IA32_S_CET).
  Status IndirectBranch(CodeLabelId target);

  // Shadow-stack assisted call/return (used on monitor entry/exit paths).
  void SetShadowStack(ShadowStack* stack) { shadow_stack_ = stack; }
  ShadowStack* shadow_stack() { return shadow_stack_; }
  Status ShadowCall(CodeLabelId return_site);
  Status ShadowReturn(CodeLabelId return_site);

  // ---- Exception / interrupt delivery ----
  void BindHandler(CodeLabelId label, FaultHandler handler);
  // Dispatches through the loaded IDT. Returns non-OK if no gate is installed.
  Status Deliver(const Fault& fault);

  // Statistics.
  uint64_t delivered_faults() const { return delivered_faults_; }

 private:
  uint64_t Msr(uint32_t index) const;
  Status CheckSensitive(const char* what);
  void StoreMsr(uint32_t index, uint64_t value);
  // The TLB side of a CR3 write (TrustedWriteCr(3)): keeps the root-tagged
  // entries and drains queued peer invalidations.
  void SwitchTlbRoot();
  void ApplyTlbInvalidation(const TlbInvalidation& inv);

  int index_;
  PhysMemory* memory_;
  CodeRegistry* registry_;
  const CycleModel* costs_;
  CycleCounter cycles_;

  CpuMode mode_ = CpuMode::kSupervisor;
  Gprs gprs_;
  uint64_t cr0_ = cr::kCr0Wp;
  uint64_t cr3_ = 0;
  uint64_t cr4_ = 0;
  bool ac_flag_ = false;
  bool fence_enabled_ = false;
  bool in_monitor_ = false;
  const KeyIdMap* keyid_map_ = nullptr;
  uint64_t state_epoch_ = 0;  // the CPU-state part of access_epoch()

  std::map<uint32_t, uint64_t> msrs_;  // every MSR except the two below
  uint64_t pkrs_ = 0;                   // IA32_PKRS
  uint64_t s_cet_ = 0;                  // IA32_S_CET
  Tlb tlb_;
  // Pending cross-CPU invalidations (posted by peers under the real-thread
  // engine; drained by this CPU's own thread at gate boundaries).
  std::mutex tlb_queue_mu_;
  std::vector<TlbInvalidation> tlb_queue_;
  std::atomic<bool> tlb_queue_pending_{false};
  uint64_t tlb_drained_ = 0;  // ops ever drained (own-thread counter)
  const IdtTable* idt_ = nullptr;
  TdcallSink* tdcall_sink_ = nullptr;
  ShadowStack* shadow_stack_ = nullptr;
  std::map<CodeLabelId, FaultHandler> handlers_;
  uint64_t delivered_faults_ = 0;
};

}  // namespace erebor

#endif  // EREBOR_SRC_HW_CPU_H_
