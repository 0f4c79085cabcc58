#include "src/hw/cpu.h"

#include <cstdio>
#include <string_view>

#include "src/common/exec.h"
#include "src/common/log.h"
#include "src/common/trace.h"

namespace erebor {

Cpu::Cpu(int index, PhysMemory* memory, CodeRegistry* registry, const CycleModel* costs)
    : index_(index), memory_(memory), registry_(registry), costs_(costs) {}

uint64_t Cpu::Msr(uint32_t index) const {
  if (index == msr::kIa32Pkrs) {
    return pkrs_;
  }
  if (index == msr::kIa32SCet) {
    return s_cet_;
  }
  const auto it = msrs_.find(index);
  return it == msrs_.end() ? 0 : it->second;
}

void Cpu::StoreMsr(uint32_t index, uint64_t value) {
  if (index == msr::kIa32Pkrs) {
    pkrs_ = value;
    ++state_epoch_;
  } else if (index == msr::kIa32SCet) {
    s_cet_ = value;
  } else {
    msrs_[index] = value;
  }
}

void Cpu::FlushTlb() {
  // Trace unconditionally (even TLB-off / hook-off) so per-phase summaries are
  // bit-identical across EREBOR_TLB settings; the flush itself charges no cycles.
  Tracer::Global().Record(TraceEvent::kTlbFlush, index_, cycles_.now());
  if (Tlb::Enabled() && Tlb::hooks().cr3_flush) {
    tlb_.FlushAll();
  }
}

StatusOr<WalkResult> Cpu::WalkCached(Paddr root, Vaddr va, CpuMode mode) {
  return tlb_.WalkCached(*memory_, root, va, mode);
}

void Cpu::InvlpgBroadcast(Paddr root, Vaddr va) {
  Tracer::Global().Record(TraceEvent::kTlbInvlpg, index_, cycles_.now(), -1, va);
  CounterAdd(Tlb::GlobalStats().invlpg);
  if (!Tlb::Enabled() || !Tlb::hooks().invlpg) {
    return;
  }
  const TlbInvalidation inv{TlbInvalidation::Kind::kPage, root, va, 0};
  if (tlb_peers_.empty()) {
    ApplyTlbInvalidation(inv);
    return;
  }
  for (Cpu* peer : tlb_peers_) {
    peer->RequestTlbInvalidation(inv);
  }
}

void Cpu::RequestTlbInvalidation(const TlbInvalidation& inv) {
  // Direct application is safe when no parallel region is live, or when the
  // calling thread *is* this CPU's thread (its own TLB, its own lookups).
  if (!ExecutionEngine::real_threads() ||
      ExecutionEngine::current_cpu() == index_) {
    ApplyTlbInvalidation(inv);
    return;
  }
  {
    std::lock_guard<std::mutex> guard(tlb_queue_mu_);
    tlb_queue_.push_back(inv);
  }
  tlb_queue_pending_.store(true, std::memory_order_release);
}

void Cpu::DrainTlbInvalidations() {
  if (!tlb_queue_pending_.load(std::memory_order_acquire)) {
    return;
  }
  std::vector<TlbInvalidation> pending;
  {
    std::lock_guard<std::mutex> guard(tlb_queue_mu_);
    pending.swap(tlb_queue_);
    tlb_queue_pending_.store(false, std::memory_order_release);
  }
  for (const TlbInvalidation& inv : pending) {
    ApplyTlbInvalidation(inv);
  }
  tlb_drained_ += pending.size();
}

void Cpu::ApplyTlbInvalidation(const TlbInvalidation& inv) {
  switch (inv.kind) {
    case TlbInvalidation::Kind::kPage:
      tlb_.InvalidatePage(inv.root, inv.va);
      break;
    case TlbInvalidation::Kind::kRoot:
      tlb_.FlushRoot(inv.root);
      break;
    case TlbInvalidation::Kind::kAll:
      tlb_.FlushAll();
      break;
    case TlbInvalidation::Kind::kEntry:
      tlb_.ShootdownEntry(inv.entry_pa);
      break;
  }
}

Status Cpu::CheckSensitive(const char* what) {
  if (mode_ == CpuMode::kUser) {
    // Privileged instruction in ring 3 -> #GP (paper section 2.1: tdcall from
    // userspace triggers a general protection fault).
    return PermissionDeniedError(std::string("#GP: ") + what + " executed in user mode");
  }
  if (fence_enabled_ && !in_monitor_) {
    // Models the verified absence of this instruction from the deprivileged kernel:
    // the monitor scanned the kernel image (C1), W^X prevents injecting new bytes
    // (C2), and SMEP prevents executing user pages (C2). Any attempt therefore means
    // the attack was already stopped by one of those mechanisms.
    return PermissionDeniedError(std::string("sensitive instruction '") + what +
                                 "' unavailable to deprivileged kernel (Erebor fence)");
  }
  return OkStatus();
}

Status Cpu::WriteCr0(uint64_t value) {
  EREBOR_RETURN_IF_ERROR(CheckSensitive("mov %cr0"));
  cycles_.Charge(costs_->native_cr_write);
  TrustedWriteCr(0, value);
  return OkStatus();
}

Status Cpu::WriteCr3(uint64_t value) {
  EREBOR_RETURN_IF_ERROR(CheckSensitive("mov %cr3"));
  cycles_.Charge(costs_->native_cr_write);
  TrustedWriteCr(3, value);
  return OkStatus();
}

Status Cpu::WriteCr4(uint64_t value) {
  EREBOR_RETURN_IF_ERROR(CheckSensitive("mov %cr4"));
  cycles_.Charge(costs_->native_cr_write);
  TrustedWriteCr(4, value);
  return OkStatus();
}

StatusOr<uint64_t> Cpu::ReadMsr(uint32_t index) const {
  if (mode_ == CpuMode::kUser) {
    return PermissionDeniedError("#GP: rdmsr in user mode");
  }
  return Msr(index);
}

Status Cpu::WriteMsr(uint32_t index, uint64_t value) {
  EREBOR_RETURN_IF_ERROR(CheckSensitive("wrmsr"));
  cycles_.Charge(costs_->native_wrmsr);
  StoreMsr(index, value);
  if (index == msr::kIa32Pkrs || index == msr::kIa32SCet) {
    // An untrusted PKRS/CET rewrite flushes the writing CPU's TLB (serializing
    // permission change). The *trusted* gate writes on the EMC hot path deliberately
    // do not: the TLB caches walks, and PKS/CET checks re-run on every access.
    Tracer::Global().Record(TraceEvent::kTlbFlush, index_, cycles_.now());
    if (Tlb::Enabled()) {
      tlb_.FlushAll();
    }
  }
  return OkStatus();
}

void Cpu::TrustedWriteMsr(uint32_t index, uint64_t value) { StoreMsr(index, value); }

void Cpu::TrustedWriteCr(int reg, uint64_t value) {
  switch (reg) {
    case 0:
      cr0_ = value;
      break;
    case 3:
      cr3_ = value;
      FlushTlb();
      break;
    case 4:
      cr4_ = value;
      break;
    default:
      return;
  }
  ++state_epoch_;
}

Status Cpu::Stac() {
  EREBOR_RETURN_IF_ERROR(CheckSensitive("stac"));
  cycles_.Charge(costs_->native_stac);
  TrustedSetAc(true);
  return OkStatus();
}

Status Cpu::Clac() {
  // clac is also removed from the instrumented kernel; pair it with stac's policy.
  EREBOR_RETURN_IF_ERROR(CheckSensitive("clac"));
  TrustedSetAc(false);
  return OkStatus();
}

Status Cpu::Lidt(const IdtTable* table) {
  EREBOR_RETURN_IF_ERROR(CheckSensitive("lidt"));
  cycles_.Charge(costs_->native_lidt);
  idt_ = table;
  return OkStatus();
}

Status Cpu::Tdcall(uint64_t leaf, uint64_t* args, size_t nargs) {
  EREBOR_RETURN_IF_ERROR(CheckSensitive("tdcall"));
  if (tdcall_sink_ == nullptr) {
    return UnavailableError("no TDX module attached");
  }
  return tdcall_sink_->Tdcall(*this, leaf, args, nargs);
}

StatusOr<WalkResult> Cpu::Translate(Vaddr va, AccessType access, Fault* fault_out) {
  return TranslateAs(mode_, va, access, fault_out);
}

namespace {

// Fills the would-be #PF for a failed translation: the check's (or walk's) error
// bits plus the access's W/I/U bits.
void FillPageFault(Fault* fault_out, uint64_t error_bits, CpuMode as_mode, Vaddr va,
                   AccessType access, std::string_view reason) {
  if (fault_out == nullptr) {
    return;
  }
  fault_out->vector = Vector::kPageFault;
  fault_out->error_code = error_bits |
                          (access == AccessType::kWrite ? pf_err::kWrite : 0) |
                          (access == AccessType::kExecute ? pf_err::kInstruction : 0) |
                          (as_mode == CpuMode::kUser ? pf_err::kUser : 0);
  fault_out->address = va;
  fault_out->reason.assign(reason);
}

// The diagnostic text of a denial. Static strings except the keyed PKS/TME-MK
// messages, which are formatted into `buf` from the walk result.
std::string_view DenialText(AccessDenial::Reason reason, const WalkResult& r,
                            const KeyIdMap* keyid_map, char (&buf)[64]) {
  using Reason = AccessDenial::Reason;
  switch (reason) {
    case Reason::kNone:
      return "";
    case Reason::kUserSupervisorPage:
      return "user access to supervisor page";
    case Reason::kUserReadOnly:
      return "user write to read-only page";
    case Reason::kShadowStackWrite:
      return "write to shadow-stack page";
    case Reason::kNoExecute:
      return "execute of NX page";
    case Reason::kSmep:
      return "SMEP: supervisor execute of user page";
    case Reason::kSmap:
      return "SMAP: supervisor access to user page";
    case Reason::kPksAccessDisabled:
      std::snprintf(buf, sizeof(buf), "PKS: access-disabled key %u", r.pkey);
      return buf;
    case Reason::kPksWriteDisabled:
      std::snprintf(buf, sizeof(buf), "PKS: write-disabled key %u", r.pkey);
      return buf;
    case Reason::kWriteProtect:
      return "CR0.WP: supervisor write to read-only page";
    case Reason::kKeyIdMismatch:
      std::snprintf(buf, sizeof(buf),
                    "TME-MK: keyID mismatch (mapping %u, frame bound %u)",
                    pte::KeyId(r.leaf), keyid_map->KeyOf(r.pa >> kPageShift));
      return buf;
  }
  return "";
}

}  // namespace

StatusOr<WalkResult> Cpu::TranslateAs(CpuMode as_mode, Vaddr va, AccessType access,
                                      Fault* fault_out) {
  auto walk = tlb_.WalkCached(*memory_, cr3_, va, as_mode);
  if (!walk.ok()) {
    FillPageFault(fault_out, 0, as_mode, va, access, walk.status().message());
    return walk.status();
  }
  const AccessDenial denial = CheckAccess(*walk, as_mode, access);
  if (!denial.denied()) {
    return walk;
  }
  char buf[64];
  const std::string_view reason = DenialText(denial.reason, *walk, keyid_map_, buf);
  FillPageFault(fault_out, denial.error_bits, as_mode, va, access, reason);
  std::string message("#PF: ");
  message.append(reason);
  return PermissionDeniedError(std::move(message));
}

AccessDenial Cpu::CheckAccess(const WalkResult& r, CpuMode as_mode,
                              AccessType access) const {
  using Reason = AccessDenial::Reason;
  const bool write = access == AccessType::kWrite;
  const bool execute = access == AccessType::kExecute;
  if (as_mode == CpuMode::kUser) {
    // A shadow-stack leaf is a supervisor page (pte::IsShadowStack requires U=0),
    // so a user access to one always fails here first.
    if (!r.user_accessible) {
      return {Reason::kUserSupervisorPage, pf_err::kPresent};
    }
    if (write && !r.writable) {
      return {Reason::kUserReadOnly, pf_err::kPresent};
    }
    if (execute && r.no_execute) {
      return {Reason::kNoExecute, pf_err::kPresent};
    }
  } else {
    if (r.user_accessible) {
      if (execute && (cr4_ & cr::kCr4Smep) != 0) {
        return {Reason::kSmep, pf_err::kPresent};
      }
      if (!execute && (cr4_ & cr::kCr4Smap) != 0 && !ac_flag_) {
        return {Reason::kSmap, pf_err::kPresent};
      }
    } else if ((cr4_ & cr::kCr4Pks) != 0 && !execute) {
      // Supervisor protection keys (PKS): data accesses only. pkrs_ holds the
      // MSR itself, so the hottest check in the simulator costs no map lookup.
      if ((pkrs_ & pkrs::Ad(r.pkey)) != 0) {
        return {Reason::kPksAccessDisabled, pf_err::kPresent | pf_err::kProtectionKey};
      }
      if (write && (pkrs_ & pkrs::Wd(r.pkey)) != 0) {
        return {Reason::kPksWriteDisabled, pf_err::kPresent | pf_err::kProtectionKey};
      }
    }
    if (write && r.shadow_stack) {
      return {Reason::kShadowStackWrite, pf_err::kPresent | pf_err::kShadowStack};
    }
    if (write && !r.writable && (cr0_ & cr::kCr0Wp) != 0) {
      return {Reason::kWriteProtect, pf_err::kPresent};
    }
    if (execute && r.no_execute) {
      return {Reason::kNoExecute, pf_err::kPresent};
    }
  }
  // TME-MK keyID check (memory-controller enforcement; both CPU modes, data and
  // fetch). The monitor context is exempt: its accesses run under the monitor's
  // own keyID. Read-shared bindings (kernel text, PTPs) admit reads and fetches
  // through any keyID but only same-key writes.
  if (keyid_map_ != nullptr && !in_monitor_) {
    const FrameNum frame = r.pa >> kPageShift;
    if (pte::KeyId(r.leaf) != keyid_map_->KeyOf(frame) &&
        (write || !keyid_map_->ReadShared(frame))) {
      return {Reason::kKeyIdMismatch, pf_err::kPresent | pf_err::kProtectionKey};
    }
  }
  return {};
}

namespace {
// Walks [va, va + len) one leaf span at a time — a 2 MiB (or 1 GiB) leaf is
// physically contiguous, so one translation covers the whole span instead of
// re-walking every 4 KiB — and hands each span's physical range to
// `copy(pa, offset, take)`. A TLB hit that passes the checks takes the hit path;
// anything else runs the full Translate, which counts, checks and reports.
template <typename CopyFn>
Status ForEachSpan(Cpu& cpu, Vaddr va, uint64_t len, AccessType access,
                   Fault* fault_out, CopyFn&& copy) {
  uint64_t done = 0;
  while (done < len) {
    const Vaddr at = va + done;
    Paddr pa = 0;
    int level = 0;
    if (const WalkResult* hit = cpu.TranslateHit(at, access)) {
      pa = hit->pa + (at & kPageMask);
      level = hit->level;
    } else {
      EREBOR_ASSIGN_OR_RETURN(const WalkResult r, cpu.Translate(at, access, fault_out));
      pa = r.pa;
      level = r.level;
    }
    const uint64_t span = 1ULL << (kPageShift + 9 * static_cast<uint64_t>(level));
    const uint64_t take = std::min(len - done, span - (at & (span - 1)));
    EREBOR_RETURN_IF_ERROR(copy(pa, done, take));
    done += take;
  }
  return OkStatus();
}
}  // namespace

Status Cpu::ReadVirt(Vaddr va, uint8_t* out, uint64_t len, Fault* fault_out) {
  return ForEachSpan(*this, va, len, AccessType::kRead, fault_out,
                     [&](Paddr pa, uint64_t offset, uint64_t take) {
                       return memory_->Read(pa, out + offset, take);
                     });
}

Status Cpu::WriteVirt(Vaddr va, const uint8_t* data, uint64_t len, Fault* fault_out) {
  return ForEachSpan(*this, va, len, AccessType::kWrite, fault_out,
                     [&](Paddr pa, uint64_t offset, uint64_t take) {
                       return memory_->Write(pa, data + offset, take);
                     });
}

Status Cpu::IndirectBranch(CodeLabelId target) {
  const CodeLabel* label = registry_->Lookup(target);
  if (label == nullptr) {
    return InvalidArgumentError("indirect branch to unknown label");
  }
  const bool ibt_enabled = (cr4_ & cr::kCr4Cet) != 0 &&
                           (s_cet_ & msr::kCetIbtEn) != 0;
  if (ibt_enabled && !label->endbr) {
    return PermissionDeniedError("#CP: indirect branch to non-endbr64 target '" +
                                 label->name + "'");
  }
  return OkStatus();
}

Status Cpu::ShadowCall(CodeLabelId return_site) {
  const bool sst_enabled = (cr4_ & cr::kCr4Cet) != 0 &&
                           (s_cet_ & msr::kCetShstkEn) != 0;
  if (!sst_enabled || shadow_stack_ == nullptr) {
    return OkStatus();
  }
  shadow_stack_->PushReturn(return_site);
  return OkStatus();
}

Status Cpu::ShadowReturn(CodeLabelId return_site) {
  const bool sst_enabled = (cr4_ & cr::kCr4Cet) != 0 &&
                           (s_cet_ & msr::kCetShstkEn) != 0;
  if (!sst_enabled || shadow_stack_ == nullptr) {
    return OkStatus();
  }
  return shadow_stack_->PopReturn(return_site).status();
}

void Cpu::BindHandler(CodeLabelId label, FaultHandler handler) {
  handlers_[label] = std::move(handler);
}

Status Cpu::Deliver(const Fault& fault) {
  if (idt_ == nullptr) {
    return FailedPreconditionError("fault with no IDT loaded: " + fault.reason);
  }
  const CodeLabelId gate = idt_->gate[static_cast<uint8_t>(fault.vector)];
  if (gate == kInvalidCodeLabel) {
    return FailedPreconditionError("no gate for " + VectorName(fault.vector) + ": " +
                                   fault.reason);
  }
  const auto it = handlers_.find(gate);
  if (it == handlers_.end()) {
    return InternalError("IDT gate label has no bound handler");
  }
  const bool external = fault.vector == Vector::kTimer || fault.vector == Vector::kDevice ||
                        fault.vector == Vector::kIpi;
  cycles_.Charge(external ? costs_->interrupt_delivery : costs_->exception_delivery);
  ++delivered_faults_;
  // Exception delivery pushes the return site onto the shadow stack; the simulation
  // models the balanced push/pop inside the handler invocation.
  it->second(*this, fault);
  return OkStatus();
}

}  // namespace erebor
