#include "src/monitor/mmu_policy.h"

#include "src/common/exec.h"
#include "src/hw/cpu.h"
#include "src/hw/machine.h"

namespace erebor {

void MmuPolicy::NoteTrustedLink(Paddr entry_pa, Pte value) {
  if (!pte::Present(value)) {
    return;
  }
  const FrameNum ptp_frame = FrameOf(entry_pa);
  if (ptp_frame >= frames_->size() ||
      frames_->info(ptp_frame).type != FrameType::kPtp) {
    return;
  }
  const uint8_t level = frames_->info(ptp_frame).ptp_level;
  if (level < 2) {
    return;  // leaf write: nothing to link
  }
  FrameInfo& child = frames_->info(pte::Frame(value));
  if (child.type == FrameType::kPtp && child.ptp_level == 0) {
    child.ptp_level = level - 1;
    child.ptp_root = frames_->info(ptp_frame).ptp_root;
  }
}

PolicyDecision MmuPolicy::CheckPteWrite(Paddr entry_pa, Pte value) {
  PolicyDecision decision;
  const FrameNum ptp_frame = FrameOf(entry_pa);
  if (ptp_frame >= frames_->size()) {
    decision.denial_reason = "PTE store outside physical memory";
    return decision;
  }
  // The store must target a registered page-table page: the kernel cannot conjure page
  // tables in arbitrary memory.
  if (frames_->info(ptp_frame).type != FrameType::kPtp) {
    decision.denial_reason = "PTE store into non-PTP frame (" +
                             FrameTypeName(frames_->info(ptp_frame).type) + ")";
    return decision;
  }

  if (!pte::Present(value)) {
    decision.allowed = true;
    decision.adjusted_value = value;
    return decision;
  }

  // Kernel-supplied entries may not carry protection tags (PKS keys or TME-MK
  // keyIDs): tag assignment is the monitor's prerogative.
  if (isolation_->TagOf(value) != 0) {
    decision.denial_reason = "kernel attempted to set a protection key";
    return decision;
  }
  // Huge pages are force-split (paper section 7 future work): a PS-bit leaf in a
  // level-2 table becomes 512 monitor-installed 4 KiB mappings so per-page protection
  // keys stay expressible. Other levels (1 GiB pages) stay refused.
  if ((value & pte::kPageSize) != 0) {
    if (frames_->info(ptp_frame).ptp_level == 2) {
      decision.needs_split = true;
      decision.adjusted_value = value;
      return decision;
    }
    decision.denial_reason = "only 2 MiB huge pages can be force-split";
    return decision;
  }

  const FrameNum target = pte::Frame(value);
  if (target >= frames_->size()) {
    decision.denial_reason = "mapping beyond physical memory";
    return decision;
  }
  FrameInfo& target_info = frames_->info(target);
  const uint8_t table_level = frames_->info(ptp_frame).ptp_level;

  // An entry in a level>=2 table that points at a registered PTP is an *intermediate*
  // entry (it links the hierarchy); an entry in a level-1 table is a leaf. A leaf in a
  // high-level table would be a huge page, already refused above.
  if (table_level != 1) {
    if (target_info.type != FrameType::kPtp) {
      decision.denial_reason = "intermediate entry must point at a registered PTP";
      return decision;
    }
    if (target_info.ptp_level == 0) {
      target_info.ptp_level = table_level - 1;  // link: fix the child's level
      target_info.ptp_root = frames_->info(ptp_frame).ptp_root;
    } else if (target_info.ptp_level != table_level - 1) {
      decision.denial_reason = "PTP linked at inconsistent paging level";
      return decision;
    }
    decision.allowed = true;
    decision.adjusted_value = value;
    return decision;
  }

  // Leaf entry checks.
  const FrameInfo& info = target_info;
  Pte adjusted = value;
  const bool is_user = pte::User(value);

  switch (info.type) {
    case FrameType::kSandboxConfined:
      // Single-mapping policy: the kernel may never map confined frames; only the
      // monitor's trusted path does, exactly once.
      decision.denial_reason = "confined sandbox frame is unmappable by the kernel";
      return decision;
    case FrameType::kSandboxTemplate:
      // Template frames are shared into clones only by the monitor's trusted
      // clone path; a kernel-forged mapping could hand one out writable.
      decision.denial_reason = "template sandbox frame is unmappable by the kernel";
      return decision;
    case FrameType::kShadowStack:
      decision.denial_reason = "shadow-stack frames are monitor-managed";
      return decision;
    case FrameType::kMonitor:
      // The monitor's own mapping in the direct map is permitted but always denies
      // kernel access (PKS: the monitor key vs the kernel's PKRS; TME-MK: the
      // frame's keyID binding vs the untagged mapping).
      adjusted = isolation_->RetagKernelLeaf(adjusted, ProtClass::kMonitor);
      if (is_user) {
        decision.denial_reason = "monitor frames may not be mapped user-accessible";
        return decision;
      }
      break;
    case FrameType::kPtp:
      // Page tables stay readable (the walker needs them) but never writable by the
      // kernel: the PTP class is write-disabled through foreign views.
      adjusted = isolation_->RetagKernelLeaf(adjusted, ProtClass::kPtp);
      if (is_user) {
        decision.denial_reason = "PTP frames may not be mapped user-accessible";
        return decision;
      }
      break;
    case FrameType::kKernelText:
      // W^X: kernel code is never writable, through any mapping.
      adjusted &= ~pte::kWritable;
      adjusted = isolation_->RetagKernelLeaf(adjusted, ProtClass::kKernelText);
      break;
    case FrameType::kSandboxCommon:
      // User mappings of common frames are legitimate only as demand-faults of a
      // region the sandbox manager attached to that address space; writability is
      // refused once the sandbox is sealed.
      if (is_user) {
        if (!common_validator_) {
          decision.denial_reason = "no common-region validator installed";
          return decision;
        }
        const Status st = common_validator_(frames_->info(ptp_frame).ptp_root, target,
                                            pte::Writable(value));
        if (!st.ok()) {
          decision.denial_reason = std::string(st.message());
          return decision;
        }
      }
      break;
    case FrameType::kFirmware:
    case FrameType::kSharedIo:
    case FrameType::kNormal:
      break;
  }

  // Kernel W^X: a supervisor mapping may not be simultaneously writable and
  // executable.
  if (!is_user && pte::Writable(adjusted) && !pte::NoExecute(adjusted)) {
    decision.denial_reason = "W^X violation: writable+executable supervisor mapping";
    return decision;
  }

  decision.allowed = true;
  decision.adjusted_value = adjusted;
  return decision;
}

Status MmuPolicy::CheckCrWrite(int reg, uint64_t value, uint64_t current_value) const {
  switch (reg) {
    case 0:
      if ((value & cr::kCr0Wp) == 0) {
        return PermissionDeniedError("CR0.WP may not be cleared");
      }
      return OkStatus();
    case 3: {
      const FrameNum root = FrameOf(value);
      if (root >= frames_->size() || frames_->info(root).type != FrameType::kPtp) {
        return PermissionDeniedError("CR3 must point at a registered page-table root");
      }
      return OkStatus();
    }
    case 4: {
      const uint64_t required = isolation_->PinnedCr4();
      if ((current_value & required) != 0 && (value & required) != required) {
        return PermissionDeniedError("CR4 protection bits (SMEP/SMAP/PKS/CET) are pinned");
      }
      return OkStatus();
    }
    default:
      return InvalidArgumentError("bad control register");
  }
}

Status MmuPolicy::CheckMsrWrite(uint32_t index) const {
  return isolation_->CheckMsrWrite(index);
}

Status MmuPolicy::CheckSharedConversion(FrameNum first, uint64_t count,
                                        bool to_shared) const {
  if (!to_shared) {
    return OkStatus();  // converting back to private is always safe
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (first + i >= frames_->size() ||
        frames_->info(first + i).type != FrameType::kSharedIo) {
      return PermissionDeniedError(
          "only the shared-IO window may be converted to shared memory");
    }
  }
  return OkStatus();
}

void MmuPolicy::NoteLeafWrite(Pte old_value, Pte new_value, Paddr entry_pa) {
  if (pte::Present(old_value)) {
    FrameInfo& info = frames_->info(pte::Frame(old_value));
    if (info.map_count > 0) {
      --info.map_count;
    }
    if (info.supervisor_leaf_pa == entry_pa) {
      info.supervisor_leaf_pa = 0;
    }
  }
  if (pte::Present(new_value)) {
    FrameInfo& info = frames_->info(pte::Frame(new_value));
    ++info.map_count;
    // Record the reverse map only for true leaf entries (stores into a level-1
    // table): intermediate links carry no protection-key semantics.
    const FrameNum table = FrameOf(entry_pa);
    const bool is_leaf = entry_pa != 0 && table < frames_->size() &&
                         frames_->info(table).type == FrameType::kPtp &&
                         frames_->info(table).ptp_level == 1;
    if (is_leaf && !pte::User(new_value)) {
      info.supervisor_leaf_pa = entry_pa;
    }
  }
}

void MmuPolicy::StorePte(Cpu& cpu, Paddr entry_pa, Pte value,
                         TlbShootdownBatch* deferred) {
  const Pte old = cpu.memory().Read64(entry_pa);
  cpu.memory().Write64(entry_pa, value);
  NoteLeafWrite(old, value, entry_pa);
  // Any change to a previously present entry, grant-only rewrites included, so
  // cached WalkResults never diverge from the tables.
  if (!pte::Present(old) || old == value) {
    return;
  }
  if (deferred != nullptr) {
    deferred->Add(entry_pa);
  } else {
    Shootdown(cpu, entry_pa);
  }
}

void MmuPolicy::Shootdown(Cpu& cpu, Paddr entry_pa) {
  CounterAdd(*shootdowns_);
  if (Tlb::hooks().store_shootdown) {
    machine_->ShootdownTlbLeaf(entry_pa, cpu.index());
  }
}

Status MmuPolicy::RetrofitTag(Cpu& cpu, FrameNum frame, ProtClass cls,
                              bool strip_write) {
  // Bind the frame at the backend's controller first (no-op under PKS): from here
  // on, accesses through any untagged view are refused by the binding even before
  // the PTE rewrite below lands.
  isolation_->BindClass(&cpu, frame, cls);
  FrameInfo& info = frames_->info(frame);
  const Paddr leaf_pa = info.supervisor_leaf_pa;
  if (leaf_pa == 0) {
    return OkStatus();  // no pre-existing supervisor mapping
  }
  const Pte current = cpu.memory().Read64(leaf_pa);
  if (!pte::Present(current) || pte::Frame(current) != frame) {
    info.supervisor_leaf_pa = 0;  // stale record
    return OkStatus();
  }
  Pte updated = isolation_->RetagKernelLeaf(current, cls);
  if (strip_write) {
    updated &= ~pte::kWritable;
  }
  // The direct-map leaf changes tag/W under live translations: the store's
  // shootdown keeps the kernel from writing the re-typed frame through a cached
  // walk.
  StorePte(cpu, leaf_pa, updated, /*deferred=*/nullptr);
  return OkStatus();
}

}  // namespace erebor
