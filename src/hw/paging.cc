#include "src/hw/paging.h"

#include "src/common/exec.h"

namespace erebor {

uint64_t& PageTableWalkReads() {
  static uint64_t reads = 0;
  return reads;
}

StatusOr<WalkResult> WalkPageTables(const PhysMemory& memory, Paddr root, Vaddr va) {
  return WalkPageTables(memory, root, va, nullptr);
}

StatusOr<WalkResult> WalkPageTables(const PhysMemory& memory, Paddr root, Vaddr va,
                                    WalkPath* path) {
  WalkResult result;
  result.user_accessible = true;
  result.writable = true;

  Paddr table = root;
  for (int level = kPagingLevels - 1; level >= 0; --level) {
    const Paddr entry_pa = table + PteIndex(va, level) * sizeof(Pte);
    if (!memory.Contains(entry_pa, sizeof(Pte))) {
      return OutOfRangeError("page-table page outside physical memory");
    }
    const Pte entry = memory.Read64(entry_pa);
    CounterAdd(PageTableWalkReads());
    if (path != nullptr) {
      path->entry_pa[level] = entry_pa;
      path->deepest = level;
      if (level == 0) {
        path->leaf_table = table;
      }
    }
    if (!pte::Present(entry)) {
      return NotFoundError(kPteNotPresent);
    }
    result.user_accessible = result.user_accessible && pte::User(entry);
    result.writable = result.writable && pte::Writable(entry);
    result.no_execute = result.no_execute || pte::NoExecute(entry);

    const bool is_leaf = level == 0 || (level <= 2 && (entry & pte::kPageSize) != 0);
    if (path != nullptr && !is_leaf) {
      path->inter_user = path->inter_user && pte::User(entry);
      path->inter_writable = path->inter_writable && pte::Writable(entry);
      path->inter_nx = path->inter_nx || pte::NoExecute(entry);
    }
    if (is_leaf) {
      result.leaf = entry;
      result.level = level;
      result.leaf_entry_pa = entry_pa;
      result.pkey = pte::Pkey(entry);
      result.shadow_stack = pte::IsShadowStack(entry);
      const uint64_t page_bits = kPageShift + 9 * level;
      const uint64_t offset = va & ((1ULL << page_bits) - 1);
      result.pa = (pte::Frame(entry) << kPageShift) + offset;
      // For huge pages the frame field is aligned to the huge-page boundary already.
      if (level > 0) {
        result.pa = ((entry & pte::kFrameMask) & ~((1ULL << page_bits) - 1)) + offset;
      }
      return result;
    }
    table = pte::Frame(entry) << kPageShift;
  }
  return InternalError("page walk fell through");
}

namespace {

// Descends to the leaf level, creating intermediate PTPs, and returns the physical
// address of the leaf PTE slot.
StatusOr<Paddr> LeafSlot(PhysMemory& memory, Paddr root, Vaddr va, bool user,
                         const PteWriter& writer, bool create) {
  Paddr table = root;
  for (int level = kPagingLevels - 1; level >= 1; --level) {
    const Paddr entry_pa = table + PteIndex(va, level) * sizeof(Pte);
    Pte entry = memory.Read64(entry_pa);
    if (!pte::Present(entry)) {
      if (!create) {
        return NotFoundError("mapping does not exist");
      }
      EREBOR_ASSIGN_OR_RETURN(const FrameNum ptp, writer.alloc_ptp());
      Pte inter = pte::Make(ptp, pte::kPresent | pte::kWritable);
      if (user) {
        inter |= pte::kUser;
      }
      EREBOR_RETURN_IF_ERROR(writer.write_pte(entry_pa, inter));
      entry = inter;
    } else if (user && !pte::User(entry) && create) {
      // Widen intermediate U/S when mapping user pages under an existing subtree.
      EREBOR_RETURN_IF_ERROR(writer.write_pte(entry_pa, entry | pte::kUser));
    }
    table = pte::Frame(entry) << kPageShift;
  }
  return table + PteIndex(va, 0) * sizeof(Pte);
}

}  // namespace

Status MapPage(PhysMemory& memory, Paddr root, Vaddr va, FrameNum frame, Pte leaf_flags,
               const PteWriter& writer) {
  const bool user = (leaf_flags & pte::kUser) != 0;
  EREBOR_ASSIGN_OR_RETURN(const Paddr slot, LeafSlot(memory, root, va, user, writer, true));
  return writer.write_pte(slot, pte::Make(frame, leaf_flags | pte::kPresent));
}

Status UnmapPage(PhysMemory& memory, Paddr root, Vaddr va, const PteWriter& writer) {
  EREBOR_ASSIGN_OR_RETURN(const Paddr slot, LeafSlot(memory, root, va, false, writer, false));
  return writer.write_pte(slot, 0);
}

Status ProtectPage(PhysMemory& memory, Paddr root, Vaddr va, Pte new_flags,
                   const PteWriter& writer) {
  EREBOR_ASSIGN_OR_RETURN(const Paddr slot, LeafSlot(memory, root, va, false, writer, false));
  const Pte old = memory.Read64(slot);
  if (!pte::Present(old)) {
    return NotFoundError("protect on non-present mapping");
  }
  return writer.write_pte(slot, pte::Make(pte::Frame(old), new_flags | pte::kPresent));
}

}  // namespace erebor
