// x86-64-style 4-level paging structures and walker over simulated physical memory.
//
// Page tables are real in-simulation data: page-table pages (PTPs) are 4 KiB frames of
// 512 64-bit entries living in PhysMemory, written by the guest kernel (natively) or by
// the Erebor monitor (when MMU interfaces are virtualized). The walker is used by the
// CPU for every checked access, so PTE-level protections (U/S, W, NX, protection keys,
// shadow-stack encoding) are enforced exactly where the paper relies on them.
#ifndef EREBOR_SRC_HW_PAGING_H_
#define EREBOR_SRC_HW_PAGING_H_

#include <optional>

#include "src/common/function_ref.h"
#include "src/common/status.h"
#include "src/hw/phys_mem.h"
#include "src/hw/types.h"

namespace erebor {

using Pte = uint64_t;

namespace pte {
inline constexpr Pte kPresent = 1ULL << 0;
inline constexpr Pte kWritable = 1ULL << 1;
inline constexpr Pte kUser = 1ULL << 2;
inline constexpr Pte kAccessed = 1ULL << 5;
inline constexpr Pte kDirty = 1ULL << 6;
inline constexpr Pte kPageSize = 1ULL << 7;  // huge-page leaf at L2/L3
inline constexpr Pte kNoExecute = 1ULL << 63;

inline constexpr int kPkeyShift = 59;
inline constexpr Pte kPkeyMask = 0xFULL << kPkeyShift;

// TME-MK encryption keyID field: the high PTE bits between the frame number
// (ends at bit 51) and NX (bit 63), i.e. bits 52..62 — 11 bits, 2048 keyIDs.
// It deliberately overlaps the 4-bit PKS pkey field (bits 59..62): a world runs
// exactly one isolation backend, so the bits are interpreted by at most one
// mechanism at a time.
inline constexpr int kKeyIdShift = 52;
inline constexpr int kKeyIdBits = 11;
inline constexpr Pte kKeyIdMask = ((Pte{1} << kKeyIdBits) - 1) << kKeyIdShift;

inline constexpr Pte kFrameMask = 0x000FFFFFFFFFF000ULL;

inline constexpr Pte Make(FrameNum frame, Pte flags) {
  return ((frame << kPageShift) & kFrameMask) | flags;
}
inline constexpr FrameNum Frame(Pte e) { return (e & kFrameMask) >> kPageShift; }
inline constexpr bool Present(Pte e) { return (e & kPresent) != 0; }
inline constexpr bool Writable(Pte e) { return (e & kWritable) != 0; }
inline constexpr bool User(Pte e) { return (e & kUser) != 0; }
inline constexpr bool NoExecute(Pte e) { return (e & kNoExecute) != 0; }
inline constexpr uint8_t Pkey(Pte e) { return static_cast<uint8_t>((e & kPkeyMask) >> kPkeyShift); }
inline constexpr Pte WithPkey(Pte e, uint8_t key) {
  return (e & ~kPkeyMask) | (static_cast<Pte>(key & 0xF) << kPkeyShift);
}
inline constexpr uint32_t KeyId(Pte e) {
  return static_cast<uint32_t>((e & kKeyIdMask) >> kKeyIdShift);
}
inline constexpr Pte WithKeyId(Pte e, uint32_t keyid) {
  return (e & ~kKeyIdMask) | ((static_cast<Pte>(keyid) << kKeyIdShift) & kKeyIdMask);
}
// CET shadow-stack leaf encoding: not-writable but dirty (see paper section 2.2).
inline constexpr bool IsShadowStack(Pte e) {
  return Present(e) && !Writable(e) && (e & kDirty) != 0 && !User(e);
}
}  // namespace pte

// Virtual-address decomposition: 4 levels x 9 bits + 12-bit offset (48-bit canonical).
inline constexpr int kPagingLevels = 4;
inline constexpr uint64_t kPteEntries = 512;

inline constexpr uint64_t PteIndex(Vaddr va, int level) {
  // level 3 = top (PML4), level 0 = leaf (PT).
  return (va >> (kPageShift + 9 * level)) & (kPteEntries - 1);
}

// Result of a successful translation.
struct WalkResult {
  Paddr pa = 0;             // final physical address (leaf frame + offset)
  Pte leaf = 0;             // leaf entry
  bool user_accessible = false;   // AND of U/S across levels
  bool writable = false;          // AND of W across levels
  bool no_execute = false;        // OR of NX across levels
  uint8_t pkey = 0;               // leaf protection key
  bool shadow_stack = false;      // leaf uses the shadow-stack encoding
  int level = 0;                  // leaf level (0 = 4 KiB page, 1 = 2 MiB page)
  Paddr leaf_entry_pa = 0;        // physical address of the leaf PTE itself
};

// Optional walk-path record, filled (even on a failed walk) when the caller passes
// one to WalkPageTables. The software TLB uses it to build paging-structure-cache
// entries and to know which intermediate entries a cached translation depends on.
struct WalkPath {
  // Physical address of the entry read at each level actually visited (index = level).
  Paddr entry_pa[kPagingLevels] = {0, 0, 0, 0};
  int deepest = kPagingLevels;  // lowest level whose entry was read; 4 = none
  Paddr leaf_table = 0;         // base of the level-0 table, set only if reached
  // Permission aggregates over the intermediate levels traversed (3..1), i.e. the
  // walk state just before the leaf entry is applied.
  bool inter_user = true;
  bool inter_writable = true;
  bool inter_nx = false;
};

// The message of every non-present walk failure (full walks and the TLB's
// structure-cache leaf reads alike). It fits the small-string buffer, so demand-fault
// probes, which take this path constantly, allocate nothing.
inline constexpr char kPteNotPresent[] = "PTE not present";

// Walks the tables rooted at `root` (physical address of the PML4 frame). Returns
// kNotFound with kPteNotPresent if a level is non-present.
StatusOr<WalkResult> WalkPageTables(const PhysMemory& memory, Paddr root, Vaddr va);
StatusOr<WalkResult> WalkPageTables(const PhysMemory& memory, Paddr root, Vaddr va,
                                    WalkPath* path);

// Process-wide count of page-table PTE reads performed by walks (full walks and the
// TLB's structure-cache-assisted leaf reads). Plain counter: the benches sample it
// around hot loops to measure how many physical reads the TLB avoids.
uint64_t& PageTableWalkReads();

// Builds page-table entries on behalf of software. `alloc_ptp` supplies zeroed
// frames for intermediate PTPs. All PTE stores go through `write_pte` so the caller can
// route them through EMC when Erebor virtualizes the MMU. Both members are non-owning
// references: the state they call lives in the caller (a stack object for the kernel
// and monitor writers), which must keep it alive while the writer is in use.
struct PteWriter {
  // write_pte(entry_pa, value): store a PTE. Returns non-OK if refused.
  FunctionRef<Status(Paddr, Pte)> write_pte;
  // alloc_ptp(): allocate + zero a frame for an intermediate page-table page.
  FunctionRef<StatusOr<FrameNum>()> alloc_ptp;
};

// Maps `va` -> frame with leaf flags. Creates intermediate levels as needed, with
// intermediate flags Present|Writable|(User if leaf has User).
Status MapPage(PhysMemory& memory, Paddr root, Vaddr va, FrameNum frame, Pte leaf_flags,
               const PteWriter& writer);

// Clears the leaf PTE for `va` (no PTP reclamation; matches minimal-kernel behaviour).
Status UnmapPage(PhysMemory& memory, Paddr root, Vaddr va, const PteWriter& writer);

// Rewrites the leaf PTE flags for an existing mapping (e.g. dropping kWritable).
Status ProtectPage(PhysMemory& memory, Paddr root, Vaddr va, Pte new_flags,
                   const PteWriter& writer);

}  // namespace erebor

#endif  // EREBOR_SRC_HW_PAGING_H_
