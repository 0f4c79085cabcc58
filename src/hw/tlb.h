// Per-CPU software TLB over the simulated page-table walker.
//
// The TLB is a *host wall-clock* optimization with paper-faithful invalidation
// semantics: it caches successful WalkResults keyed by (CR3 root, page-aligned VA,
// CPU mode) plus a small paging-structure cache (the PDE-cache analogue) that maps
// (root, 2 MiB region) to the level-1 table and the permission aggregates of the
// intermediate levels. It never charges simulated cycles and never changes the
// outcome of a translation — permission checks (PKS/SMEP/SMAP/CR0.WP/NX/shadow
// stack) always re-run on the cached WalkResult, so IA32_PKRS updates on the EMC
// gate hot path need no flush.
//
// Invalidation mirrors what the paper's threat model requires the hardware+monitor
// pair to provide (and which was previously modeled only as a cycle charge):
//   - CR3 writes flush the writing CPU's TLB (Cpu::WriteCr3 / TrustedWriteCr).
//   - The kernel's invlpg-equivalent broadcasts a single-page invalidation on
//     unmap/protect (PrivilegedOps::InvlPg via AddressSpace).
//   - The monitor shoots down by leaf-PTE physical address on every
//     permission-revoking EmcWritePte and ring PTE descriptor, on RetrofitKey, and on the
//     trusted sandbox-manager PTE writes (confinement unmaps, seal-time W strips).
//   - flush_on_exit really flushes the exiting CPU's TLB (same cycle charge).
// Each hook has a test-only disable toggle so the stale-TLB security test can show
// every hook is load-bearing.
#ifndef EREBOR_SRC_HW_TLB_H_
#define EREBOR_SRC_HW_TLB_H_

#include <set>
#include <vector>

#include "src/common/exec.h"
#include "src/common/status.h"
#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/hw/types.h"

namespace erebor {

class Tlb {
 public:
  // Power-of-two sizes; direct-mapped.
  static constexpr size_t kLeafEntries = 2048;
  static constexpr size_t kStructureEntries = 128;

  // Process-wide aggregate counters (also registered in MetricsRegistry::Global()
  // under "tlb.*" and "paging.walk_read64s").
  struct Stats {
    uint64_t hits = 0;        // full leaf-TLB hits (zero page-table reads)
    uint64_t psc_hits = 0;    // structure-cache hits (one leaf read instead of four)
    uint64_t misses = 0;      // full walks
    uint64_t flushes = 0;     // whole-TLB flushes (CR3 writes, flush_on_exit, ...)
    uint64_t invlpg = 0;      // single-page invalidations
    uint64_t shootdowns = 0;  // by-leaf-entry-pa shootdowns
  };

  // Test-only toggles: each shipped invalidation hook consults its flag so the
  // stale-TLB security test can demonstrate the hook is load-bearing. All true in
  // production; never disable outside tests.
  struct Hooks {
    bool cr3_flush = true;           // Cpu::WriteCr3 / TrustedWriteCr(3)
    bool invlpg = true;              // kernel-side unmap/protect invalidation
    bool pte_shootdown = true;       // monitor EmcWritePte/ring PTEs + trusted writes
    bool retrofit_shootdown = true;  // MmuPolicy::RetrofitKey
    bool flush_on_exit = true;       // sandbox-exit mitigation flush
  };

  Tlb();

  // Global enable: EREBOR_TLB=0 disables (default enabled); SetEnabled overrides the
  // environment (benches toggle it to prove cycle-neutrality within one process).
  static bool Enabled() { return enabled_; }
  static void SetEnabled(bool enabled) { enabled_ = enabled; }
  static Hooks& hooks();
  static Stats& GlobalStats() { return stats_; }
  static void ResetGlobalStats() { stats_ = Stats{}; }

  // Side-effect-free leaf probe: the cached WalkResult for (root, va's page, mode),
  // or nullptr on a miss or with the TLB disabled. Its `pa` is the 4 KiB page base
  // (add va & kPageMask). Counts nothing: a caller that uses the entry counts the
  // hit itself, so a probe whose access is then denied and retried through
  // WalkCached is counted once, there.
  const WalkResult* ProbeLeaf(Paddr root, Vaddr va, CpuMode mode) const {
    if (!enabled_) {
      return nullptr;
    }
    const LeafEntry& le = leaf_[LeafIndex(root, va, mode)];
    if (le.valid && le.gen == generation_ && le.root == root &&
        le.va_page == (va & ~kPageMask) && le.mode == mode) {
      return &le.result;
    }
    return nullptr;
  }

  // Advances on every change to what ProbeLeaf can return: each leaf fill, each
  // cleared leaf slot (InvalidatePage, FlushRoot and ShootdownEntry clear through
  // one helper) and each FlushAll. Part of Cpu::access_epoch().
  uint64_t epoch() const { return epoch_; }

  // The cached walk: leaf probe, then structure-cache-assisted leaf read, then a
  // full walk (which fills both caches). Bit-identical results and error messages
  // to WalkPageTables under the shipped invalidation hooks. With the TLB globally
  // disabled this is exactly WalkPageTables.
  StatusOr<WalkResult> WalkCached(const PhysMemory& memory, Paddr root, Vaddr va,
                                  CpuMode mode);

  // ---- Invalidation primitives (called via Cpu/Machine broadcast helpers) ----
  void FlushAll();
  // Drops every entry keyed by `root` (address-space teardown: the root frame may be
  // recycled as a new PML4, so its keys must die with it).
  void FlushRoot(Paddr root);
  // invlpg: drops the leaf entry for (root, page of va). Structure-cache entries
  // survive — a leaf-level change never alters the intermediate levels.
  void InvalidatePage(Paddr root, Vaddr va);
  // Monitor shootdown: drops every leaf entry whose cached PTE lives at `entry_pa`
  // and every structure-cache entry whose walk path traversed `entry_pa` (covers
  // intermediate-entry rewrites such as huge-page split relinks and U/S widening).
  void ShootdownEntry(Paddr entry_pa);

 private:
  // Slots carry a generation stamp so FlushAll is O(1): it bumps `generation_` and
  // every stamped entry goes stale without being touched (unmap-heavy workloads flush
  // and shoot down tens of thousands of times — maintenance must stay off the host's
  // critical path or the TLB loses the wall-clock time it saves).
  struct LeafEntry {
    bool valid = false;      // slot occupied (tag bookkeeping); may still be stale
    CpuMode mode = CpuMode::kSupervisor;
    uint64_t gen = 0;        // logically valid only when gen == generation_
    Paddr root = 0;
    Vaddr va_page = 0;      // 4 KiB-aligned
    WalkResult result{};    // pa = walk pa with the low 12 bits of va removed
  };
  struct StructureEntry {
    bool valid = false;      // slot occupied; logical validity also needs gen
    uint64_t gen = 0;
    Paddr root = 0;
    Vaddr region = 0;       // va >> 21 (2 MiB region covered by one level-1 table)
    Paddr l1_table = 0;     // base of the level-1 table
    Paddr path_pa[kPagingLevels - 1] = {0, 0, 0};  // entry pas at levels 3, 2, 1
    bool inter_user = true;      // AND of U across levels 3..1
    bool inter_writable = true;  // AND of W across levels 3..1
    bool inter_nx = false;       // OR of NX across levels 3..1
  };
  // Exact reverse index leaf_entry_pa -> leaf slots, so ShootdownEntry is O(ways)
  // instead of a full-array scan. A bucket that ever exceeds kTagWays residents
  // falls back to the scan for its hash class (overflow is ~Poisson(1) tail, so
  // practically never with 8 ways).
  static constexpr int kTagWays = 8;
  struct TagBucket {
    uint8_t count = 0;
    bool overflow = false;
    uint16_t slot[kTagWays] = {};
  };
  // Counting filter over the structure-cache path pas: most shootdowns target leaf
  // PTEs that appear on no cached intermediate path, so the 128-entry scan is skipped
  // unless the filter says a path might contain the address.
  static constexpr size_t kStructureFilterBuckets = 4096;

  // Mixes the key bits so distinct (root, page, mode) triples spread across the
  // direct-mapped arrays; roots and pages are both 4 KiB-aligned.
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return x;
  }
  static size_t LeafIndex(Paddr root, Vaddr va, CpuMode mode) {
    const uint64_t mode_salt = mode == CpuMode::kUser ? 0x9E3779B97F4A7C15ULL : 0;
    return Mix((va >> kPageShift) ^ (root << 17) ^ mode_salt) & (kLeafEntries - 1);
  }
  static size_t StructureIndex(Paddr root, Vaddr va);

  void Insert(Paddr root, Vaddr va, CpuMode mode, const WalkResult& result);
  void InsertStructure(Paddr root, Vaddr va, const WalkPath& path);
  void TagInsert(Paddr pa, size_t slot);
  void TagRemove(Paddr pa, size_t slot);
  void ClearLeafSlot(size_t slot);
  void FilterAdd(const StructureEntry& se);
  void FilterRemove(const StructureEntry& se);

  static bool enabled_;  // EREBOR_TLB at startup, then SetEnabled
  static Stats stats_;

  uint64_t generation_ = 1;
  uint64_t epoch_ = 0;
  std::vector<LeafEntry> leaf_;
  // Parallel tag array: leaf_entry_pa per occupied slot (0 = empty). The overflow
  // fallback and FlushRoot scan this 16 KiB array instead of the full entry structs.
  std::vector<Paddr> leaf_tags_;
  std::vector<TagBucket> tag_buckets_;
  std::vector<StructureEntry> structure_;
  std::vector<uint16_t> structure_filter_;
};

// True when the old->new transition of a present PTE narrows what the translation
// allows (frame change, P cleared, W cleared, U changed, NX set, pkey change,
// shadow-stack encoding change). Grant-only changes still invalidate conservatively
// at the mutation sites; this predicate identifies the security-critical subset the
// monitor must shoot down even for a kernel that skips its own invlpg.
bool PteRevokesPermissions(Pte old_value, Pte new_value);

// Deferred shootdown coalescing for batched MMU updates: the monitor's ring
// drain collects the leaf-entry addresses that need invalidation across a whole
// submission window and flushes each distinct address once at the end, instead
// of broadcasting per PTE write. Iteration order is deterministic (ordered set)
// so coalesced drains stay bit-identical across runs and engines.
class TlbShootdownBatch {
 public:
  // Queues entry_pa; returns false (and counts a coalesce) when it was already
  // pending in this batch.
  bool Add(Paddr entry_pa) {
    if (!pending_.insert(entry_pa).second) {
      ++coalesced_;
      return false;
    }
    return true;
  }
  size_t size() const { return pending_.size(); }
  uint64_t coalesced() const { return coalesced_; }
  const std::set<Paddr>& entries() const { return pending_; }
  void Clear() {
    pending_.clear();
    coalesced_ = 0;
  }

 private:
  std::set<Paddr> pending_;
  uint64_t coalesced_ = 0;
};

}  // namespace erebor

#endif  // EREBOR_SRC_HW_TLB_H_
