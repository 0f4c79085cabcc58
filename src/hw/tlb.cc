#include "src/hw/tlb.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/exec.h"
#include "src/common/metrics.h"

namespace erebor {

namespace {

bool EnvEnabled() {
  // EREBOR_TLB=0 disables; anything else (including unset) enables.
  const char* env = std::getenv("EREBOR_TLB");
  return env == nullptr || env[0] != '0';
}

}  // namespace

bool Tlb::enabled_ = EnvEnabled();
Tlb::Stats Tlb::stats_;

Tlb::Tlb()
    : leaf_(kLeafEntries),
      leaf_tags_(kLeafEntries, 0),
      tag_buckets_(kLeafEntries),
      structure_(kStructureEntries),
      structure_filter_(kStructureFilterBuckets, 0) {
  // Opportunistically (re-)register the aggregate counters; MetricsRegistry::Reset()
  // drops external registrations, and worlds construct Machines often, so the latest
  // construction re-binds them.
  MetricsRegistry& registry = MetricsRegistry::Global();
  Stats& stats = GlobalStats();
  registry.RegisterExternalCounter("tlb.hits", &stats.hits);
  registry.RegisterExternalCounter("tlb.psc_hits", &stats.psc_hits);
  registry.RegisterExternalCounter("tlb.misses", &stats.misses);
  registry.RegisterExternalCounter("tlb.flushes", &stats.flushes);
  registry.RegisterExternalCounter("tlb.invlpg", &stats.invlpg);
  registry.RegisterExternalCounter("tlb.shootdowns", &stats.shootdowns);
  registry.RegisterExternalCounter("paging.walk_read64s", &PageTableWalkReads());
}

Tlb::Hooks& Tlb::hooks() {
  static Hooks hooks;
  return hooks;
}

size_t Tlb::StructureIndex(Paddr root, Vaddr va) {
  return Mix((va >> 21) ^ (root << 13)) & (kStructureEntries - 1);
}

StatusOr<WalkResult> Tlb::WalkCached(const PhysMemory& memory, Paddr root, Vaddr va,
                                     CpuMode mode) {
  if (!Enabled()) {
    return WalkPageTables(memory, root, va);
  }
  if (const WalkResult* cached = ProbeLeaf(root, va, mode)) {
    CounterAdd(GlobalStats().hits);
    WalkResult result = *cached;
    result.pa += va & kPageMask;
    return result;
  }

  StructureEntry& se = structure_[StructureIndex(root, va)];
  if (se.valid && se.gen == generation_ && se.root == root && se.region == (va >> 21)) {
    // One leaf read instead of a four-level descent. The structure entry is only
    // created from a walk that reached a level-0 table, so a non-present leaf here
    // fails exactly like the full walk: at level 0.
    CounterAdd(GlobalStats().psc_hits);
    const Paddr slot = se.l1_table + PteIndex(va, 0) * sizeof(Pte);
    const Pte entry = memory.Read64(slot);
    CounterAdd(PageTableWalkReads());
    if (!pte::Present(entry)) {
      return NotFoundError("non-present PTE at level 0");
    }
    WalkResult result;
    result.leaf = entry;
    result.level = 0;
    result.leaf_entry_pa = slot;
    result.user_accessible = se.inter_user && pte::User(entry);
    result.writable = se.inter_writable && pte::Writable(entry);
    result.no_execute = se.inter_nx || pte::NoExecute(entry);
    result.pkey = pte::Pkey(entry);
    result.shadow_stack = pte::IsShadowStack(entry);
    result.pa = (pte::Frame(entry) << kPageShift) + (va & kPageMask);
    Insert(root, va, mode, result);
    return result;
  }

  CounterAdd(GlobalStats().misses);
  WalkPath path;
  auto walk = WalkPageTables(memory, root, va, &path);
  // Cache the intermediate path whenever the walk reached the level-0 table, even if
  // the leaf itself was non-present (demand-fault streams probe fresh pages in already
  // -built regions). Failed *results* are never cached, so a subsequent MapPage needs
  // no invalidation to become visible.
  if (path.leaf_table != 0) {
    InsertStructure(root, va, path);
  }
  if (walk.ok()) {
    Insert(root, va, mode, *walk);
  }
  return walk;
}

void Tlb::TagInsert(Paddr pa, size_t slot) {
  TagBucket& bucket = tag_buckets_[Mix(pa) & (kLeafEntries - 1)];
  if (bucket.count < kTagWays) {
    bucket.slot[bucket.count++] = static_cast<uint16_t>(slot);
  } else {
    bucket.overflow = true;  // fall back to the tag-array scan for this hash class
  }
}

void Tlb::TagRemove(Paddr pa, size_t slot) {
  TagBucket& bucket = tag_buckets_[Mix(pa) & (kLeafEntries - 1)];
  for (int i = 0; i < bucket.count; ++i) {
    if (bucket.slot[i] == slot) {
      bucket.slot[i] = bucket.slot[--bucket.count];
      return;
    }
  }
  // Not present: the insert overflowed; the overflow scan still covers the slot.
}

void Tlb::ClearLeafSlot(size_t slot) {
  ++epoch_;
  leaf_[slot].valid = false;
  if (leaf_tags_[slot] != 0) {
    TagRemove(leaf_tags_[slot], slot);
    leaf_tags_[slot] = 0;
  }
}

void Tlb::FilterAdd(const StructureEntry& se) {
  for (Paddr pa : se.path_pa) {
    if (pa != 0) {
      ++structure_filter_[Mix(pa) & (kStructureFilterBuckets - 1)];
    }
  }
}

void Tlb::FilterRemove(const StructureEntry& se) {
  for (Paddr pa : se.path_pa) {
    if (pa != 0) {
      uint16_t& count = structure_filter_[Mix(pa) & (kStructureFilterBuckets - 1)];
      if (count > 0) {
        --count;
      }
    }
  }
}

void Tlb::Insert(Paddr root, Vaddr va, CpuMode mode, const WalkResult& result) {
  ++epoch_;
  const size_t index = LeafIndex(root, va, mode);
  LeafEntry& le = leaf_[index];
  if (leaf_tags_[index] != result.leaf_entry_pa) {
    if (leaf_tags_[index] != 0) {
      TagRemove(leaf_tags_[index], index);
    }
    if (result.leaf_entry_pa != 0) {
      TagInsert(result.leaf_entry_pa, index);
    }
    leaf_tags_[index] = result.leaf_entry_pa;
  }
  le.valid = true;
  le.gen = generation_;
  le.mode = mode;
  le.root = root;
  le.va_page = va & ~kPageMask;
  le.result = result;
  le.result.pa -= va & kPageMask;
}

void Tlb::InsertStructure(Paddr root, Vaddr va, const WalkPath& path) {
  StructureEntry& se = structure_[StructureIndex(root, va)];
  if (se.valid) {
    FilterRemove(se);
  }
  se.valid = true;
  se.gen = generation_;
  se.root = root;
  se.region = va >> 21;
  se.l1_table = path.leaf_table;
  for (int i = 0; i < kPagingLevels - 1; ++i) {
    se.path_pa[i] = path.entry_pa[i + 1];  // levels 1..3
  }
  se.inter_user = path.inter_user;
  se.inter_writable = path.inter_writable;
  se.inter_nx = path.inter_nx;
  FilterAdd(se);
}

void Tlb::FlushAll() {
  // O(1): stamped entries go stale without being touched. Occupancy bookkeeping
  // (tags, buckets, filter) survives and is reclaimed slot-by-slot on reuse.
  CounterAdd(GlobalStats().flushes);
  ++generation_;
  ++epoch_;
}

void Tlb::FlushRoot(Paddr root) {
  for (size_t i = 0; i < leaf_.size(); ++i) {
    if (leaf_[i].valid && leaf_[i].root == root) {
      ClearLeafSlot(i);
    }
  }
  for (StructureEntry& se : structure_) {
    if (se.valid && se.root == root) {
      se.valid = false;
      FilterRemove(se);
    }
  }
}

void Tlb::InvalidatePage(Paddr root, Vaddr va) {
  const Vaddr va_page = va & ~kPageMask;
  for (CpuMode mode : {CpuMode::kSupervisor, CpuMode::kUser}) {
    const size_t index = LeafIndex(root, va, mode);
    LeafEntry& le = leaf_[index];
    if (le.valid && le.root == root && le.va_page == va_page && le.mode == mode) {
      ClearLeafSlot(index);
    }
  }
}

void Tlb::ShootdownEntry(Paddr entry_pa) {
  if (entry_pa == 0) {
    return;  // 0 doubles as the "empty" tag
  }
  TagBucket& bucket = tag_buckets_[Mix(entry_pa) & (kLeafEntries - 1)];
  if (bucket.overflow) {
    for (size_t i = 0; i < leaf_tags_.size(); ++i) {
      if (leaf_tags_[i] == entry_pa) {
        ClearLeafSlot(i);
      }
    }
  } else {
    // Distinct pas share buckets, so re-check the tag before dropping a slot.
    // ClearLeafSlot swap-removes from this bucket, hence the backwards walk.
    for (int i = bucket.count - 1; i >= 0; --i) {
      const size_t slot = bucket.slot[i];
      if (leaf_tags_[slot] == entry_pa) {
        ClearLeafSlot(slot);
      }
    }
  }
  if (structure_filter_[Mix(entry_pa) & (kStructureFilterBuckets - 1)] == 0) {
    return;  // no cached intermediate path traverses this entry
  }
  for (StructureEntry& se : structure_) {
    if (!se.valid) {
      continue;
    }
    for (Paddr pa : se.path_pa) {
      if (pa == entry_pa) {
        se.valid = false;
        FilterRemove(se);
        break;
      }
    }
  }
}

bool PteRevokesPermissions(Pte old_value, Pte new_value) {
  if (!pte::Present(old_value)) {
    return false;
  }
  if (!pte::Present(new_value)) {
    return true;
  }
  if ((old_value & pte::kFrameMask) != (new_value & pte::kFrameMask)) {
    return true;
  }
  if (pte::Writable(old_value) && !pte::Writable(new_value)) {
    return true;
  }
  if (pte::User(old_value) != pte::User(new_value)) {
    return true;
  }
  if (!pte::NoExecute(old_value) && pte::NoExecute(new_value)) {
    return true;
  }
  if (pte::Pkey(old_value) != pte::Pkey(new_value)) {
    return true;
  }
  // A keyID change (TME-MK, bits 52..62; superset of the pkey field) changes
  // what an access through a cached translation does — treat as a revocation.
  if (pte::KeyId(old_value) != pte::KeyId(new_value)) {
    return true;
  }
  if (pte::IsShadowStack(old_value) != pte::IsShadowStack(new_value)) {
    return true;
  }
  return false;
}

}  // namespace erebor
