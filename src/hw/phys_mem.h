// Simulated guest physical memory.
//
// Frames are 4 KiB and allocated lazily so that a "24 GB" guest can be modelled without
// committing host RAM: a frame's backing store exists only after its first write or
// FramePtr, and an absent frame reads as zero. Each frame carries TDX attributes
// (private vs shared) that are settable only through the TDX module (tdcall MapGPA);
// device DMA is checked against them, reproducing the CVM memory-protection rules of
// paper section 2.1.
#ifndef EREBOR_SRC_HW_PHYS_MEM_H_
#define EREBOR_SRC_HW_PHYS_MEM_H_

#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/hw/types.h"

namespace erebor {

class TdxModule;  // friend: the only component allowed to flip private/shared

class PhysMemory {
 public:
  explicit PhysMemory(uint64_t num_frames);

  uint64_t num_frames() const { return num_frames_; }
  uint64_t size_bytes() const { return num_frames_ * kPageSize; }

  bool Contains(Paddr pa, uint64_t len = 1) const {
    return pa + len <= size_bytes() && pa + len >= pa;
  }

  // Raw access, used by the CPU *after* translation checks and by trusted components
  // (TDX module). May cross frame boundaries.
  Status Read(Paddr pa, uint8_t* out, uint64_t len) const;
  Status Write(Paddr pa, const uint8_t* data, uint64_t len);

  // 8-byte little-endian access. An aligned in-range address lies in one frame and
  // is a single load/store; anything else (unaligned, frame-straddling, out of
  // range) goes through Read/Write. Untouched frames read as 0 without being
  // committed; out-of-range reads return 0 and out-of-range writes are dropped.
  uint64_t Read64(Paddr pa) const {
    if ((pa & 7) == 0 && pa < size_bytes()) {
      const uint8_t* frame = frames_[FrameOf(pa)].get();
      return frame != nullptr ? LoadLe64(frame + (pa & kPageMask)) : 0;
    }
    return Read64Slow(pa);
  }
  void Write64(Paddr pa, uint64_t value) {
    if ((pa & 7) == 0 && pa < size_bytes()) {
      StoreLe64(FramePtr(FrameOf(pa)) + (pa & kPageMask), value);
      return;
    }
    Write64Slow(pa, value);
  }

  // Zero an entire frame (used for scrubbing).
  void ZeroFrame(FrameNum frame);

  // Direct pointer to a frame's backing storage (allocating it if needed). Callers must
  // have performed their own permission checks; this is the simulation's "DRAM bus".
  uint8_t* FramePtr(FrameNum frame) {
    uint8_t* present = frames_[frame].get();
    return present != nullptr ? present : EnsureFrame(frame);
  }
  const uint8_t* FramePtrIfPresent(FrameNum frame) const;

  // TDX attribute: shared frames are visible to the host and devices; private frames
  // are CVM-only. Boot state: everything private.
  bool IsShared(FrameNum frame) const;

  // Count of frames whose backing store has been touched (memory-footprint metric).
  uint64_t CommittedFrames() const { return committed_frames_; }

 private:
  friend class TdxModule;
  void SetShared(FrameNum frame, bool shared);  // TDX module only

  uint64_t num_frames_;
  mutable std::vector<std::unique_ptr<uint8_t[]>> frames_;
  std::vector<uint8_t> shared_;  // 0 = private, 1 = shared
  mutable uint64_t committed_frames_ = 0;

  uint8_t* EnsureFrame(FrameNum frame) const;
  uint64_t Read64Slow(Paddr pa) const;
  void Write64Slow(Paddr pa, uint64_t value);
};

}  // namespace erebor

#endif  // EREBOR_SRC_HW_PHYS_MEM_H_
