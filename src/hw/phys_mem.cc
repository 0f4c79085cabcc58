#include "src/hw/phys_mem.h"

#include <cstring>

namespace erebor {

PhysMemory::PhysMemory(uint64_t num_frames)
    : num_frames_(num_frames), frames_(num_frames), shared_(num_frames, 0) {}

uint8_t* PhysMemory::EnsureFrame(FrameNum frame) const {
  auto& slot = frames_[frame];
  if (!slot) {
    slot = std::make_unique<uint8_t[]>(kPageSize);  // value-initialized: zeroed
    ++committed_frames_;
  }
  return slot.get();
}

Status PhysMemory::Read(Paddr pa, uint8_t* out, uint64_t len) const {
  if (!Contains(pa, len)) {
    return OutOfRangeError("physical read out of range");
  }
  while (len > 0) {
    const FrameNum frame = FrameOf(pa);
    const uint64_t offset = pa & kPageMask;
    const uint64_t take = std::min(len, kPageSize - offset);
    const uint8_t* src = frames_[frame] ? frames_[frame].get() : nullptr;
    if (src != nullptr) {
      std::memcpy(out, src + offset, take);
    } else {
      std::memset(out, 0, take);  // untouched frames read as zero
    }
    out += take;
    pa += take;
    len -= take;
  }
  return OkStatus();
}

Status PhysMemory::Write(Paddr pa, const uint8_t* data, uint64_t len) {
  if (!Contains(pa, len)) {
    return OutOfRangeError("physical write out of range");
  }
  while (len > 0) {
    const FrameNum frame = FrameOf(pa);
    const uint64_t offset = pa & kPageMask;
    const uint64_t take = std::min(len, kPageSize - offset);
    std::memcpy(EnsureFrame(frame) + offset, data, take);
    data += take;
    pa += take;
    len -= take;
  }
  return OkStatus();
}

uint64_t PhysMemory::Read64Slow(Paddr pa) const {
  uint8_t buf[8] = {0};
  (void)Read(pa, buf, sizeof(buf));
  return LoadLe64(buf);
}

void PhysMemory::Write64Slow(Paddr pa, uint64_t value) {
  uint8_t buf[8];
  StoreLe64(buf, value);
  (void)Write(pa, buf, sizeof(buf));
}

void PhysMemory::ZeroFrame(FrameNum frame) {
  if (frame < num_frames_ && frames_[frame]) {
    std::memset(frames_[frame].get(), 0, kPageSize);
  }
}

const uint8_t* PhysMemory::FramePtrIfPresent(FrameNum frame) const {
  return frame < num_frames_ && frames_[frame] ? frames_[frame].get() : nullptr;
}

bool PhysMemory::IsShared(FrameNum frame) const {
  return frame < num_frames_ && shared_[frame] != 0;
}

void PhysMemory::SetShared(FrameNum frame, bool shared) {
  if (frame < num_frames_) {
    shared_[frame] = shared ? 1 : 0;
  }
}

}  // namespace erebor
