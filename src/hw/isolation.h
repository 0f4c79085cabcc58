// Hardware-level isolation-mechanism types shared by the CPU and the monitor's
// pluggable IsolationBackend seam (src/monitor/isolation.h).
//
// Two mechanisms are modelled:
//  - PKS: supervisor protection keys in PTE bits 59..62, checked against
//    IA32_PKRS on supervisor data accesses (see Cpu::TranslateAs). All PKS
//    state lives on the Cpu; nothing here is needed beyond the enum.
//  - TME-MK: memory-encryption keyIDs in PTE bits 52..62, enforced at the
//    memory controller. The KeyIdMap below is that controller state: one
//    binding per physical frame, programmed by the monitor (PCONFIG-style).
//    An access whose mapping keyID differs from the frame's binding reads
//    ciphertext on real hardware; the simulation surfaces it as a #PF with
//    the protection-key error bit, the same observable the PKS backend uses.
#ifndef EREBOR_SRC_HW_ISOLATION_H_
#define EREBOR_SRC_HW_ISOLATION_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/hw/types.h"

namespace erebor {

enum class IsolationKind : uint8_t {
  kPks,    // 16 supervisor protection keys (PTE bits 59..62 + IA32_PKRS)
  kTmeMk,  // TME-MK encryption keyIDs (PTE bits 52..62, per-frame bindings)
};

inline const char* IsolationKindName(IsolationKind kind) {
  switch (kind) {
    case IsolationKind::kPks:
      return "pks";
    case IsolationKind::kTmeMk:
      return "tme-mk";
  }
  return "unknown";
}

// Per-frame keyID binding table — the simulated memory-controller state for
// TME-MK. A binding is a keyID plus a read-shared bit: read-shared frames
// (kernel text, page-table pages) may be read/fetched through any keyID but
// written only through the bound one; private frames (monitor state, sandbox
// confined memory) require an exact keyID match for every access.
//
// Slots are relaxed atomics so vCPU threads under the real-thread engine can
// check translations while the monitor (serialized by the EMC lock) rebinds:
// each slot is an independent word, and the monitor's shootdown protocol
// already orders rebinds against stale cached translations. A rebind issues no
// shootdown of its own, so every Bind also advances generation(), which
// Cpu::access_epoch() folds in for the page cursors that cache checked accesses.
class KeyIdMap {
 public:
  static constexpr uint32_t kKeyMask = 0x7FFu;         // 11-bit keyID
  static constexpr uint32_t kReadSharedBit = 1u << 31;

  explicit KeyIdMap(uint64_t num_frames) : slots_(num_frames) {}

  uint64_t num_frames() const { return slots_.size(); }

  void Bind(FrameNum frame, uint32_t keyid, bool read_shared) {
    if (frame >= slots_.size()) {
      return;
    }
    slots_[frame].store((keyid & kKeyMask) | (read_shared ? kReadSharedBit : 0),
                        std::memory_order_relaxed);
    generation_.fetch_add(1);
  }

  uint64_t generation() const { return generation_.load(); }

  uint32_t KeyOf(FrameNum frame) const {
    if (frame >= slots_.size()) {
      return 0;
    }
    return slots_[frame].load(std::memory_order_relaxed) & kKeyMask;
  }

  bool ReadShared(FrameNum frame) const {
    if (frame >= slots_.size()) {
      return false;
    }
    return (slots_[frame].load(std::memory_order_relaxed) & kReadSharedBit) != 0;
  }

 private:
  std::vector<std::atomic<uint32_t>> slots_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace erebor

#endif  // EREBOR_SRC_HW_ISOLATION_H_
