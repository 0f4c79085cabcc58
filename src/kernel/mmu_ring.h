// MMU submission/completion rings (kernel <-> monitor shared memory).
//
// Fig8's worst overheads are the MMU-heavy paths because every PTE store, TLB
// shootdown, and frame op pays the full EMC gate round trip. This header is the
// shared-memory ring ABI that amortizes the crossing io_uring-style: the kernel
// stages typed descriptors into a fixed-slot submission queue (SQ), crosses the
// EMC gate once per doorbell, and the monitor drains the window through the
// table-driven dispatch core — validating, charging Table-4 cost, and tracing
// per descriptor exactly as the synchronous path does — posting one completion
// (CQE) per descriptor that the kernel reaps without a second crossing.
//
// Trust model: everything the kernel writes (sq_tail, cq_head, the SQ slots) is
// untrusted input to the monitor. The monitor keeps private shadow copies of
// the indexes it owns (sq_head, cq_tail) and snapshots the SQ window before
// validating it, so mid-drain mutation of a slot is harmless by construction.
// The structures live here (kernel/) because the kernel allocates them; the
// monitor-side drain and hardening live in src/monitor/emc_ring.{h,cc}.
#ifndef EREBOR_SRC_KERNEL_MMU_RING_H_
#define EREBOR_SRC_KERNEL_MMU_RING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "src/hw/paging.h"
#include "src/hw/types.h"

namespace erebor {

// Descriptor opcodes. A kPteSpan header is followed by `count` payload slots
// (flagged kSpanPayload): an all-or-nothing PTE batch without a
// variable-length SQE.
enum class RingOp : uint8_t {
  kNop = 0,
  kWritePte,      // arg0 = entry_pa, arg1 = value
  kPteSpan,       // header; count payload slots follow, each (entry_pa, value)
  kRegisterPtp,   // arg0 = frame, arg1 = root_pa
  kFrameReclaim,  // arg0 = frame (monitor-side scrub of a released frame)
  kCount,
};

namespace ring_flags {
inline constexpr uint8_t kSpanPayload = 1u << 0;  // slot is kPteSpan payload
}  // namespace ring_flags

// Submission-queue entry: POD, fixed size, written by the (untrusted) kernel.
struct RingSqe {
  RingOp op = RingOp::kNop;
  uint8_t flags = 0;
  uint16_t count = 0;       // kPteSpan header: number of payload slots following
  int32_t sandbox_id = -1;  // must match the ring's binding (-1 = kernel ring)
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint64_t user_data = 0;   // echoed in the CQE, opaque to the monitor
};

// Completion-queue entry, written by the monitor. `result` is 0 on success or
// the negated ErrorCode of the per-descriptor refusal.
struct RingCqe {
  uint64_t user_data = 0;
  int32_t result = 0;
  uint32_t flags = 0;
};

// One ring pair in kernel<->monitor shared memory. Indexes are free-running
// (slot = index & kMask, io_uring-style); all atomics are relaxed — the EMC
// gate crossing is the synchronization point between the two sides, the
// atomics only keep cross-thread index reads well-defined under the
// real-thread engine.
struct EmcRing {
  static constexpr uint32_t kSlots = 256;  // power of two
  static constexpr uint32_t kMask = kSlots - 1;

  // Kernel-written side (untrusted input to the monitor).
  std::atomic<uint32_t> sq_tail{0};
  std::atomic<uint32_t> cq_head{0};
  std::array<RingSqe, kSlots> sq{};

  // Monitor-written side (the kernel treats these as read-only).
  std::atomic<uint32_t> sq_head{0};
  std::atomic<uint32_t> cq_tail{0};
  std::array<RingCqe, kSlots> cq{};

  uint32_t SqPending() const {
    return sq_tail.load(std::memory_order_relaxed) -
           sq_head.load(std::memory_order_relaxed);
  }
  uint32_t CqPending() const {
    return cq_tail.load(std::memory_order_relaxed) -
           cq_head.load(std::memory_order_relaxed);
  }
};

// Kernel-side batch builder. Descriptors are staged locally, then Publish()
// copies them into the SQ and advances sq_tail; the caller crosses the gate
// (PrivilegedOps::RingDoorbell) and Reap() consumes the completions.
//
// The builder also keeps a write overlay — entry_pa -> staged PTE value — so
// page-table walks made while a batch is open observe staged-but-unapplied
// entries (MapRange creates an intermediate PTP and immediately links
// leaves under it within one batch). The overlay is cleared after a doorbell,
// once the monitor has applied the writes to real memory.
class MmuRingBatch {
 public:
  explicit MmuRingBatch(EmcRing* ring) : ring_(ring) {}

  size_t staged() const { return staged_.size(); }
  // SQ slots still available to this batch (capacity minus unconsumed SQEs
  // minus what is already staged locally).
  size_t FreeSlots() const {
    const uint32_t in_flight = ring_->SqPending();
    const size_t used = static_cast<size_t>(in_flight) + staged_.size();
    return used >= EmcRing::kSlots ? 0 : EmcRing::kSlots - used;
  }

  bool StagePteWrite(Paddr entry_pa, Pte value) {
    if (FreeSlots() < 1) {
      return false;
    }
    RingSqe sqe;
    sqe.op = RingOp::kWritePte;
    sqe.arg0 = entry_pa;
    sqe.arg1 = value;
    sqe.user_data = next_user_data_++;
    staged_.push_back(sqe);
    overlay_[entry_pa] = value;
    return true;
  }

  bool StagePteSpan(const std::vector<std::pair<Paddr, Pte>>& updates) {
    if (updates.empty() || FreeSlots() < updates.size() + 1) {
      return false;
    }
    RingSqe header;
    header.op = RingOp::kPteSpan;
    header.count = static_cast<uint16_t>(updates.size());
    header.user_data = next_user_data_++;
    staged_.push_back(header);
    for (const auto& [entry_pa, value] : updates) {
      RingSqe sqe;
      sqe.op = RingOp::kWritePte;
      sqe.flags = ring_flags::kSpanPayload;
      sqe.arg0 = entry_pa;
      sqe.arg1 = value;
      sqe.user_data = next_user_data_++;
      staged_.push_back(sqe);
      overlay_[entry_pa] = value;
    }
    return true;
  }

  bool StageRegisterPtp(FrameNum frame, Paddr root_pa) {
    if (FreeSlots() < 1) {
      return false;
    }
    RingSqe sqe;
    sqe.op = RingOp::kRegisterPtp;
    sqe.arg0 = frame;
    sqe.arg1 = root_pa;
    sqe.user_data = next_user_data_++;
    staged_.push_back(sqe);
    return true;
  }

  bool StageFrameReclaim(FrameNum frame) {
    if (FreeSlots() < 1) {
      return false;
    }
    RingSqe sqe;
    sqe.op = RingOp::kFrameReclaim;
    sqe.arg0 = frame;
    sqe.user_data = next_user_data_++;
    staged_.push_back(sqe);
    return true;
  }

  // Overlay read for walks issued while the batch is open: returns the staged
  // value for entry_pa, or `fallback` (the caller's Read64 result) when no
  // write to that slot is pending.
  Pte PendingRead(Paddr entry_pa, Pte fallback) const {
    const auto it = overlay_.find(entry_pa);
    return it == overlay_.end() ? fallback : it->second;
  }
  bool HasPending(Paddr entry_pa) const {
    return overlay_.find(entry_pa) != overlay_.end();
  }

  // Copies the staged descriptors into the SQ and advances sq_tail. Returns
  // the number of SQEs published (0 when nothing is staged).
  uint32_t Publish() {
    const uint32_t n = static_cast<uint32_t>(staged_.size());
    uint32_t tail = ring_->sq_tail.load(std::memory_order_relaxed);
    for (const RingSqe& sqe : staged_) {
      ring_->sq[tail & EmcRing::kMask] = sqe;
      ++tail;
    }
    ring_->sq_tail.store(tail, std::memory_order_relaxed);
    staged_.clear();
    return n;
  }

  // Consumes every available CQE, advancing cq_head. Returns the number
  // reaped; the first non-zero result (negated ErrorCode) lands in
  // *first_error when provided. Clears the overlay: once the monitor has
  // drained, staged writes are visible in real page-table memory.
  size_t Reap(int32_t* first_error = nullptr) {
    uint32_t head = ring_->cq_head.load(std::memory_order_relaxed);
    const uint32_t tail = ring_->cq_tail.load(std::memory_order_relaxed);
    size_t reaped = 0;
    while (head != tail) {
      const RingCqe& cqe = ring_->cq[head & EmcRing::kMask];
      if (first_error != nullptr && *first_error == 0 && cqe.result != 0) {
        *first_error = cqe.result;
      }
      ++head;
      ++reaped;
    }
    ring_->cq_head.store(head, std::memory_order_relaxed);
    overlay_.clear();
    return reaped;
  }

 private:
  EmcRing* ring_;
  std::vector<RingSqe> staged_;
  std::map<Paddr, Pte> overlay_;
  uint64_t next_user_data_ = 1;
};

}  // namespace erebor

#endif  // EREBOR_SRC_KERNEL_MMU_RING_H_
