// System call numbers (Linux x86-64 numbering where an equivalent exists).
#ifndef EREBOR_SRC_KERNEL_SYSCALLS_H_
#define EREBOR_SRC_KERNEL_SYSCALLS_H_

#include <cstdint>

namespace erebor {
namespace sys {

inline constexpr int kRead = 0;
inline constexpr int kWrite = 1;
inline constexpr int kOpen = 2;
inline constexpr int kClose = 3;
inline constexpr int kStat = 4;
inline constexpr int kMmap = 9;
inline constexpr int kMunmap = 11;
inline constexpr int kBrk = 12;
inline constexpr int kSigaction = 13;
inline constexpr int kIoctl = 16;
inline constexpr int kSchedYield = 24;
inline constexpr int kNanosleep = 35;
inline constexpr int kGetpid = 39;
inline constexpr int kSendto = 44;
inline constexpr int kRecvfrom = 45;
inline constexpr int kClone = 56;
inline constexpr int kFork = 57;
inline constexpr int kExit = 60;
inline constexpr int kWait4 = 61;
inline constexpr int kKill = 62;
inline constexpr int kGettid = 186;
inline constexpr int kFutex = 202;

// mmap prot/flags (subset).
inline constexpr uint64_t kProtRead = 1;
inline constexpr uint64_t kProtWrite = 2;
inline constexpr uint64_t kMapPopulate = 0x8000;

// futex ops.
inline constexpr uint64_t kFutexWait = 0;
inline constexpr uint64_t kFutexWake = 1;

// Result convention: syscalls return StatusOr<uint64_t>; a kUnavailable status with
// message "EAGAIN" models would-block situations the caller should retry after
// yielding (see kernel.h).

}  // namespace sys

class Status;
class SyscallContext;

// True for the would-block convention above (any kUnavailable status). Callers must
// treat every other error as hard failure — retrying a PermissionDenied forever is
// how sessions wedge.
bool IsWouldBlock(const Status& status);

// The bounded retry budget for would-block results. Cooperative programs are
// cross-slice state machines, so the backoff is a value held in the program's state:
// each ShouldRetry() call accounts one attempt, charges a compute wait that doubles
// from kBaseWaitCycles up to kMaxWaitCycles, and tells the caller whether budget
// remains. After kMaxAttempts it returns false — the caller must fail the operation
// instead of spinning forever on a peer that will never answer. The schedule is the
// unjittered policy of src/common/backoff.h, which the workload golden cycle counts
// were calibrated against.
//
//   if (!input.ok()) {
//     if (!IsWouldBlock(input.status())) return Fail(input.status());
//     if (!backoff.ShouldRetry(ctx)) return Fail("retry budget exhausted");
//     return StepOutcome::kYield;
//   }
struct EagainBackoff {
  static constexpr uint64_t kMaxAttempts = 10'000;
  static constexpr uint64_t kBaseWaitCycles = 1'000;
  static constexpr uint64_t kMaxWaitCycles = 64'000;

  uint64_t attempts = 0;

  bool ShouldRetry(SyscallContext& ctx);  // defined in kernel.cc
};

}  // namespace erebor

#endif  // EREBOR_SRC_KERNEL_SYSCALLS_H_
