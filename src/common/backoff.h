// Shared jittered-exponential-backoff policy: the one retry schedule used by both
// bounded-retry loops in the tree. The app driver's wait for client input
// (EagainBackoff, src/kernel/syscalls.h) runs it unjittered; RemoteClient's
// retransmits, which the fleet supervisor's request retries draw on, run it jittered.
//
// The wait ceiling doubles per attempt from base_wait up to max_wait. The realized
// wait is drawn uniformly from [ceiling - ceiling*jitter_pct/100, ceiling] with a
// deterministic per-(seed, attempt) hash: replays are bit-identical, while distinct
// seeds decorrelate — a fleet of clients that all time out together does not
// retransmit together, so synchronized retry storms cannot form. jitter_pct == 0
// gives the fixed schedule min(base_wait << attempt, max_wait), which the workload
// golden cycle counts were calibrated against.
#ifndef EREBOR_SRC_COMMON_BACKOFF_H_
#define EREBOR_SRC_COMMON_BACKOFF_H_

#include <cstdint>

namespace erebor {

struct BackoffPolicy {
  uint64_t max_attempts = 10'000;
  uint64_t base_wait = 1'000;  // first wait ceiling, in the caller's time unit
  uint64_t max_wait = 64'000;  // exponential cap
  uint32_t jitter_pct = 0;     // 0 = legacy fixed schedule (bit-compatible)
};

// The wait for the given zero-based attempt. Pure: same (policy, seed, attempt)
// always yields the same wait.
uint64_t JitteredBackoffWait(const BackoffPolicy& policy, uint64_t seed,
                             uint64_t attempt);

// Value-type retry budget over a policy. Each NextWait() accounts one attempt and
// yields the wait to apply before the retry; false means the budget is exhausted
// and the caller must fail the operation instead of spinning forever.
class JitteredBackoff {
 public:
  JitteredBackoff() = default;
  JitteredBackoff(const BackoffPolicy& policy, uint64_t seed)
      : policy_(policy), seed_(seed) {}

  bool NextWait(uint64_t* wait_out);

  bool exhausted() const { return attempts_ >= policy_.max_attempts; }
  uint64_t attempts() const { return attempts_; }
  const BackoffPolicy& policy() const { return policy_; }
  void Reset() { attempts_ = 0; }

 private:
  BackoffPolicy policy_;
  uint64_t seed_ = 0;
  uint64_t attempts_ = 0;
};

}  // namespace erebor

#endif  // EREBOR_SRC_COMMON_BACKOFF_H_
