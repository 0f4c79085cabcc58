// Simulated locking for the EMC dispatch layer, with a real-mutex backing for
// the kRealThreads execution engine.
//
// Under the deterministic engine the simulation is single-threaded, so these
// locks never block a host thread. What they model is the *serialization cost*
// of concurrent EMC service across vCPUs: every lock remembers the simulated
// cycle at which its last critical section ended (`free_at_`), and — when
// contention simulation is enabled — an acquiring vCPU whose own clock is
// behind that point is charged the wait. Two determinism rules make this safe
// to leave compiled in everywhere:
//
//   1. Uncontended acquire/release charge ZERO cycles. The real acquire cost is
//      already folded into the paper's 1224-cycle EMC round trip (Table 3), so
//      single-vCPU runs — and any run with contention simulation off, which is
//      the default — are bit-identical to the pre-lock monitor.
//   2. Every charge is a pure function of the per-vCPU cycle clocks at the
//      acquire site. No host time, no RNG: a replay with the same schedule
//      charges the same waits.
//
// Under ExecutionEngine::real_threads() every SimLock is backed by a real
// std::mutex: Acquire blocks the calling OS thread, Release unlocks it, and the
// same LockAudit rank discipline is enforced with the same lock-site names. Real
// contention is *observed* (real_contended_ / real_wait_ns_) but never charged
// as simulated cycles and never traced as kLockContend — wall-clock ordering may
// differ between runs, charged cycles may not, so a threaded run stays counter-
// and cycle-identical to a single-thread run with contention simulation off.
//
// Locks are chaos-preemptible: when the fault injector is armed, the sites
// "lock.acquire" / "lock.release" fire at every boundary crossing, and a
// kPreempt decision charges one interrupt delivery (the host yanked the vCPU at
// the lock edge). Firings land in the fault journal, so lock-boundary
// preemptions replay bit-identically from the seed.
//
// LockAudit (a process-global, like Tracer) tracks which locks each vCPU holds
// and enforces the discipline the invariant checker audits:
//   - acquisition order: sandbox locks < monitor-state lock < frame shards in
//     ascending shard index;
//   - no EMC body mutates a sandbox or applies a PTE without holding that
//     sandbox's lock / that frame shard's lock (checked at the mutation sites);
//   - all locks are released by the time a dispatch returns (checked at safe
//     points between scheduler slices).
#ifndef EREBOR_SRC_MONITOR_SIM_LOCK_H_
#define EREBOR_SRC_MONITOR_SIM_LOCK_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/hw/cycles.h"

namespace erebor {

class Cpu;

// Lock ranks, ascending acquisition order. Within kRankSandbox and
// kRankFrameShard, the sub-id (sandbox id / shard index) must also ascend.
enum LockRank : int {
  kRankSandbox = 0,       // per-sandbox serialization
  kRankMonitorState = 1,  // CR/MSR/IDT/tdcall/text state
  kRankFrameShard = 2,    // frame-table shard i ranks kRankFrameShard + i
};

class SimLock {
 public:
  SimLock() : mu_(std::make_shared<std::mutex>()) {}
  SimLock(std::string name, int rank, int sub = 0)
      : name_(std::move(name)), rank_(rank), sub_(sub),
        mu_(std::make_shared<std::mutex>()) {}

  // Acquires on `cpu`. When `simulate_contention`, charges the cycles until the
  // lock's last release point if the acquiring vCPU's clock is behind it. Under
  // real_threads(), blocks on the backing mutex instead; simulated waits are
  // never charged there (the wait is real).
  void Acquire(Cpu& cpu, bool simulate_contention);
  void Release(Cpu& cpu, bool simulate_contention);

  const std::string& name() const { return name_; }
  int rank() const { return rank_; }
  int sub() const { return sub_; }
  bool held() const { return held_; }
  int holder() const { return holder_; }

  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t contended() const { return contended_; }
  Cycles contention_cycles() const { return contention_cycles_; }
  // Real-thread contention observations (not part of the simulated cycle model;
  // the emc_scaling bench reports them alongside wall-clock throughput).
  uint64_t real_contended() const { return real_contended_; }
  uint64_t real_wait_ns() const { return real_wait_ns_; }

 private:
  std::string name_;
  int rank_ = kRankMonitorState;
  int sub_ = 0;
  Cycles free_at_ = 0;  // simulated end of the last critical section
  bool held_ = false;
  int holder_ = -1;
  uint64_t acquisitions_ = 0;
  uint64_t contended_ = 0;
  Cycles contention_cycles_ = 0;
  uint64_t real_contended_ = 0;
  uint64_t real_wait_ns_ = 0;
  // Backing mutex for kRealThreads. shared_ptr keeps SimLock copy-assignable
  // (EmcLockTable builds its shard array by assignment at construction time,
  // strictly before any thread exists); every named construction gets a fresh
  // mutex, so no two distinct locks ever share one.
  std::shared_ptr<std::mutex> mu_;
};

// RAII acquisition of one lock (helpers return it by guaranteed elision).
class SimLockGuard {
 public:
  SimLockGuard(SimLock& lock, Cpu& cpu, bool simulate_contention)
      : lock_(lock), cpu_(cpu), simulate_(simulate_contention) {
    lock_.Acquire(cpu_, simulate_);
  }
  ~SimLockGuard() { lock_.Release(cpu_, simulate_); }
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;

 private:
  SimLock& lock_;
  Cpu& cpu_;
  bool simulate_;
};

// Process-global lock-discipline bookkeeping. Tracks the per-vCPU held stack
// and counts violations; the invariant checker's lock family asserts the stacks
// are empty at safe points and that no violation was ever recorded.
class LockAudit {
 public:
  // Upper bound on simulated vCPUs; per-CPU held stacks are a fixed array so a
  // vCPU thread can reach its own stack without racing a resize triggered by a
  // peer (each thread only ever touches its own stack, violation counters are
  // relaxed-atomic bumps).
  static constexpr int kMaxCpus = 64;

  static LockAudit& Global();

  // Drops held stacks and violation counters (worlds arm this between runs so
  // one run's bug does not bleed into the next assertion).
  void Reset();

  // Called by SimLock. Checks rank/sub ordering against the holder's stack.
  void NoteAcquire(int cpu, const SimLock* lock);
  void NoteRelease(int cpu, const SimLock* lock);

  // Discipline probes at mutation sites. The check passes when this vCPU holds
  // the matching lock. Both record a violation instead of failing, so the
  // invariant checker reports them at the next safe point.
  void ExpectSandboxHeld(int cpu, int sandbox_id);
  void ExpectFrameShardHeld(int cpu, int shard);

  // True when `cpu` holds no locks (a dispatch in flight holds some; a safe
  // point between slices must hold none).
  bool NothingHeld(int cpu) const;

  uint64_t ordering_violations() const;
  uint64_t unheld_violations() const;
  uint64_t violations() const { return ordering_violations() + unheld_violations(); }

 private:
  LockAudit() = default;
  struct Held {
    const SimLock* lock;
    int rank;
    int sub;
  };
  std::vector<Held>& StackFor(int cpu);
  bool Holds(int cpu, int rank, int sub) const;

  std::array<std::vector<Held>, kMaxCpus> held_;  // indexed by vCPU
  uint64_t ordering_violations_ = 0;  // bumped via CounterAdd (thread-safe)
  uint64_t unheld_violations_ = 0;
};

// The monitor's lock table: the monitor-state lock and the sharded frame-table
// locks (per-sandbox locks live on the Sandbox itself). Frame shards are 2 MiB
// granules of the physical frame space modulo kFrameShards, so contiguous
// allocations (one sandbox's page tables and confined runs) mostly stay within
// one shard while distinct sandboxes land on distinct shards.
class EmcLockTable {
 public:
  static constexpr int kFrameShards = 16;

  EmcLockTable();

  // Contention simulation is opt-in (the emc_scaling bench turns it on); the
  // default keeps every existing single-vCPU figure bit-identical.
  bool simulate_contention() const { return simulate_contention_; }
  void set_simulate_contention(bool on) { simulate_contention_ = on; }

  static int ShardOf(uint64_t frame) {
    return static_cast<int>((frame >> 9) % kFrameShards);  // 512-frame granules
  }

  SimLock& monitor_state() { return monitor_state_; }
  SimLock& shard(int i) { return shards_[static_cast<size_t>(i)]; }

  // Guard helper for dispatch bodies that discover their target sandbox
  // mid-flight (channel packet handling).
  SimLockGuard SandboxGuard(Cpu& cpu, SimLock& sandbox_lock) {
    return SimLockGuard(sandbox_lock, cpu, simulate_contention_);
  }

 private:
  bool simulate_contention_ = false;
  SimLock monitor_state_;
  std::array<SimLock, kFrameShards> shards_;
};

}  // namespace erebor

#endif  // EREBOR_SRC_MONITOR_SIM_LOCK_H_
