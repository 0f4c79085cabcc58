#include "src/monitor/sim_lock.h"

#include <algorithm>
#include <chrono>

#include "src/common/exec.h"
#include "src/common/faultpoint.h"
#include "src/common/trace.h"
#include "src/hw/cpu.h"

namespace erebor {

void SimLock::Acquire(Cpu& cpu, bool simulate_contention) {
  if (FaultInjector::Armed() &&
      FaultInjector::Global().Fire("lock.acquire", FaultAction::kPreempt)) {
    // Host preemption on the lock-boundary crossing: the vCPU eats one external
    // interrupt delivery before it gets the lock. Pure cycle cost — the lock
    // state itself is monitor memory the host cannot touch.
    cpu.cycles().Charge(cpu.costs().interrupt_delivery);
  }
  if (ExecutionEngine::real_threads()) {
    // Real engine: block the OS thread. The wait is real, so nothing is charged
    // to the simulated clock and no kLockContend event is traced — that keeps
    // counters and cycles identical to the single-thread oracle (which runs
    // with contention simulation off when being compared against this mode).
    if (!mu_->try_lock()) {
      const auto t0 = std::chrono::steady_clock::now();
      mu_->lock();
      const auto waited = std::chrono::steady_clock::now() - t0;
      CounterAdd(real_contended_);
      CounterAdd(real_wait_ns_,
                 static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                         .count()));
    }
    // Everything below runs under the backing mutex, so held_/holder_ and the
    // acquisition count are mutated race-free; the audit's per-CPU stack is
    // this thread's own.
    LockAudit::Global().NoteAcquire(cpu.index(), this);
    ++acquisitions_;
    held_ = true;
    holder_ = cpu.index();
    return;
  }
  LockAudit::Global().NoteAcquire(cpu.index(), this);
  if (simulate_contention && cpu.cycles().now() < free_at_) {
    const Cycles wait = free_at_ - cpu.cycles().now();
    cpu.cycles().Charge(wait);
    ++contended_;
    contention_cycles_ += wait;
    Tracer::Global().Record(TraceEvent::kLockContend, cpu.index(),
                            cpu.cycles().now(), -1, wait);
  }
  ++acquisitions_;
  held_ = true;
  holder_ = cpu.index();
}

void SimLock::Release(Cpu& cpu, bool simulate_contention) {
  if (ExecutionEngine::real_threads()) {
    held_ = false;
    holder_ = -1;
    LockAudit::Global().NoteRelease(cpu.index(), this);
    mu_->unlock();
    if (FaultInjector::Armed() &&
        FaultInjector::Global().Fire("lock.release", FaultAction::kPreempt)) {
      cpu.cycles().Charge(cpu.costs().interrupt_delivery);
    }
    return;
  }
  if (simulate_contention) {
    free_at_ = std::max(free_at_, cpu.cycles().now());
  }
  held_ = false;
  holder_ = -1;
  LockAudit::Global().NoteRelease(cpu.index(), this);
  if (FaultInjector::Armed() &&
      FaultInjector::Global().Fire("lock.release", FaultAction::kPreempt)) {
    cpu.cycles().Charge(cpu.costs().interrupt_delivery);
  }
}

LockAudit& LockAudit::Global() {
  static LockAudit* audit = new LockAudit();
  return *audit;
}

void LockAudit::Reset() {
  for (std::vector<Held>& stack : held_) {
    stack.clear();
  }
  ordering_violations_ = 0;
  unheld_violations_ = 0;
}

uint64_t LockAudit::ordering_violations() const {
  return CounterLoad(ordering_violations_);
}

uint64_t LockAudit::unheld_violations() const {
  return CounterLoad(unheld_violations_);
}

std::vector<LockAudit::Held>& LockAudit::StackFor(int cpu) {
  // Clamp rather than grow: the array is fixed so vCPU threads can index their
  // own stacks without synchronizing against a resize.
  const size_t index =
      std::min<size_t>(static_cast<size_t>(std::max(cpu, 0)), kMaxCpus - 1);
  return held_[index];
}

void LockAudit::NoteAcquire(int cpu, const SimLock* lock) {
  std::vector<Held>& stack = StackFor(cpu);
  if (!stack.empty()) {
    const Held& top = stack.back();
    // Ascending ranks; within a rank, ascending sub-ids. Re-acquiring a held
    // lock (same rank+sub) is also an ordering violation: SimLock is not
    // recursive, so a nested acquire means a body bypassed its guard helper.
    if (top.rank > lock->rank() ||
        (top.rank == lock->rank() && top.sub >= lock->sub())) {
      CounterAdd(ordering_violations_);
    }
  }
  if (!ExecutionEngine::real_threads() && lock->held()) {
    // Double-acquire probe. Skipped under real threads: a peer legitimately
    // holding the lock is not a discipline violation there (we are about to
    // block on the mutex), and the same-thread case deadlocks the mutex before
    // this could even record — the ordering check above already flags it.
    CounterAdd(ordering_violations_);
  }
  stack.push_back(Held{lock, lock->rank(), lock->sub()});
}

void LockAudit::NoteRelease(int cpu, const SimLock* lock) {
  std::vector<Held>& stack = StackFor(cpu);
  // Releases come in reverse acquisition order; tolerate (but count) a release
  // of something this vCPU never acquired.
  const auto it = std::find_if(stack.rbegin(), stack.rend(),
                               [lock](const Held& h) { return h.lock == lock; });
  if (it == stack.rend()) {
    CounterAdd(ordering_violations_);
    return;
  }
  if (it != stack.rbegin()) {
    CounterAdd(ordering_violations_);  // out-of-order (non-LIFO) release
  }
  stack.erase(std::next(it).base());
}

bool LockAudit::Holds(int cpu, int rank, int sub) const {
  if (cpu < 0 || cpu >= kMaxCpus) {
    return false;
  }
  for (const Held& h : held_[static_cast<size_t>(cpu)]) {
    if (h.rank == rank && h.sub == sub) {
      return true;
    }
  }
  return false;
}

void LockAudit::ExpectSandboxHeld(int cpu, int sandbox_id) {
  if (!Holds(cpu, kRankSandbox, sandbox_id)) {
    CounterAdd(unheld_violations_);
  }
}

void LockAudit::ExpectFrameShardHeld(int cpu, int shard) {
  if (!Holds(cpu, kRankFrameShard + shard, shard)) {
    CounterAdd(unheld_violations_);
  }
}

bool LockAudit::NothingHeld(int cpu) const {
  return cpu < 0 || cpu >= kMaxCpus ||
         held_[static_cast<size_t>(cpu)].empty();
}

EmcLockTable::EmcLockTable() : monitor_state_("monitor.state", kRankMonitorState) {
  for (int i = 0; i < kFrameShards; ++i) {
    shards_[static_cast<size_t>(i)] =
        SimLock("frames.shard" + std::to_string(i), kRankFrameShard + i, i);
  }
}

}  // namespace erebor
