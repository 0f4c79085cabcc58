// Execution-engine seam: deterministic single-thread oracle vs real OS threads.
//
// The simulation has two execution engines with identical *simulated* semantics:
//
//   kDeterministic — every vCPU is driven from one host thread (the historical
//     engine). Contention is modeled by SimLock's cycle arithmetic, cross-CPU TLB
//     maintenance applies immediately, and every run is bit-for-bit replayable.
//     This mode is the oracle: fig8/fig9 cycle counts are defined by it.
//
//   kRealThreads — each vCPU is driven by its own OS thread (World::RunOnThreads).
//     SimLocks are backed by real mutexes (same names, same LockAudit rank
//     discipline), cross-CPU TLB shootdowns queue on the target CPU and drain at
//     gate boundaries, and shared counters use relaxed atomics. Wall-clock
//     ordering differs run to run; *charged cycles and counters may not* — the
//     engine only changes who executes, never what is charged. Simulated lock
//     contention charging is disabled under real threads (waits are real), so an
//     oracle comparison pairs a threaded run against a single-thread run with
//     contention simulation off.
//
// The process-global switch lives here so leaf modules (trace, metrics, tlb,
// sim_lock) can branch on it without depending on sim/. It is flipped only by
// World::RunOnThreads (via RealThreadsScope) around a parallel region; all
// setup/teardown stays single-threaded.
#ifndef EREBOR_SRC_COMMON_EXEC_H_
#define EREBOR_SRC_COMMON_EXEC_H_

#include <atomic>
#include <cstdint>

namespace erebor {

enum class ExecMode : uint8_t {
  kDeterministic,  // single host thread, SimLock cycle model (the oracle)
  kRealThreads,    // one OS thread per vCPU, real mutexes behind the lock plans
};

const char* ExecModeName(ExecMode mode);

class ExecutionEngine {
 public:
  // True while a real-thread parallel region is executing. The hot-path guard:
  // one relaxed atomic load.
  static bool real_threads() {
    return real_threads_.load(std::memory_order_relaxed);
  }

  // The vCPU index the calling thread drives, -1 for unbound threads (the main
  // driver outside RunOnThreads, test threads that never bound). Machine-level
  // broadcast helpers use it to tell "my own CPU" (apply directly) from a peer
  // (post to its invalidation queue).
  static int current_cpu() { return current_cpu_; }

  // RAII for the parallel region: flips real_threads() on for its lifetime.
  // Not nestable; constructed only from the single driver thread.
  class RealThreadsScope {
   public:
    RealThreadsScope() { real_threads_.store(true, std::memory_order_seq_cst); }
    ~RealThreadsScope() { real_threads_.store(false, std::memory_order_seq_cst); }
    RealThreadsScope(const RealThreadsScope&) = delete;
    RealThreadsScope& operator=(const RealThreadsScope&) = delete;
  };

  // RAII for a worker thread: binds the thread to the vCPU it drives.
  class CpuBinding {
   public:
    explicit CpuBinding(int cpu) : previous_(current_cpu_) { current_cpu_ = cpu; }
    ~CpuBinding() { current_cpu_ = previous_; }
    CpuBinding(const CpuBinding&) = delete;
    CpuBinding& operator=(const CpuBinding&) = delete;

   private:
    int previous_;
  };

 private:
  static inline std::atomic<bool> real_threads_{false};
  static inline thread_local int current_cpu_ = -1;
};

// Bump of a plain uint64_t counter cell. Shared counters (metrics cells,
// MonitorCounters members, trace per-kind counts, TLB stats) keep their
// plain-uint64_t storage — so member pointers, external-counter registration and
// every existing reader keep working — and the *increment sites* go through here.
// Inside a real-thread region the bump is a relaxed atomic add (a `lock xadd`);
// everywhere else only one host thread runs, so it is a plain add. The switch is
// safe because RealThreadsScope flips real_threads() before any worker starts and
// back only after every worker has joined.
inline void CounterAdd(uint64_t& cell, uint64_t delta = 1) {
  if (ExecutionEngine::real_threads()) {
    std::atomic_ref<uint64_t>(cell).fetch_add(delta, std::memory_order_relaxed);
  } else {
    cell += delta;
  }
}

// Matching relaxed read for counters that are read while worker threads may
// still be bumping them (cross-checks after a join may use plain reads).
inline uint64_t CounterLoad(const uint64_t& cell) {
  return std::atomic_ref<const uint64_t>(cell).load(std::memory_order_relaxed);
}

}  // namespace erebor

#endif  // EREBOR_SRC_COMMON_EXEC_H_
