// Deterministic fault-point engine for chaos testing every trust boundary.
//
// Call sites at trust boundaries (tdcall entry/exit, EMC gate transitions, channel
// packet delivery, host preemption/DMA probes, frame-allocator exhaustion) register
// *named fault points*: a probe that asks the process-global injector whether a
// fault fires at this visit. Every decision is a pure function of the armed
// (seed, schedule) pair, the site name, and the site's per-process hit index — so a
// failing run replays bit-identically from its seed alone, with no engine-side
// shared RNG stream that could skew when sites are visited in a different order.
//
// The engine is zero-cost when disarmed: `FaultInjector::Armed()` is a single load
// of an inline static bool, and every probe site guards on it before doing any
// work. Benches assert in-process that simulated operation/cycle counts are
// bit-identical with the engine compiled in but inactive.
#ifndef EREBOR_SRC_COMMON_FAULTPOINT_H_
#define EREBOR_SRC_COMMON_FAULTPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace erebor {

enum class FaultAction : uint8_t {
  kNone = 0,
  kFail,       // the operation returns an injected transient error
  kDrop,       // a packet/message silently disappears
  kDuplicate,  // a packet is delivered twice
  kReorder,    // a packet jumps ahead of earlier queued traffic
  kCorrupt,    // payload bytes flipped (or MSR state scrambled at gate sites)
  kTruncate,   // payload cut short
  kPreempt,    // host-injected preemption at the site
  kExhaust,    // a resource allocator reports exhaustion
};

struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  uint64_t entropy = 0;  // deterministic per-firing word (corruption offset, size...)
  explicit operator bool() const { return action != FaultAction::kNone; }
};

// One schedule entry. `site` is an exact fault-point name or a trailing-'*' prefix
// pattern ("net.*"). With h the site's hit index (counted per site from arming), the
// rule fires when h >= first_hit, (h - first_hit) % period == 0, the deterministic
// per-mille dice pass, and the rule has fired fewer than max_fires times. The first
// matching rule in schedule order wins.
struct FaultRule {
  std::string site;
  FaultAction action = FaultAction::kFail;
  uint32_t per_mille = 1000;  // firing probability gate in 1/1000ths
  uint64_t first_hit = 0;
  uint64_t period = 1;
  uint64_t max_fires = ~0ull;
};

struct FaultSchedule {
  std::vector<FaultRule> rules;

  // Chaos-soak schedule: a deterministic function of `seed` alone, picking a handful
  // of rules over the standard trust-boundary sites with sparse periods so sessions
  // stay completable (retries converge) while every boundary gets exercised.
  static FaultSchedule Randomized(uint64_t seed);
};

// Journal entry: one fired fault. The journal (and its hash) is the replay-identity
// witness: same (seed, schedule) + same workload => identical journal.
struct FiredFault {
  std::string site;
  uint64_t hit = 0;
  FaultAction action = FaultAction::kNone;
};

class FaultInjector {
 public:
  static FaultInjector& Global();

  // The zero-cost guard: one relaxed load. Probe sites must check this before
  // calling At().
  static bool Armed() { return armed_.load(std::memory_order_relaxed); }

  // Arms the engine with a (seed, schedule) pair; resets hit counters and journal.
  void Arm(uint64_t seed, FaultSchedule schedule);
  void Disarm();

  // The probe: advances `site`'s hit counter and returns the (deterministic)
  // decision. Counts "faults.injected", emits a kFaultInject trace event, and
  // notifies the observer on every firing.
  //
  // Thread-safety: the whole probe is serialized under one mutex, which makes a
  // site's hit indices equal to its At()-call order even under real threads. The
  // decision for (site, hit) is a pure function, so the *set* of fired faults —
  // and the order-independent JournalHash() — depends only on each site's total
  // visit count, not on which thread drew which hit. A threaded run and its
  // single-thread replay with equal per-site visit counts hash identically.
  FaultDecision At(const char* site);

  // Convenience probe for sites with a single meaningful action.
  bool Fire(const char* site, FaultAction expected) {
    const FaultDecision decision = At(site);
    return decision.action == expected;
  }

  // Observer hook (the World chaos harness uses it to trigger invariant checks).
  using Observer = std::function<void(const FiredFault&)>;
  void SetObserver(Observer observer) { observer_ = std::move(observer); }

  uint64_t seed() const { return seed_; }
  const FaultSchedule& schedule() const { return schedule_; }
  uint64_t fired() const { return total_fired_; }
  const std::vector<FiredFault>& journal() const { return journal_; }
  // FNV-1a over (site, hit, action) triples, hashed in (site, hit, action) sorted
  // order so the hash witnesses the *set* of injected faults: journal append
  // order may differ between a threaded run and its single-thread replay, the
  // fired set may not.
  uint64_t JournalHash() const;

 private:
  FaultInjector() = default;

  static inline std::atomic<bool> armed_{false};

  // Serializes At() (and journal reads taken while probes may still be running).
  // Arm/Disarm flip armed_ only from quiesced single-threaded code.
  mutable std::mutex mu_;
  uint64_t seed_ = 0;
  FaultSchedule schedule_;
  std::map<std::string, uint64_t> hits_;  // per-site visit counters (under mu_)
  std::vector<uint64_t> rule_fires_;      // per-rule firing counts (max_fires cap)
  std::vector<FiredFault> journal_;
  uint64_t total_fired_ = 0;
  Observer observer_;
  uint64_t* injected_ = nullptr;  // cached "faults.injected" registry cell
};

// Recovery accounting: graceful-degradation paths (bounded retries, duplicate
// healing, gate re-entry) call this when they successfully absorb a fault.
// Increments "faults.recovered"; no-op cost beyond one cached pointer bump.
void NoteFaultRecovered();

}  // namespace erebor

#endif  // EREBOR_SRC_COMMON_FAULTPOINT_H_
