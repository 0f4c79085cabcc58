#include "src/common/faultpoint.h"

#include <algorithm>

#include "src/common/exec.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/trace.h"

namespace erebor {

namespace {

uint64_t Fnv1a(const char* data, size_t len, uint64_t hash = 0xCBF29CE484222325ULL) {
  for (size_t i = 0; i < len; ++i) {
    hash ^= static_cast<uint8_t>(data[i]);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

uint64_t Fnv1aWord(uint64_t word, uint64_t hash) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xFF;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

bool SiteMatches(const std::string& pattern, const char* site, size_t site_len) {
  if (!pattern.empty() && pattern.back() == '*') {
    const size_t prefix = pattern.size() - 1;
    return site_len >= prefix && pattern.compare(0, prefix, site, prefix) == 0;
  }
  return pattern.compare(0, pattern.size(), site, site_len) == 0 &&
         pattern.size() == site_len;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(uint64_t seed, FaultSchedule schedule) {
  std::lock_guard<std::mutex> guard(mu_);
  seed_ = seed;
  schedule_ = std::move(schedule);
  hits_.clear();
  rule_fires_.assign(schedule_.rules.size(), 0);
  journal_.clear();
  total_fired_ = 0;
  injected_ = MetricsRegistry::Global().Counter("faults.injected");
  armed_.store(true, std::memory_order_seq_cst);
}

void FaultInjector::Disarm() {
  armed_.store(false, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> guard(mu_);
  hits_.clear();
  rule_fires_.clear();
  journal_.clear();
  total_fired_ = 0;
  observer_ = nullptr;
}

FaultDecision FaultInjector::At(const char* site) {
  if (!Armed()) {
    return FaultDecision{};
  }
  std::lock_guard<std::mutex> guard(mu_);
  const size_t site_len = std::char_traits<char>::length(site);
  const uint64_t hit = hits_[std::string(site, site_len)]++;
  for (size_t i = 0; i < schedule_.rules.size(); ++i) {
    const FaultRule& rule = schedule_.rules[i];
    if (!SiteMatches(rule.site, site, site_len) || hit < rule.first_hit ||
        rule_fires_[i] >= rule.max_fires) {
      continue;
    }
    const uint64_t period = rule.period == 0 ? 1 : rule.period;
    if ((hit - rule.first_hit) % period != 0) {
      continue;
    }
    // The dice and entropy are a pure function of (seed, site, hit, rule index):
    // no injector-side stream is consumed, so an armed-but-never-firing engine and
    // a replayed run both see bit-identical decisions.
    SplitMix64 dice(seed_ ^ Fnv1a(site, site_len) ^
                    (0x9E3779B97F4A7C15ULL * (hit + 1)) ^ (i << 48));
    if (rule.per_mille < 1000 && dice.Next() % 1000 >= rule.per_mille) {
      continue;
    }
    ++rule_fires_[i];
    ++total_fired_;
    FiredFault fired{std::string(site, site_len), hit, rule.action};
    journal_.push_back(fired);
    if (injected_ != nullptr) {
      CounterAdd(*injected_);
    }
    // Fault firings are observability events, not simulated work: no cycle charge,
    // payload packs the action and a site fingerprint for Chrome-trace inspection.
    // The event lands on the probing thread's own vCPU ring (ring 0 from the
    // single-threaded driver, whose thread is unbound).
    Tracer::Global().Record(
        TraceEvent::kFaultInject, std::max(ExecutionEngine::current_cpu(), 0), 0,
        -1,
        (static_cast<uint64_t>(rule.action) << 56) | (Fnv1a(site, site_len) >> 16));
    if (observer_) {
      observer_(fired);
    }
    return FaultDecision{rule.action, dice.Next()};
  }
  return FaultDecision{};
}

uint64_t FaultInjector::JournalHash() const {
  std::lock_guard<std::mutex> guard(mu_);
  // Hash in sorted (site, hit, action) order: the journal is a *set* witness.
  // Threaded runs append entries in wall-clock order, which may legally differ
  // from the single-thread replay; the fired set may not.
  std::vector<const FiredFault*> sorted;
  sorted.reserve(journal_.size());
  for (const FiredFault& fired : journal_) {
    sorted.push_back(&fired);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const FiredFault* a, const FiredFault* b) {
              if (a->site != b->site) return a->site < b->site;
              if (a->hit != b->hit) return a->hit < b->hit;
              return a->action < b->action;
            });
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const FiredFault* fired : sorted) {
    hash = Fnv1a(fired->site.data(), fired->site.size(), hash);
    hash = Fnv1aWord(fired->hit, hash);
    hash = Fnv1aWord(static_cast<uint64_t>(fired->action), hash);
  }
  return hash;
}

FaultSchedule FaultSchedule::Randomized(uint64_t seed) {
  // The site/action pool covers every instrumented trust boundary. Periods are kept
  // sparse and channel-level corruption transient (max_fires-capped) so bounded
  // retries converge: the soak asserts recovery-or-quarantine, never a wedged run.
  struct PoolEntry {
    const char* site;
    FaultAction action;
    uint64_t min_period;
    uint64_t max_fires;
  };
  static const PoolEntry kPool[] = {
      {"net.to_guest", FaultAction::kDrop, 3, 6},
      {"net.to_guest", FaultAction::kDuplicate, 3, 6},
      {"net.to_guest", FaultAction::kReorder, 3, 6},
      {"net.to_guest", FaultAction::kCorrupt, 3, 4},
      {"net.to_guest", FaultAction::kTruncate, 3, 4},
      {"net.to_world", FaultAction::kDrop, 3, 6},
      {"net.to_world", FaultAction::kDuplicate, 3, 6},
      {"net.to_world", FaultAction::kCorrupt, 3, 4},
      {"net.to_world", FaultAction::kTruncate, 3, 4},
      {"channel.deliver", FaultAction::kDrop, 4, 4},
      {"gates.enter", FaultAction::kFail, 200, 8},
      {"gates.enter", FaultAction::kPreempt, 150, 8},
      {"gates.exit", FaultAction::kCorrupt, 150, 8},
      {"tdx.tdcall.entry", FaultAction::kFail, 40, 4},
      {"tdx.tdcall.exit", FaultAction::kCorrupt, 40, 4},
      {"frame_alloc.alloc", FaultAction::kExhaust, 50, 2},
      {"host.preempt", FaultAction::kPreempt, 30, 16},
      {"host.dma", FaultAction::kFail, 20, 32},
      {"sandbox.copy_in", FaultAction::kFail, 2, 2},
  };
  constexpr size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);

  SplitMix64 mix(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  FaultSchedule schedule;
  const size_t num_rules = 2 + mix.Next() % 4;  // 2..5 rules
  for (size_t i = 0; i < num_rules; ++i) {
    const PoolEntry& entry = kPool[mix.Next() % kPoolSize];
    FaultRule rule;
    rule.site = entry.site;
    rule.action = entry.action;
    rule.per_mille = 1000;
    rule.first_hit = mix.Next() % 8;
    rule.period = entry.min_period + mix.Next() % (entry.min_period * 3);
    rule.max_fires = 1 + mix.Next() % entry.max_fires;
    schedule.rules.push_back(std::move(rule));
  }
  return schedule;
}

void NoteFaultRecovered() {
  static uint64_t* recovered = MetricsRegistry::Global().Counter("faults.recovered");
  CounterAdd(*recovered);
}

}  // namespace erebor
