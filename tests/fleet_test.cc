// Fleet-supervisor serving soak (ctest label: serving).
//
// Drives mixed hostile/benign multi-tenant serving through the FleetSupervisor
// across many seeds and asserts the robustness contract end to end:
//  - containment: every attacked tenant is quarantined and replaced from the
//    warm standby pool; never-attacked tenants are never quarantined;
//  - admission stays tenant-scoped: deferrals/sheds accrue only to draining or
//    shed tenants, and shedding is terminal;
//  - determinism: re-running a seed reproduces the per-tenant outcome
//    fingerprint bit-for-bit, and (with the fault injector armed) the fault
//    journal hash replays identically;
//  - engine equivalence: the post-serving parallel burst ingests identical
//    per-tenant record counts — and the serving loop identical fingerprints —
//    on the deterministic and real-thread engines;
//  - the monitor's invariants (including family 6, quarantine fencing) hold at
//    the end of every run.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/faultpoint.h"
#include "src/common/metrics.h"
#include "src/fleet/supervisor.h"

namespace erebor {
namespace {

// The injector is process-global: make sure no seed leaks an armed schedule.
struct FaultGuard {
  ~FaultGuard() {
    FaultInjector::Global().SetObserver(nullptr);
    FaultInjector::Global().Disarm();
  }
};

FleetConfig SoakConfig(uint64_t seed) {
  FleetConfig config;
  config.num_vcpus = 2;
  config.num_tenants = 4;
  config.standby_pool = 1;
  config.requests_per_tenant = 6;
  config.seed = seed;
  config.attacks = MixedAttacks(config.num_tenants, 0.25, seed);
  return config;
}

struct SoakResult {
  bool ok = false;
  FleetReport report;
  std::vector<uint64_t> burst;
  uint64_t journal_hash = 0;
};

SoakResult RunSoakSeed(const FleetConfig& config, int burst_rounds = 16) {
  SoakResult result;
  FleetSupervisor fleet(config);
  Status st = fleet.Start();
  if (!st.ok()) {
    ADD_FAILURE() << "seed " << config.seed << " start: " << st.ToString();
    return result;
  }
  st = fleet.RunServing();
  if (!st.ok()) {
    ADD_FAILURE() << "seed " << config.seed << " serving: " << st.ToString();
    return result;
  }
  auto burst = fleet.RunBurstIngest(burst_rounds);
  if (!burst.ok()) {
    ADD_FAILURE() << "seed " << config.seed
                  << " burst: " << burst.status().ToString();
    return result;
  }
  result.burst = *burst;
  result.report = fleet.Report();
  result.journal_hash = FaultInjector::Global().JournalHash();
  result.ok = result.report.ok;
  return result;
}

// ---- 1. The soak: 32 seeds of mixed hostile/benign traffic ----

TEST(FleetSoakTest, ThirtyTwoSeedsContainEveryAttackWithInvariantsIntact) {
  FaultGuard guard;
  uint64_t total_served = 0;
  uint64_t total_quarantines = 0;
  uint64_t total_replacements = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    const SoakResult result = RunSoakSeed(SoakConfig(seed));
    ASSERT_TRUE(result.ok) << "seed " << seed;
    const FleetReport& r = result.report;
    EXPECT_TRUE(r.containment) << "seed " << seed << ": an attacked tenant was "
                               << "not quarantined+replaced, or a benign one was";
    EXPECT_EQ(r.invariant_violations, 0u) << "seed " << seed << ": " << r.error;
    for (const TenantReport& t : r.tenants) {
      if (t.attack == AttackClass::kNone) {
        // Containment, spelled out: untouched tenants keep serving untouched.
        EXPECT_EQ(t.quarantines, 0u) << "seed " << seed << " tenant " << t.tenant;
        EXPECT_EQ(t.shed, 0u) << "seed " << seed << " tenant " << t.tenant;
        EXPECT_EQ(t.served,
                  static_cast<uint64_t>(SoakConfig(seed).requests_per_tenant))
            << "seed " << seed << " benign tenant " << t.tenant
            << " dropped requests";
      } else {
        EXPECT_GE(t.quarantines, 1u) << "seed " << seed << " tenant " << t.tenant;
        EXPECT_GE(t.replacements, 1u) << "seed " << seed << " tenant " << t.tenant;
        // Hostile tenants always serve their warm-up round (gate-probe tenants
        // may lose it to their own probe, but are replaced and serve after).
        EXPECT_GE(t.served + t.failed, 1u) << "seed " << seed;
      }
    }
    total_served += r.total_served;
    total_quarantines += r.quarantines;
    total_replacements += r.replacements;
  }
  // The soak must actually exercise the machinery.
  EXPECT_GT(total_served, 0u);
  EXPECT_GE(total_quarantines, 32u);  // at least one hostile tenant per seed
  EXPECT_GE(total_replacements, 32u);
}

// ---- 2. Determinism: identical seed => identical outcome fingerprint ----

TEST(FleetDeterminismTest, SameSeedReplaysIdenticalFingerprint) {
  FaultGuard guard;
  for (uint64_t seed : {3u, 7u, 11u, 19u}) {
    const SoakResult a = RunSoakSeed(SoakConfig(seed));
    const SoakResult b = RunSoakSeed(SoakConfig(seed));
    ASSERT_TRUE(a.ok && b.ok) << "seed " << seed;
    EXPECT_EQ(a.report.fingerprint, b.report.fingerprint) << "seed " << seed;
    EXPECT_EQ(a.burst, b.burst) << "seed " << seed;
  }
}

TEST(FleetDeterminismTest, ChaoticRunReplaysIdenticalFaultJournal) {
  FaultGuard guard;
  for (uint64_t seed : {5u, 23u}) {
    FleetConfig config = SoakConfig(seed);
    config.chaos = true;
    config.chaos_seed = seed;
    const SoakResult a = RunSoakSeed(config, /*burst_rounds=*/0);
    const SoakResult b = RunSoakSeed(config, /*burst_rounds=*/0);
    ASSERT_TRUE(a.ok && b.ok) << "seed " << seed;
    // Same (seed, schedule) + same serving workload => identical fault journal
    // and identical per-tenant outcomes, even with faults landing mid-serving.
    EXPECT_EQ(a.journal_hash, b.journal_hash) << "seed " << seed;
    EXPECT_EQ(a.report.fingerprint, b.report.fingerprint) << "seed " << seed;
    EXPECT_EQ(a.report.invariant_violations, 0u) << a.report.error;
    EXPECT_EQ(b.report.invariant_violations, 0u) << b.report.error;
    FaultInjector::Global().Disarm();
  }
}

// ---- 3. Engine equivalence: per-tenant served counts and burst ingest ----

TEST(FleetEngineOracleTest, BurstCountsAndFingerprintsMatchAcrossEngines) {
  FaultGuard guard;
  FleetConfig config = SoakConfig(13);
  config.exec = ExecMode::kDeterministic;
  const SoakResult oracle = RunSoakSeed(config, /*burst_rounds=*/24);
  config.exec = ExecMode::kRealThreads;
  const SoakResult threaded = RunSoakSeed(config, /*burst_rounds=*/24);
  ASSERT_TRUE(oracle.ok && threaded.ok);
  EXPECT_EQ(oracle.report.fingerprint, threaded.report.fingerprint)
      << "per-tenant served/quarantine outcomes diverged across engines";
  EXPECT_EQ(oracle.burst, threaded.burst)
      << "parallel burst ingested different per-tenant record counts";
  for (size_t i = 0; i < oracle.burst.size(); ++i) {
    const bool live = oracle.burst[i] != 0;
    if (live) {
      EXPECT_EQ(oracle.burst[i], 24u) << "tenant " << i << " dropped records";
    }
  }
  EXPECT_EQ(oracle.report.invariant_violations, 0u) << oracle.report.error;
  EXPECT_EQ(threaded.report.invariant_violations, 0u) << threaded.report.error;
}

// ---- 4. Every attack class, individually contained ----

TEST(FleetAttackClassTest, EachClassIsQuarantinedReplacedAndShedOnRepeat) {
  FaultGuard guard;
  for (AttackClass attack :
       {AttackClass::kForgedRecord, AttackClass::kRelabeledRecord,
        AttackClass::kStaleHello, AttackClass::kGateProbe,
        AttackClass::kRingDescriptors}) {
    FleetConfig config = SoakConfig(100 + static_cast<uint64_t>(attack));
    config.requests_per_tenant = 10;
    config.attacks.assign(static_cast<size_t>(config.num_tenants),
                          AttackClass::kNone);
    config.attacks[1] = attack;
    const SoakResult result = RunSoakSeed(config);
    ASSERT_TRUE(result.ok) << AttackClassName(attack);
    const FleetReport& r = result.report;
    EXPECT_TRUE(r.containment) << AttackClassName(attack);
    EXPECT_EQ(r.invariant_violations, 0u)
        << AttackClassName(attack) << ": " << r.error;
    const TenantReport& hostile = r.tenants[1];
    EXPECT_GE(hostile.quarantines, 1u) << AttackClassName(attack);
    EXPECT_EQ(hostile.replacements, 1u) << AttackClassName(attack);
    // Channel-side attackers keep attacking their replacement and exhaust the
    // budget (terminal shedding); sandbox-side attackers come back clean.
    const bool sandbox_side = attack == AttackClass::kGateProbe ||
                              attack == AttackClass::kRingDescriptors;
    if (sandbox_side) {
      EXPECT_EQ(r.tenants[1].admit_state, TenantAdmitState::kServing)
          << AttackClassName(attack);
      EXPECT_GE(hostile.served, 1u) << AttackClassName(attack);
    } else {
      EXPECT_EQ(r.tenants[1].admit_state, TenantAdmitState::kShedding)
          << AttackClassName(attack);
      EXPECT_GE(hostile.shed, 1u) << AttackClassName(attack);
    }
    // Tenant-scoped shedding: everyone else served every round.
    for (int t : {0, 2, 3}) {
      EXPECT_EQ(r.tenants[static_cast<size_t>(t)].served,
                static_cast<uint64_t>(config.requests_per_tenant))
          << AttackClassName(attack) << " starved benign tenant " << t;
    }
  }
}

// ---- 5. Admission controller unit coverage ----

TEST(AdmissionControllerTest, DrainingDefersUpToBoundThenSheds) {
  AdmissionPolicy policy;
  policy.max_deferred_per_tenant = 3;
  AdmissionController admission(policy);
  admission.RegisterTenant(0);
  EXPECT_EQ(admission.Admit(0), AdmitDecision::kAdmit);
  admission.SetState(0, TenantAdmitState::kDraining);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(admission.Admit(0), AdmitDecision::kDefer) << i;
  }
  EXPECT_EQ(admission.Admit(0), AdmitDecision::kShed);
  EXPECT_EQ(admission.deferred(0), 3u);
  EXPECT_EQ(admission.shed(0), 1u);
  // Recovery re-admits; a fresh drain re-arms the deferral budget.
  admission.SetState(0, TenantAdmitState::kServing);
  EXPECT_EQ(admission.Admit(0), AdmitDecision::kAdmit);
  admission.SetState(0, TenantAdmitState::kDraining);
  EXPECT_EQ(admission.Admit(0), AdmitDecision::kDefer);
}

TEST(AdmissionControllerTest, SheddingIsTerminal) {
  AdmissionController admission(AdmissionPolicy{});
  admission.RegisterTenant(7);
  admission.SetState(7, TenantAdmitState::kShedding);
  admission.SetState(7, TenantAdmitState::kServing);  // refused
  EXPECT_EQ(admission.state(7), TenantAdmitState::kShedding);
  EXPECT_EQ(admission.Admit(7), AdmitDecision::kShed);
}

// ---- 6. Metrics surface the fleet's decisions ----

TEST(FleetMetricsTest, ReplacementsAndDeferralsAreCounted) {
  FaultGuard guard;
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t replacements_before = metrics.Value("fleet.replacements");
  const uint64_t deferred_before = metrics.Value("fleet.admission_deferred");
  FleetConfig config = SoakConfig(77);
  config.attacks.assign(static_cast<size_t>(config.num_tenants),
                        AttackClass::kNone);
  config.attacks[2] = AttackClass::kForgedRecord;
  const SoakResult result = RunSoakSeed(config);
  ASSERT_TRUE(result.ok);
  EXPECT_GT(metrics.Value("fleet.replacements"), replacements_before);
  EXPECT_GT(metrics.Value("fleet.admission_deferred"), deferred_before);
  // The per-tenant p99 export exists for every tenant that served.
  EXPECT_GT(metrics.Value("serving.p99_ns.tenant0"), 0u);
}

// ---- 7. Payloads that end mid-word ----

TEST(FleetPayloadTest, PartialWordTailsAreServed) {
  // The supervisor builds each request and its expected reply a 64-bit word at
  // a time and the service XORs in words, each with a byte tail. A request
  // counts as served only if the reply equals the expected bytes, so a tail
  // either side gets wrong shows up as an unserved request.
  FaultGuard guard;
  for (const uint64_t payload_bytes : {uint64_t{1003}, uint64_t{5}}) {
    FleetConfig config = SoakConfig(5);
    config.attacks.assign(static_cast<size_t>(config.num_tenants),
                          AttackClass::kNone);
    config.payload_bytes = payload_bytes;
    const SoakResult result = RunSoakSeed(config, /*burst_rounds=*/1);
    ASSERT_TRUE(result.ok) << payload_bytes << " B";
    EXPECT_EQ(result.report.total_served,
              static_cast<uint64_t>(config.num_tenants * config.requests_per_tenant))
        << payload_bytes << " B";
    for (const TenantReport& t : result.report.tenants) {
      EXPECT_EQ(t.failed, 0u) << payload_bytes << " B tenant " << t.tenant;
      EXPECT_EQ(t.quarantines, 0u) << payload_bytes << " B tenant " << t.tenant;
    }
  }
}

}  // namespace
}  // namespace erebor
