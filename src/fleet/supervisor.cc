#include "src/fleet/supervisor.h"

#include <algorithm>
#include <cstring>

#include "src/common/metrics.h"
#include "src/kernel/mmu_ring.h"
#include "src/monitor/monitor.h"

namespace erebor {
namespace {

// How many benign requests a hostile tenant serves before turning (its session
// must exist — and have data installed — for every attack class to be "stale").
constexpr int kHostileStartRound = 1;
// Scheduler slices pumped after firing an attack wire so the proxy delivers it.
constexpr uint64_t kAttackPumpSlices = 160;
// Handshake retransmission rounds before a tenant is declared wedged.
constexpr int kMaxHelloAttempts = 30;
// Data retransmission rounds per request on top of the client's jitter budget.
constexpr int kMaxResendRounds = 8;
// Hostile ring descriptors published per attack round (each is one strike).
constexpr int kRingStrikesPerRound = 2;
constexpr uint8_t kBogusRingOpcode = 0xC7;

// Per-tenant service cost tiers, fig9-flavoured: light / medium / heavy
// request-handling compute.
Cycles ServiceCostForTenant(int tenant) {
  switch (tenant % 3) {
    case 0:
      return 30'000;
    case 1:
      return 70'000;
    default:
      return 110'000;
  }
}

// Health-score weights. Inputs are the monitor's existing degradation signals;
// no_progress is the supervisor's own observation (consecutive rounds without a
// served result). The score is recomputed from scratch every round — it is a
// snapshot, not an accumulator.
constexpr double kNoProgressPenalty = 15.0;
constexpr double kFaultStrikePenalty = 6.0;
constexpr double kSessionRejectPenalty = 2.0;
constexpr double kRingStrikePenalty = 4.0;

uint64_t MixFingerprint(uint64_t h, uint64_t v) {
  return SplitMix64(h ^ (v + 0x9E3779B97F4A7C15ULL)).Next();
}

}  // namespace

const char* AttackClassName(AttackClass attack) {
  switch (attack) {
    case AttackClass::kNone:
      return "none";
    case AttackClass::kForgedRecord:
      return "forged_record";
    case AttackClass::kRelabeledRecord:
      return "relabeled_record";
    case AttackClass::kStaleHello:
      return "stale_hello";
    case AttackClass::kGateProbe:
      return "gate_probe";
    case AttackClass::kRingDescriptors:
      return "ring_descriptors";
  }
  return "?";
}

std::vector<AttackClass> MixedAttacks(int num_tenants, double hostile_fraction,
                                      uint64_t seed) {
  std::vector<AttackClass> attacks(static_cast<size_t>(std::max(num_tenants, 0)),
                                   AttackClass::kNone);
  if (num_tenants <= 0 || hostile_fraction <= 0.0) {
    return attacks;
  }
  const int hostile = std::min(
      num_tenants,
      static_cast<int>(hostile_fraction * num_tenants + 0.999999));
  static constexpr AttackClass kCycle[] = {
      AttackClass::kForgedRecord, AttackClass::kRelabeledRecord,
      AttackClass::kStaleHello, AttackClass::kGateProbe,
      AttackClass::kRingDescriptors,
  };
  SplitMix64 rng(seed);
  const int start = static_cast<int>(rng.Next() % 5);
  // Spread hostile tenants evenly so attacks interleave with benign traffic
  // instead of clustering at one end of the round-robin.
  const double stride = static_cast<double>(num_tenants) / hostile;
  for (int i = 0; i < hostile; ++i) {
    int slot = static_cast<int>(i * stride);
    while (attacks[slot] != AttackClass::kNone) {
      slot = (slot + 1) % num_tenants;
    }
    attacks[slot] = kCycle[(start + i) % 5];
  }
  return attacks;
}

FleetSupervisor::FleetSupervisor(const FleetConfig& config)
    : config_(config),
      admission_(config.admission),
      rng_(config.seed ^ 0xF1EE7u),
      junk_keys_(DeriveSessionKeys(Bytes(32, 0xA5), Digest256{})) {
  config_.num_vcpus = std::max(config_.num_vcpus, 1);
  config_.num_tenants = std::max(config_.num_tenants, 1);
  config_.standby_pool = std::max(config_.standby_pool, 0);
  config_.requests_per_tenant = std::max(config_.requests_per_tenant, 1);
  config_.attacks.resize(static_cast<size_t>(config_.num_tenants),
                         AttackClass::kNone);
}

FleetSupervisor::~FleetSupervisor() = default;

ProgramFn FleetSupervisor::MakeServiceProgram(const std::string& name,
                                              Cycles service_cycles, bool gate_probe,
                                              std::shared_ptr<LibosEnv> clone_of,
                                              std::shared_ptr<std::atomic<bool>> promoted) {
  auto env = std::make_shared<LibosEnv>(
      LibosManifest{.name = name, .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
  auto ready = ready_count_;
  return [env, ready, service_cycles, gate_probe, clone_of,
          promoted](SyscallContext& ctx) -> StepOutcome {
    if (promoted != nullptr && !promoted->load(std::memory_order_relaxed)) {
      // Parked standby: touch nothing — no fd, no confined memory — so the
      // clone triggers no CoW break and never lazily allocates a domain.
      return StepOutcome::kYield;
    }
    if (!env->initialized()) {
      if (clone_of != nullptr) {
        // Warm clone: the arena rides in on the template's CoW-shared pages;
        // bring-up is just this process's own /dev/erebor fd.
        env->AdoptTemplateState(*clone_of);
        if (!env->AttachClone(ctx).ok()) {
          return StepOutcome::kExited;
        }
      } else if (!env->Initialize(ctx).ok()) {
        return StepOutcome::kExited;
      }
      ready->fetch_add(1, std::memory_order_relaxed);
      return StepOutcome::kYield;
    }
    auto input = env->RecvInput(ctx, 64 * 1024);
    if (!input.ok()) {
      return StepOutcome::kYield;  // EAGAIN or transient fault: poll again
    }
    if (gate_probe) {
      // Compromised workload: probe the gate entry with a forbidden syscall the
      // moment it is poked with input. The sandbox is sealed by then, so the
      // monitor's interposition stub kills the task and quarantines the sandbox.
      (void)ctx.Syscall(sys::kGetpid);
      return StepOutcome::kYield;
    }
    Bytes out = *input;
    for (uint8_t& b : out) {
      b ^= 0x5A;
    }
    ctx.Compute(service_cycles);
    (void)env->SendOutput(ctx, out);
    return StepOutcome::kYield;
  };
}

StatusOr<Sandbox*> FleetSupervisor::LaunchServiceSandbox(const std::string& name,
                                                         Cycles service_cycles,
                                                         bool gate_probe) {
  SandboxSpec spec;
  spec.name = name;
  auto sandbox = world_->LaunchSandboxProcess(
      name, spec, MakeServiceProgram(name, service_cycles, gate_probe));
  if (sandbox.ok()) {
    ++launched_;
  }
  return sandbox;
}

Status FleetSupervisor::BootTemplate() {
  template_env_ = std::make_shared<LibosEnv>(
      LibosManifest{.name = "fleet-template", .heap_bytes = 1 << 20},
      LibosBackend::kSandboxed);
  auto env = template_env_;
  auto ready = ready_count_;
  auto frozen = template_frozen_;
  // The template serves nobody: it initializes its LibOS once, then parks. After
  // the freeze its confined pages are read-only template frames, so the parked
  // loop must never touch user memory again.
  auto program = [env, ready, frozen](SyscallContext& ctx) -> StepOutcome {
    if (frozen->load(std::memory_order_relaxed)) {
      return StepOutcome::kYield;
    }
    if (!env->initialized()) {
      if (!env->Initialize(ctx).ok()) {
        return StepOutcome::kExited;
      }
      ready->fetch_add(1, std::memory_order_relaxed);
    }
    return StepOutcome::kYield;
  };
  SandboxSpec spec;
  spec.name = "fleet-template";
  auto sandbox = world_->LaunchSandboxProcess(spec.name, spec, std::move(program));
  EREBOR_RETURN_IF_ERROR(sandbox.status());
  ++launched_;
  EREBOR_RETURN_IF_ERROR(world_->RunUntil(
      [&] { return ready_count_->load(std::memory_order_relaxed) >= launched_; },
      400'000));
  template_frozen_->store(true, std::memory_order_relaxed);
  EREBOR_RETURN_IF_ERROR(
      world_->monitor()->SnapshotTemplate(world_->machine().cpu(0), **sandbox));
  template_sandbox_ = *sandbox;
  return OkStatus();
}

Status FleetSupervisor::LaunchStandby() {
  const std::string name = "standby-" + std::to_string(standby_serial_++);
  if (config_.warm_clone_pool && template_sandbox_ != nullptr) {
    SandboxSpec spec;
    spec.name = name;
    auto promoted = std::make_shared<std::atomic<bool>>(false);
    auto sandbox = world_->LaunchCloneProcess(
        name, *template_sandbox_, spec,
        MakeServiceProgram(name, ServiceCostForTenant(standby_serial_),
                           /*gate_probe=*/false, template_env_, promoted));
    EREBOR_RETURN_IF_ERROR(sandbox.status());
    // No LibOS rendezvous: a parked clone runs nothing until promotion flips
    // its latch, so the pool refill is just the CloneFromTemplate delta.
    standby_promoted_[(*sandbox)->id] = std::move(promoted);
    standbys_.push_back(*sandbox);
    return OkStatus();
  }
  auto sandbox = LaunchServiceSandbox(name, ServiceCostForTenant(standby_serial_),
                                      /*gate_probe=*/false);
  EREBOR_RETURN_IF_ERROR(sandbox.status());
  EREBOR_RETURN_IF_ERROR(world_->RunUntil(
      [&] { return ready_count_->load(std::memory_order_relaxed) >= launched_; },
      400'000));
  standbys_.push_back(*sandbox);
  return OkStatus();
}

uint64_t FleetSupervisor::NowCycles() const {
  uint64_t now = 0;
  Machine& machine = world_->machine();
  for (int c = 0; c < machine.num_cpus(); ++c) {
    now = std::max(now, static_cast<uint64_t>(machine.cpu(c).cycles().now()));
  }
  return now;
}

FleetSupervisor::TenantState* FleetSupervisor::TenantBySandbox(int sandbox_id) {
  for (TenantState& t : tenants_) {
    if (t.sandbox != nullptr && t.sandbox->id == sandbox_id) {
      return &t;
    }
  }
  return nullptr;
}

void FleetSupervisor::HandleClientWire(const Bytes& wire) {
  // Record wires (the hot path) first; anything else goes through Packet.
  auto view = ParseRecordWire(wire);
  if (view.ok()) {
    TenantState* t = TenantBySandbox(view->sandbox_id);
    if (t == nullptr || t->client == nullptr ||
        view->type != PacketType::kResultRecord) {
      return;  // stale sandbox id (pre-replacement) or not a result: drop
    }
    auto result = t->client->OpenResult(wire);
    if (!result.ok()) {
      // Duplicate / stashed-ahead / corrupted: the client window accounted it.
      while (t->client->HasStashedResult()) {
        auto stashed = t->client->PopStashedResult();
        if (!stashed.ok()) {
          break;
        }
        t->results.push_back(std::move(*stashed));
      }
      return;
    }
    t->results.push_back(std::move(*result));
    while (t->client->HasStashedResult()) {
      auto stashed = t->client->PopStashedResult();
      if (!stashed.ok()) {
        break;
      }
      t->results.push_back(std::move(*stashed));
    }
    return;
  }
  auto packet = Packet::Deserialize(wire);
  if (!packet.ok() || packet->type != PacketType::kServerHello) {
    return;
  }
  TenantState* t = TenantBySandbox(packet->sandbox_id);
  if (t != nullptr && t->client != nullptr && !t->client->established()) {
    (void)t->client->ProcessServerHello(wire);
  }
}

void FleetSupervisor::DrainClientNetwork() {
  while (true) {
    auto wire = world_->ClientReceive();
    if (!wire.ok()) {
      return;
    }
    HandleClientWire(*wire);
  }
}

Status FleetSupervisor::Pump(uint64_t slices) {
  return world_->RunUntil(
      [&] {
        DrainClientNetwork();
        return false;
      },
      std::max<uint64_t>(slices, 1));
}

bool FleetSupervisor::SandboxDead(const TenantState& t) const {
  return t.sandbox == nullptr || t.sandbox->state == SandboxState::kQuarantined ||
         t.sandbox->state == SandboxState::kTornDown;
}

Status FleetSupervisor::HandshakeTenant(TenantState& t) {
  t.client = std::make_unique<RemoteClient>(
      world_->MakeTrustAnchors(),
      config_.seed ^ (static_cast<uint64_t>(t.tenant) << 8) ^
          (static_cast<uint64_t>(t.replacements) << 20) ^ 0x5EEDu);
  t.results.clear();
  world_->ClientSend(t.client->MakeHello(t.sandbox->id));
  for (int attempt = 0; attempt < kMaxHelloAttempts; ++attempt) {
    (void)world_->RunUntil(
        [&] {
          DrainClientNetwork();
          return t.client->established() || SandboxDead(t);
        },
        500);
    if (t.client->established()) {
      t.client->ResetRetryBudget();
      return OkStatus();
    }
    if (SandboxDead(t)) {
      return UnavailableError("tenant " + std::to_string(t.tenant) +
                              ": sandbox died during handshake");
    }
    if (t.client->retry_budget_exhausted()) {
      break;
    }
    world_->ClientSend(t.client->ResendHello());
    (void)Pump(t.client->retry_wait());
  }
  return UnavailableError("tenant " + std::to_string(t.tenant) +
                          ": handshake wedged");
}

Status FleetSupervisor::Start() {
  WorldConfig wc;
  wc.mode = SimMode::kEreborFull;
  wc.exec = config_.exec;
  wc.isolation = config_.isolation;
  wc.machine.num_cpus = config_.num_vcpus;
  world_ = std::make_unique<World>(wc);
  EREBOR_RETURN_IF_ERROR(world_->Boot());
  EREBOR_RETURN_IF_ERROR(world_->StartProxy());

  bool any_ring_attack = false;
  for (AttackClass attack : config_.attacks) {
    any_ring_attack |= attack == AttackClass::kRingDescriptors;
  }
  if (any_ring_attack) {
    world_->monitor()->EnableMmuRings(true);
  }

  tenants_.resize(static_cast<size_t>(config_.num_tenants));
  for (int i = 0; i < config_.num_tenants; ++i) {
    TenantState& t = tenants_[static_cast<size_t>(i)];
    t.tenant = i;
    t.attack = config_.attacks[static_cast<size_t>(i)];
    admission_.RegisterTenant(i);
    const std::string name = "tenant-" + std::to_string(i);
    auto sandbox = LaunchServiceSandbox(name, ServiceCostForTenant(i),
                                        t.attack == AttackClass::kGateProbe);
    EREBOR_RETURN_IF_ERROR(sandbox.status());
    t.sandbox = *sandbox;
    t.latency = MetricsRegistry::Global().GetLatencyHistogram(
        "serving.latency.tenant" + std::to_string(i), /*bucket_width=*/2'000,
        /*num_buckets=*/4096);
    t.latency->Reset();  // registry survives across worlds in one process
  }
  benign_latency_ = MetricsRegistry::Global().GetLatencyHistogram(
      "serving.latency.benign", 2'000, 4096);
  fleet_latency_ = MetricsRegistry::Global().GetLatencyHistogram(
      "serving.latency.fleet", 2'000, 4096);
  replacement_latency_ = MetricsRegistry::Global().GetLatencyHistogram(
      "fleet.replacement_latency_ns", /*bucket_width=*/50'000, /*num_buckets=*/4096);
  benign_latency_->Reset();
  fleet_latency_->Reset();
  replacement_latency_->Reset();

  // Pool mode: freeze a template first so the standby pool is CoW clones.
  if (config_.warm_clone_pool) {
    EREBOR_RETURN_IF_ERROR(BootTemplate());
  }

  // Warm standby pool, pre-initialized so promotion only pays the handshake.
  for (int i = 0; i < config_.standby_pool; ++i) {
    EREBOR_RETURN_IF_ERROR(LaunchStandby());
  }
  EREBOR_RETURN_IF_ERROR(world_->RunUntil(
      [&] { return ready_count_->load(std::memory_order_relaxed) >= launched_; },
      400'000));

  if (config_.chaos) {
    ChaosOptions options;
    options.seed = config_.chaos_seed;
    EREBOR_RETURN_IF_ERROR(world_->EnableChaos(options));
  }

  for (TenantState& t : tenants_) {
    EREBOR_RETURN_IF_ERROR(HandshakeTenant(t));
  }
  started_ = true;
  return OkStatus();
}

void FleetSupervisor::ServeOne(TenantState& t, int round) {
  Bytes payload(config_.payload_bytes);
  SplitMix64 fill(config_.seed ^ (static_cast<uint64_t>(t.tenant) << 32) ^
                  static_cast<uint64_t>(round));
  for (size_t off = 0; off < payload.size(); off += 8) {
    const uint64_t word = fill.Next();
    std::memcpy(payload.data() + off, &word, std::min<size_t>(8, payload.size() - off));
  }
  Bytes expected = payload;
  for (uint8_t& b : expected) {
    b ^= 0x5A;
  }
  // Results of earlier, timed-out requests that straggled in are stale now.
  t.results.clear();
  const uint64_t submit_cycles = NowCycles();
  world_->ClientSend(t.client->SealData(payload));
  bool ok = false;
  bool dead = false;
  for (int resend = 0; resend <= kMaxResendRounds && !ok && !dead; ++resend) {
    if (resend > 0) {
      if (t.client->retry_budget_exhausted()) {
        break;
      }
      world_->ClientSend(t.client->ResendData());
      (void)Pump(t.client->retry_wait());
    }
    (void)world_->RunUntil(
        [&] {
          DrainClientNetwork();
          if (SandboxDead(t)) {
            dead = true;
            return true;
          }
          while (!t.results.empty()) {
            const bool match = t.results.front() == expected;
            t.results.pop_front();
            if (match) {
              ok = true;
              return true;
            }
          }
          return false;
        },
        config_.request_timeout_slices);
  }
  if (ok) {
    const uint64_t latency_ns = CyclesToNs(NowCycles() - submit_cycles);
    t.latency->Observe(latency_ns);
    fleet_latency_->Observe(latency_ns);
    if (t.attack == AttackClass::kNone) {
      benign_latency_->Observe(latency_ns);
    }
    ++t.served;
    t.no_progress = 0;
    t.client->ResetRetryBudget();
  } else {
    ++t.failed;
    ++t.no_progress;
  }
}

void FleetSupervisor::FireAttack(TenantState& t, int round) {
  switch (t.attack) {
    case AttackClass::kNone:
      return;
    case AttackClass::kForgedRecord: {
      // Junk keys, own sandbox id, in-window sequence: must die as a global
      // auth reject, charged to no session.
      Bytes junk(config_.payload_bytes, 0xEE);
      world_->ClientSend(SealRecordWire(junk_keys_.client_to_server,
                                        PacketType::kDataRecord, t.sandbox->id,
                                        t.sandbox->session.next_recv_seq, junk));
      break;
    }
    case AttackClass::kRelabeledRecord: {
      // Keys the monitor never negotiated, relabeled to a benign victim's
      // sandbox id: the victim's session must not be penalized for it.
      TenantState* victim = nullptr;
      for (TenantState& other : tenants_) {
        if (other.attack == AttackClass::kNone && !SandboxDead(other)) {
          victim = &other;
          break;
        }
      }
      Sandbox* target = victim != nullptr ? victim->sandbox : t.sandbox;
      Bytes junk(config_.payload_bytes, 0xDD);
      world_->ClientSend(SealRecordWire(junk_keys_.client_to_server,
                                        PacketType::kDataRecord, target->id,
                                        target->session.next_recv_seq, junk));
      break;
    }
    case AttackClass::kStaleHello: {
      // Fresh-nonce hello against a live session with data installed:
      // renegotiation refused, counted in "channel.hostile_hellos".
      if (t.hello_attacker == nullptr) {
        t.hello_attacker = std::make_unique<RemoteClient>(
            world_->MakeTrustAnchors(),
            config_.seed ^ 0xBADull ^ static_cast<uint64_t>(t.tenant));
      }
      world_->ClientSend(t.hello_attacker->MakeHello(t.sandbox->id));
      break;
    }
    case AttackClass::kGateProbe: {
      // Poke the compromised workload: the input it receives triggers its
      // forbidden syscall inside the sealed sandbox (kill + quarantine).
      Bytes poke(config_.payload_bytes, static_cast<uint8_t>(round));
      world_->ClientSend(t.client->SealData(poke));
      break;
    }
    case AttackClass::kRingDescriptors: {
      const int pin = t.tenant % config_.num_vcpus;
      EmcRingTable& rings = world_->monitor()->rings();
      if (!t.ring_bound) {
        (void)rings.BindSandbox(pin, t.sandbox->id);
        t.ring_bound = true;
      }
      EmcRing* ring = rings.ring(pin);
      if (ring == nullptr) {
        break;
      }
      uint32_t tail = ring->sq_tail.load(std::memory_order_relaxed);
      for (int i = 0; i < kRingStrikesPerRound; ++i) {
        RingSqe sqe;
        sqe.op = static_cast<RingOp>(kBogusRingOpcode);
        ring->sq[tail & EmcRing::kMask] = sqe;
        ++tail;
      }
      ring->sq_tail.store(tail, std::memory_order_relaxed);
      (void)world_->privops().RingDoorbell(world_->machine().cpu(pin));
      break;
    }
  }
  ++t.no_progress;
  (void)Pump(kAttackPumpSlices);
}

void FleetSupervisor::QuarantineTenant(TenantState& t, const std::string& reason) {
  if (t.sandbox == nullptr || SandboxDead(t)) {
    return;
  }
  (void)world_->monitor()->sandboxes().Quarantine(world_->machine().cpu(0),
                                                  *t.sandbox, reason);
}

void FleetSupervisor::SuperviseTenant(TenantState& t) {
  if (t.pending_replace ||
      admission_.state(t.tenant) == TenantAdmitState::kShedding) {
    return;
  }
  uint64_t ring_strikes = 0;
  if (t.sandbox != nullptr) {
    EmcRingTable& rings = world_->monitor()->rings();
    for (int i = 0; i < rings.size(); ++i) {
      const RingState* rs = rings.state(i);
      if (rs != nullptr && rs->bound_sandbox == t.sandbox->id) {
        ring_strikes += rs->strikes;
      }
    }
  }
  const uint64_t fault_strikes = t.sandbox != nullptr ? t.sandbox->fault_strikes : 0;
  const uint64_t rejects =
      t.sandbox != nullptr ? std::min<uint64_t>(t.sandbox->session.rejects, 10) : 0;
  t.health = 100.0 - kNoProgressPenalty * static_cast<double>(t.no_progress) -
             kFaultStrikePenalty * static_cast<double>(fault_strikes) -
             kSessionRejectPenalty * static_cast<double>(rejects) -
             kRingStrikePenalty * static_cast<double>(ring_strikes);
  const bool dead = SandboxDead(t);
  if (!dead && t.health > config_.health_floor) {
    return;
  }
  if (!dead) {
    QuarantineTenant(t, "fleet supervisor: health " + std::to_string(t.health) +
                            " at or below floor");
  }
  ++t.quarantines;
  if (t.replacements >= config_.max_replacements_per_tenant) {
    // Replacement budget spent: this tenant's traffic is shed from here on.
    // The fleet keeps serving everyone else.
    admission_.SetState(t.tenant, TenantAdmitState::kShedding);
    return;
  }
  admission_.SetState(t.tenant, TenantAdmitState::kDraining);
  t.pending_replace = true;
  t.replace_detect_cycles = NowCycles();
}

Status FleetSupervisor::PromoteStandby(TenantState& t) {
  if (standbys_.empty()) {
    // Cold path: the warm pool ran dry; pay for a cold launch.
    EREBOR_RETURN_IF_ERROR(LaunchStandby());
  }
  Sandbox* standby = standbys_.front();
  standbys_.pop_front();
  // A parked clone holds no isolation domain; promotion allocates it now so
  // exhaustion surfaces here as a launch-time refusal, not a mid-request kill.
  if (standby->domain_deferred) {
    const Status promoted =
        world_->monitor()->ActivateClone(world_->machine().cpu(0), *standby);
    if (!promoted.ok()) {
      admission_.SetState(t.tenant, TenantAdmitState::kShedding);
      t.pending_replace = false;
      return promoted;
    }
    MetricsRegistry::Global().Increment("fleet.pool.promotions");
  }
  const auto latch = standby_promoted_.find(standby->id);
  if (latch != standby_promoted_.end()) {
    latch->second->store(true, std::memory_order_relaxed);
    standby_promoted_.erase(latch);
  }
  t.sandbox = standby;
  t.ring_bound = false;
  t.results.clear();
  const Status handshake = HandshakeTenant(t);
  if (!handshake.ok()) {
    admission_.SetState(t.tenant, TenantAdmitState::kShedding);
    t.pending_replace = false;
    return handshake;
  }
  ++t.replacements;
  t.no_progress = 0;
  t.health = 100.0;
  replacement_latency_->Observe(CyclesToNs(NowCycles() - t.replace_detect_cycles));
  MetricsRegistry::Global().Increment("fleet.replacements");
  admission_.SetState(t.tenant, TenantAdmitState::kServing);
  t.pending_replace = false;
  // Refill the warm pool outside the recovery-latency window.
  return LaunchStandby();
}

Status FleetSupervisor::RunServing() {
  if (!started_) {
    return FailedPreconditionError("fleet: Start() first");
  }
  serving_start_cycles_ = NowCycles();
  for (int round = 0; round < config_.requests_per_tenant; ++round) {
    for (TenantState& t : tenants_) {
      const AdmitDecision decision = admission_.Admit(t.tenant);
      if (decision == AdmitDecision::kShed) {
        continue;
      }
      if (decision == AdmitDecision::kDefer) {
        ++t.deferred_rounds;
        if (t.pending_replace) {
          // The deferred round is the drain window: promote now so the next
          // round admits against the replacement sandbox.
          (void)PromoteStandby(t);
        }
        continue;
      }
      // A replaced gate-probe / ring tenant runs a clean standby image: its
      // sandbox-side attack is gone and it serves benignly. Channel-side
      // attackers keep attacking and spend their replacement budget.
      const bool sandbox_attack_disarmed =
          t.replacements > 0 && (t.attack == AttackClass::kGateProbe ||
                                 t.attack == AttackClass::kRingDescriptors);
      if (t.attack != AttackClass::kNone && round >= kHostileStartRound &&
          !sandbox_attack_disarmed) {
        FireAttack(t, round);
      } else {
        ServeOne(t, round);
      }
      SuperviseTenant(t);
    }
  }
  serving_end_cycles_ = NowCycles();
  return OkStatus();
}

StatusOr<std::vector<uint64_t>> FleetSupervisor::RunBurstIngest(int rounds) {
  if (!started_) {
    return FailedPreconditionError("fleet: Start() first");
  }
  std::vector<uint64_t> counts(static_cast<size_t>(config_.num_tenants), 0);
  if (rounds <= 0) {
    return counts;
  }
  // Pre-seal with each live session's real keys, continuing its sequence space.
  std::vector<int> live;
  std::vector<std::vector<Bytes>> records(tenants_.size());
  Bytes payload(config_.payload_bytes, 0x42);
  for (TenantState& t : tenants_) {
    if (SandboxDead(t) || t.client == nullptr || !t.client->established()) {
      continue;
    }
    live.push_back(t.tenant);
    for (int r = 0; r < rounds; ++r) {
      records[static_cast<size_t>(t.tenant)].push_back(t.client->SealData(payload));
    }
  }
  if (live.empty()) {
    return counts;
  }

  EreborMonitor* monitor = world_->monitor();
  monitor->SetLockContention(config_.exec == ExecMode::kDeterministic);
  LockAudit::Global().Reset();

  Machine& machine = world_->machine();
  world_->AlignClocks();

  std::vector<uint64_t> base(tenants_.size(), 0);
  for (int tenant : live) {
    base[static_cast<size_t>(tenant)] =
        tenants_[static_cast<size_t>(tenant)].sandbox->session.next_recv_seq;
  }

  // Tenant t is pinned to vCPU t % num_vcpus (records must stay in sequence per
  // session); each round every vCPU ingests one batch holding one record per
  // pinned tenant, so contended acquisitions overlap like a real burst.
  const auto ingest_for_cpu = [&](int c) -> Status {
    for (int round = 0; round < rounds; ++round) {
      std::vector<Bytes> batch;
      for (int tenant : live) {
        if (tenant % config_.num_vcpus == c) {
          batch.push_back(records[static_cast<size_t>(tenant)][
              static_cast<size_t>(round)]);
        }
      }
      if (batch.empty()) {
        continue;
      }
      EREBOR_RETURN_IF_ERROR(monitor->ProxyDeliverBatch(machine.cpu(c), batch));
    }
    return OkStatus();
  };
  if (config_.exec == ExecMode::kDeterministic) {
    for (int c = 0; c < config_.num_vcpus; ++c) {
      EREBOR_RETURN_IF_ERROR(ingest_for_cpu(c));
    }
  } else {
    EREBOR_RETURN_IF_ERROR(world_->RunOnThreads(ingest_for_cpu));
  }

  for (int tenant : live) {
    TenantState& t = tenants_[static_cast<size_t>(tenant)];
    counts[static_cast<size_t>(tenant)] =
        t.sandbox->session.next_recv_seq - base[static_cast<size_t>(tenant)];
  }
  return counts;
}

FleetReport FleetSupervisor::Report() {
  FleetReport report;
  if (!started_) {
    report.error = "fleet: Start() failed or was never called";
    return report;
  }
  report.ok = true;
  report.num_tenants = config_.num_tenants;
  report.containment = true;
  uint64_t fp = config_.seed;
  for (TenantState& t : tenants_) {
    TenantReport tr;
    tr.tenant = t.tenant;
    tr.sandbox_id = t.sandbox != nullptr ? t.sandbox->id : -1;
    tr.attack = t.attack;
    tr.admit_state = admission_.state(t.tenant);
    tr.served = t.served;
    tr.failed = t.failed;
    tr.deferred = admission_.deferred(t.tenant);
    tr.shed = admission_.shed(t.tenant);
    tr.quarantines = t.quarantines;
    tr.replacements = static_cast<uint64_t>(t.replacements);
    tr.health = t.health;
    tr.p50_ns = t.latency->Percentile(0.50);
    tr.p99_ns = t.latency->Percentile(0.99);
    tr.p999_ns = t.latency->Percentile(0.999);
    MetricsRegistry::Global().Increment(
        "serving.p99_ns.tenant" + std::to_string(t.tenant), tr.p99_ns);
    report.total_served += tr.served;
    report.total_failed += tr.failed;
    report.total_deferred += tr.deferred;
    report.total_shed += tr.shed;
    report.quarantines += tr.quarantines;
    report.replacements += tr.replacements;
    if (t.attack == AttackClass::kNone) {
      // A benign tenant touched by containment failure: any quarantine at all.
      report.containment &= t.quarantines == 0;
    } else {
      report.containment &= t.quarantines >= 1 && t.replacements >= 1;
    }
    for (uint64_t v :
         {static_cast<uint64_t>(t.tenant), static_cast<uint64_t>(t.attack),
          tr.served, tr.failed, tr.deferred, tr.shed, tr.quarantines,
          tr.replacements, static_cast<uint64_t>(tr.admit_state)}) {
      fp = MixFingerprint(fp, v);
    }
    report.tenants.push_back(tr);
  }
  report.fingerprint = fp;
  report.benign_p50_ns = benign_latency_->Percentile(0.50);
  report.benign_p99_ns = benign_latency_->Percentile(0.99);
  report.benign_p999_ns = benign_latency_->Percentile(0.999);
  report.fleet_p50_ns = fleet_latency_->Percentile(0.50);
  report.fleet_p99_ns = fleet_latency_->Percentile(0.99);
  report.fleet_p999_ns = fleet_latency_->Percentile(0.999);
  report.replacement_max_ns = replacement_latency_->max();
  report.replacement_mean_ns = static_cast<uint64_t>(replacement_latency_->mean());
  const uint64_t span_cycles = serving_end_cycles_ > serving_start_cycles_
                                   ? serving_end_cycles_ - serving_start_cycles_
                                   : 0;
  report.span_seconds = static_cast<double>(span_cycles) / 2.1e9;
  report.ops_per_sec = report.span_seconds > 0.0
                           ? static_cast<double>(report.total_served) /
                                 report.span_seconds
                           : 0.0;
  // Invariant audit at a safe point: the hostile mix must not have degraded the
  // monitor's posture (includes the family-6 quarantine-fencing checks).
  InvariantChecker checker(world_->monitor());
  const Status invariants = checker.CheckAll();
  report.invariant_violations =
      world_->invariant_violations() + (invariants.ok() ? 0 : 1);
  if (!invariants.ok()) {
    report.error = invariants.ToString();
  }
  return report;
}

}  // namespace erebor
