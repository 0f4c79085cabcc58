#include "src/sim/world.h"

#include <algorithm>
#include <thread>

#include "src/common/log.h"
#include "src/hw/platform.h"

namespace erebor {

std::string SimModeName(SimMode mode) {
  switch (mode) {
    case SimMode::kNative:
      return "Native";
    case SimMode::kLibosOnly:
      return "Erebor-LibOS-only";
    case SimMode::kEreborMmuOnly:
      return "Erebor-LibOS-MMU";
    case SimMode::kEreborExitOnly:
      return "Erebor-LibOS-Exit";
    case SimMode::kEreborFull:
      return "Erebor";
  }
  return "?";
}

namespace {
Bytes MakeFirmwareImage() {
  // Deterministic OVMF stand-in: what matters is that it is measured and that clients
  // can reproduce the measurement.
  Bytes image;
  const std::string banner = "EREBOR-SIM-OVMF-1.0";
  image.assign(banner.begin(), banner.end());
  Rng rng(0xF1F2);
  const size_t old = image.size();
  image.resize(old + 480);
  rng.Fill(image.data() + old, 480);
  return image;
}
}  // namespace

World::World(const WorldConfig& config) : config_(config) {
  firmware_image_ = MakeFirmwareImage();
  if (config_.isolation == IsolationKind::kTmeMk) {
    // TME-MK cost profile: cheaper gates (no PKRS wrmsr pair), slightly dearer
    // PTE ops (keyID-field check). PKS worlds keep the paper's calibration.
    config_.machine.cycles = TmeMkCycleModel(config_.machine.cycles);
  }
  machine_ = std::make_unique<Machine>(config_.machine);
  tdx_ = std::make_unique<TdxModule>(machine_.get());
  host_ = std::make_unique<HostVmm>(machine_.get(), tdx_.get());
  tdx_->SetVmcallSink(host_.get());
  attacker_ = std::make_unique<HostAttacker>(machine_.get(), tdx_.get());
  for (int i = 0; i < machine_->num_cpus(); ++i) {
    machine_->cpu(i).SetTdcallSink(tdx_.get());
  }
}

World::~World() {
  if (chaos_) {
    DisableChaos();
  }
}

bool World::exit_protection() const {
  return config_.mode == SimMode::kEreborExitOnly || config_.mode == SimMode::kEreborFull;
}

LibosBackend World::libos_backend() const {
  return erebor_active() ? LibosBackend::kSandboxed : LibosBackend::kNativeDirect;
}

Status World::Boot() {
  const bool with_monitor = config_.mode == SimMode::kEreborMmuOnly ||
                            config_.mode == SimMode::kEreborExitOnly ||
                            config_.mode == SimMode::kEreborFull;
  const bool mmu_isolation = config_.mode == SimMode::kEreborMmuOnly ||
                             config_.mode == SimMode::kEreborFull;

  native_ops_ = std::make_unique<NativePrivOps>(machine_.get());
  active_ops_ = native_ops_.get();

  if (with_monitor) {
    monitor_ = std::make_unique<EreborMonitor>(machine_.get(), tdx_.get(), host_.get(),
                                               config_.isolation);
    // The exit-protection-only ablation leaves the fence open and privileged ops
    // native, isolating the interposition overhead (paper Figure 9 breakdown). It is
    // deliberately not security-complete.
    EREBOR_RETURN_IF_ERROR(
        monitor_->BootStage1(firmware_image_, /*arm_fence=*/mmu_isolation));

    // Stage 2: verified kernel load. The mode forces an instrumented image.
    KernelBuildOptions image_options = config_.kernel_image;
    image_options.instrumented = true;
    const KernelImage image = BuildKernelImage(image_options);
    EREBOR_RETURN_IF_ERROR(monitor_->LoadKernelImage(image.Serialize()).status());

    if (mmu_isolation) {
      emc_ops_ = std::make_unique<EmcPrivOps>(monitor_.get());
      active_ops_ = emc_ops_.get();
    }
  } else {
    // Normal CVM: the (native) kernel image still boots, just without verification.
    KernelBuildOptions image_options = config_.kernel_image;
    image_options.instrumented = false;
    (void)BuildKernelImage(image_options);
  }

  kernel_ = std::make_unique<Kernel>(machine_.get(), active_ops_, tdx_.get(), host_.get(),
                                     config_.kernel);
  EREBOR_RETURN_IF_ERROR(kernel_->Boot());

  if (monitor_ != nullptr) {
    EREBOR_RETURN_IF_ERROR(monitor_->AttachKernel(kernel_.get()));
    if (!exit_protection()) {
      // MMU-only ablation: remove the exit-interposition stubs the attach installed.
      kernel_->SetSyscallInterposer(nullptr);
      kernel_->SetInterruptInterposer(nullptr);
      kernel_->SetVeInterposer(nullptr);
    }
  }
  return OkStatus();
}

ClientTrustAnchors World::MakeTrustAnchors() const {
  ClientTrustAnchors anchors;
  anchors.platform_attestation_key = tdx_->attestation_public_key();
  const Bytes monitor_image =
      monitor_ != nullptr ? monitor_->monitor_image() : BuildMonitorImage();
  anchors.expected_mrtd = ComputeExpectedMrtd(firmware_image_, monitor_image);
  return anchors;
}

StatusOr<Task*> World::LaunchProcess(const std::string& name, ProgramFn program) {
  return kernel_->SpawnProcess(name, std::move(program));
}

StatusOr<Sandbox*> World::LaunchSandboxProcess(const std::string& name,
                                               const SandboxSpec& spec, ProgramFn program,
                                               Task** task_out) {
  EREBOR_ASSIGN_OR_RETURN(Task * task, kernel_->SpawnProcess(name, std::move(program)));
  if (task_out != nullptr) {
    *task_out = task;
  }
  if (monitor_ == nullptr) {
    return NotFoundError("sandboxes require an Erebor mode (got " +
                         SimModeName(config_.mode) + ")");
  }
  return monitor_->CreateSandbox(*task, spec);
}

StatusOr<Sandbox*> World::LaunchCloneProcess(const std::string& name, Sandbox& tmpl,
                                             const SandboxSpec& spec, ProgramFn program,
                                             Task** task_out) {
  EREBOR_ASSIGN_OR_RETURN(Task * task, kernel_->SpawnProcess(name, std::move(program)));
  if (task_out != nullptr) {
    *task_out = task;
  }
  if (monitor_ == nullptr) {
    return NotFoundError("sandbox clones require an Erebor mode (got " +
                         SimModeName(config_.mode) + ")");
  }
  return monitor_->CloneSandbox(machine_->cpu(0), *task, tmpl, spec);
}

Status World::StartProxy() {
  if (monitor_ == nullptr) {
    return FailedPreconditionError("proxy requires Erebor");
  }
  proxy_stop_ = false;
  auto program = [this](SyscallContext& ctx) -> StepOutcome {
    if (proxy_stop_) {
      return StepOutcome::kExited;
    }
    Task& task = ctx.task();
    // Lazy setup: open the device + map a bounce buffer on the first slice. The buffer
    // VA and fd live in callee-saved registers across slices.
    if (task.fds->open_count() == 0) {
      const std::string dev = "/dev/erebor";
      const auto staging = task.aspace->CreateVma(
          64 * kPageSize,
          pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute, VmaKind::kAnon);
      if (!staging.ok()) {
        return StepOutcome::kExited;
      }
      ctx.cpu().gprs().reg[15] = *staging;
      if (!ctx.WriteUser(*staging, reinterpret_cast<const uint8_t*>(dev.data()),
                         dev.size())
               .ok()) {
        return StepOutcome::kExited;
      }
      const auto fd = ctx.Syscall(sys::kOpen, *staging, dev.size(), 0);
      if (!fd.ok()) {
        return StepOutcome::kExited;
      }
      ctx.cpu().gprs().reg[14] = *fd;
    }
    const Vaddr buffer = ctx.cpu().gprs().reg[15];
    const uint64_t fd = ctx.cpu().gprs().reg[14];
    const Vaddr req_va = buffer;             // 16-byte ioctl request
    const Vaddr data_va = buffer + kPageSize;  // packet staging
    bool moved = false;

    // Network -> monitor: drain every packet pending this slice into one
    // [LE32 len | packet]* burst and hand the whole thing to the monitor in a
    // single batch ioctl, so concurrent sessions cross the EMC boundary once
    // and are ingested per-sandbox under the sharded lock plan.
    uint64_t batched = 0;
    for (;;) {
      const uint64_t capacity = 62 * kPageSize - batched;
      if (capacity <= 4) {
        break;
      }
      auto received = ctx.Syscall(sys::kRecvfrom, data_va + batched + 4, capacity - 4);
      if (!received.ok() || *received == 0) {
        break;
      }
      uint8_t prefix[4];
      StoreLe32(prefix, static_cast<uint32_t>(*received));
      if (!ctx.WriteUser(data_va + batched, prefix, sizeof(prefix)).ok()) {
        break;
      }
      batched += 4 + *received;
    }
    if (batched > 0) {
      uint8_t req[16];
      StoreLe64(req, data_va);
      StoreLe64(req + 8, batched);
      if (ctx.WriteUser(req_va, req, sizeof(req)).ok()) {
        (void)ctx.Syscall(sys::kIoctl, fd, emc_ioctl::kProxyDeliverBatch, req_va);
        moved = true;
      }
    }
    // Monitor -> network.
    uint8_t req[16];
    StoreLe64(req, data_va);
    StoreLe64(req + 8, 62 * kPageSize);
    if (ctx.WriteUser(req_va, req, sizeof(req)).ok()) {
      const auto fetched = ctx.Syscall(sys::kIoctl, fd, emc_ioctl::kProxyFetch, req_va);
      if (fetched.ok() && *fetched > 0) {
        (void)ctx.Syscall(sys::kSendto, data_va, *fetched);
        moved = true;
      }
    }
    if (!moved) {
      ctx.Compute(500);  // idle poll
    }
    return StepOutcome::kYield;
  };
  return kernel_->SpawnProcess("erebor-proxy", std::move(program)).status();
}

namespace {
// Every packet on the wire starts type(1) | sandbox_id LE32(4).
int PacketSandboxId(const Bytes& wire) {
  return wire.size() < 5 ? -1 : static_cast<int32_t>(LoadLe32(wire.data() + 1));
}
}  // namespace

Status World::ClientDeliver(const Bytes& wire, Cpu* direct) {
  if (direct == nullptr) {
    ClientSend(wire);
    return OkStatus();
  }
  if (monitor_ == nullptr) {
    return FailedPreconditionError("the attested path requires Erebor");
  }
  return monitor_->ProxyDeliverBatch(*direct, {wire});
}

StatusOr<Bytes> World::AwaitClientPacket(int sandbox_id, Cpu* direct,
                                         uint64_t max_slices) {
  if (monitor_ == nullptr) {
    return FailedPreconditionError("the attested path requires Erebor");
  }
  std::deque<Bytes>& inbox = client_inbox_[sandbox_id];
  // Moves packets off the transport into their clients' inboxes until this
  // client's own packet is there. A direct fetch pops the monitor's first
  // pending packet, whichever sandbox owns it.
  const auto arrived = [&] {
    while (inbox.empty()) {
      int owner = -1;
      StatusOr<Bytes> wire =
          direct == nullptr ? ClientReceive() : monitor_->ProxyFetch(*direct, &owner);
      if (!wire.ok()) {
        return false;
      }
      client_inbox_[direct == nullptr ? PacketSandboxId(*wire) : owner].push_back(
          std::move(*wire));
    }
    return true;
  };
  const auto quarantined = [&] {
    const Sandbox* sandbox = monitor_->sandboxes().Find(sandbox_id);
    return sandbox == nullptr || sandbox->state == SandboxState::kQuarantined;
  };
  EREBOR_RETURN_IF_ERROR(RunUntil([&] { return arrived() || quarantined(); }, max_slices));
  if (inbox.empty()) {
    return UnavailableError("sandbox " + std::to_string(sandbox_id) +
                            " was quarantined before its client's packet arrived");
  }
  Bytes wire = std::move(inbox.front());
  inbox.pop_front();
  return wire;
}

Status ClientSession::Handshake(uint64_t max_slices) {
  EREBOR_RETURN_IF_ERROR(world_.ClientDeliver(client_.MakeHello(sandbox_id_), direct_));
  EREBOR_ASSIGN_OR_RETURN(const Bytes wire,
                          world_.AwaitClientPacket(sandbox_id_, direct_, max_slices));
  return client_.ProcessServerHello(wire);
}

StatusOr<Bytes> ClientSession::Receive(uint64_t max_slices) {
  for (;;) {
    EREBOR_ASSIGN_OR_RETURN(const Bytes wire,
                            world_.AwaitClientPacket(sandbox_id_, direct_, max_slices));
    if (static_cast<PacketType>(wire[0]) != PacketType::kResultRecord) {
      continue;
    }
    StatusOr<Bytes> result = client_.OpenResult(wire);
    if (result.ok() || result.status().code() != ErrorCode::kAlreadyExists) {
      return result;
    }
  }
}

Status World::RunOnThreads(const std::function<Status(int cpu)>& body) {
  const int num_cpus = machine_->num_cpus();
  std::vector<Status> results(static_cast<size_t>(num_cpus), OkStatus());
  if (config_.exec == ExecMode::kDeterministic) {
    // The oracle schedule: same bodies, same per-vCPU work, sequential in CPU
    // order on the calling thread. Bit-replayable by construction.
    for (int cpu = 0; cpu < num_cpus; ++cpu) {
      ExecutionEngine::CpuBinding binding(cpu);
      results[static_cast<size_t>(cpu)] = body(cpu);
    }
  } else {
    // One OS thread per vCPU. The RealThreadsScope flips every seam (SimLock
    // mutexes, TLB queueing, trace ring locking) for the region's lifetime;
    // everything before and after this block is single-threaded.
    ExecutionEngine::RealThreadsScope scope;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(num_cpus));
    for (int cpu = 0; cpu < num_cpus; ++cpu) {
      threads.emplace_back([this, cpu, &body, &results]() {
        ExecutionEngine::CpuBinding binding(cpu);
        results[static_cast<size_t>(cpu)] = body(cpu);
        // Drain before parking so a peer's late shootdown cannot strand in the
        // queue of a vCPU that already finished its work...
        machine_->cpu(cpu).DrainTlbInvalidations();
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  // ...and drain once more after the join (or the sequential loop) for anything
  // posted after a vCPU's final own-thread drain. Single-threaded here, so this
  // also covers the deterministic engine's direct-apply invariants trivially.
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    machine_->cpu(cpu).DrainTlbInvalidations();
  }
  // Fault firings inside the region defer invariant checking to this safe point
  // (mirrors ChaosTick's slice-boundary deferral).
  if (pending_invariant_check_.exchange(false) && invariants_ != nullptr) {
    const Status st = invariants_->CheckAll();
    if (!st.ok()) {
      ++invariant_violations_;
      if (first_violation_.ok()) {
        first_violation_ = st;
      }
    }
  }
  for (const Status& result : results) {
    EREBOR_RETURN_IF_ERROR(result);
  }
  return OkStatus();
}

Cycles World::AlignClocks() {
  Cycles start = 0;
  for (int c = 0; c < machine_->num_cpus(); ++c) {
    start = std::max(start, machine_->cpu(c).cycles().now());
  }
  for (int c = 0; c < machine_->num_cpus(); ++c) {
    machine_->cpu(c).cycles().Charge(start - machine_->cpu(c).cycles().now());
  }
  return start;
}

void World::ThreadChaosTick(int cpu) {
  FaultInjector& injector = FaultInjector::Global();
  if (!chaos_ || !injector.Armed() || cpu < 0 || cpu >= machine_->num_cpus()) {
    return;
  }
  ++chaos_thread_slices_[static_cast<size_t>(cpu)];
  Cpu& vcpu = machine_->cpu(cpu);
  if (chaos_options_.host_preempt &&
      injector.Fire("host.preempt", FaultAction::kPreempt)) {
    // Host preemption of *this* vCPU at a thread-chosen point: one interrupt
    // delivery charged to the preempted vCPU itself. (Cross-CPU interrupt
    // injection stays driver-only — the InterruptController is not a per-thread
    // structure.)
    vcpu.cycles().Charge(vcpu.costs().interrupt_delivery);
  }
  // This vCPU's private stream decides whether the host also migrated the vCPU
  // across physical cores, going through a cold TLB: wall-clock-only (the TLB
  // charges no cycles), own-thread-safe, and — because the stream is consumed
  // once per tick regardless — deterministic per (seed, cpu, tick index), so a
  // sequential oracle replay flushes at exactly the same ticks.
  if (chaos_rngs_[static_cast<size_t>(cpu)].Next() % 16 == 0) {
    vcpu.tlb().FlushAll();
  }
}

Status World::RunUntil(const std::function<bool()>& done, uint64_t max_slices) {
  for (uint64_t i = 0; i < max_slices; ++i) {
    if (done()) {
      return OkStatus();
    }
    const bool ran = kernel_->RunOnce();
    if (chaos_) {
      ChaosTick();
    }
    if (!ran) {
      return done() ? OkStatus() : FailedPreconditionError("all tasks idle before done()");
    }
  }
  return FailedPreconditionError("RunUntil slice budget exhausted");
}

Status World::EnableChaos(const ChaosOptions& options) {
  if (monitor_ == nullptr) {
    return FailedPreconditionError("chaos requires an Erebor mode (the monitor owns "
                                   "the invariants under test)");
  }
  chaos_options_ = options;
  invariants_ = std::make_unique<InvariantChecker>(monitor_.get());
  const FaultSchedule schedule = options.schedule.rules.empty()
                                     ? FaultSchedule::Randomized(options.seed)
                                     : options.schedule;
  FaultInjector::Global().Arm(options.seed, schedule);
  // Re-arm the lock-discipline audit alongside the injector so a prior world's
  // violations (or held stacks from an aborted run) don't bleed into this soak.
  LockAudit::Global().Reset();
  // One private chaos stream per vCPU, derived from (seed, cpu id): no shared
  // RNG is ever touched from a vCPU thread, and each stream's consumption is a
  // pure function of that vCPU's own tick count, so the 64-seed soak replays
  // bit-identically under both execution engines.
  chaos_rngs_.clear();
  chaos_thread_slices_.assign(static_cast<size_t>(machine_->num_cpus()), 0);
  for (int cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    chaos_rngs_.emplace_back(options.seed ^
                             (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(cpu) + 1)));
  }
  // A fault can fire mid-gate or mid-delivery, where PKRS is legitimately in flux;
  // checking there would false-positive. Defer to the next slice boundary instead.
  FaultInjector::Global().SetObserver(
      [this](const FiredFault&) { pending_invariant_check_ = true; });
  chaos_ = true;
  chaos_slice_ = 0;
  invariant_violations_ = 0;
  first_violation_ = OkStatus();
  return OkStatus();
}

void World::DisableChaos() {
  chaos_ = false;
  FaultInjector::Global().SetObserver(nullptr);
  FaultInjector::Global().Disarm();
}

void World::ChaosTick() {
  ++chaos_slice_;
  FaultInjector& injector = FaultInjector::Global();
  if (chaos_options_.host_preempt && injector.Armed() &&
      injector.Fire("host.preempt", FaultAction::kPreempt)) {
    // Preemption target: drawn from the per-CPU stream of the vCPU whose slice
    // this is, so the choice stays deterministic without any shared RNG (the
    // streams double as the vCPU-thread streams under the real-thread engine).
    const int slot = static_cast<int>(chaos_slice_) % machine_->num_cpus();
    const int target = chaos_rngs_.empty()
                           ? slot
                           : static_cast<int>(chaos_rngs_[static_cast<size_t>(slot)].Next() %
                                              static_cast<uint64_t>(machine_->num_cpus()));
    attacker_->PreemptGuest(target);
  }
  if (chaos_options_.host_dma_probe && injector.Armed() && monitor_ != nullptr) {
    const FaultDecision decision = injector.At("host.dma");
    if (decision.action == FaultAction::kFail) {
      // DMA probe of a fault-chosen frame: the IOMMU must refuse anything private.
      // A successful read of a non-shared frame is itself an invariant violation.
      const uint64_t frames = monitor_->frame_table().size();
      const FrameNum frame = frames == 0 ? 0 : decision.entropy % frames;
      uint8_t probe[16] = {};
      const Status dma = attacker_->DmaReadGuestMemory(AddrOf(frame), probe, sizeof(probe));
      if (dma.ok() && !machine_->memory().IsShared(frame)) {
        ++invariant_violations_;
        if (first_violation_.ok()) {
          first_violation_ = InternalError("host DMA read private frame " +
                                           std::to_string(frame));
        }
      } else {
        NoteFaultRecovered();
      }
    }
  }
  const bool cadence_due = chaos_options_.check_every_slices != 0 &&
                           chaos_slice_ % chaos_options_.check_every_slices == 0;
  if ((pending_invariant_check_.exchange(false) || cadence_due) &&
      invariants_ != nullptr) {
    const Status st = invariants_->CheckAll();
    if (!st.ok()) {
      ++invariant_violations_;
      if (first_violation_.ok()) {
        first_violation_ = st;
      }
    }
  }
}

}  // namespace erebor
