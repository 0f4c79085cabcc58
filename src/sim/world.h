// World: assembles a complete simulated system under one of the paper's evaluation
// configurations (section 9 "Evaluation settings"):
//
//   kNative        - normal CVM, application directly on the kernel
//   kLibosOnly     - Erebor-LibOS-only: LibOS emulation, no monitor
//   kEreborMmuOnly - Erebor-LibOS-MMU: monitor + memory-view isolation, no exit protection
//   kEreborExitOnly- Erebor-LibOS-Exit: monitor + exit protection, native MMU ops
//   kEreborFull    - full Erebor
#ifndef EREBOR_SRC_SIM_WORLD_H_
#define EREBOR_SRC_SIM_WORLD_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>

#include "src/client/client.h"
#include "src/common/exec.h"
#include "src/common/faultpoint.h"
#include "src/common/rng.h"
#include "src/host/attacks.h"
#include "src/hw/isolation.h"
#include "src/libos/libos.h"
#include "src/monitor/invariants.h"

namespace erebor {

enum class SimMode : uint8_t {
  kNative,
  kLibosOnly,
  kEreborMmuOnly,
  kEreborExitOnly,
  kEreborFull,
};

std::string SimModeName(SimMode mode);

struct WorldConfig {
  SimMode mode = SimMode::kEreborFull;
  // Execution engine for RunOnThreads parallel regions: kDeterministic runs the
  // per-vCPU bodies sequentially on the calling thread (the bit-replayable
  // oracle); kRealThreads runs one OS thread per vCPU with real mutexes behind
  // the EMC lock plans. Boot, scheduling (RunUntil) and teardown are always
  // single-threaded regardless of this setting.
  ExecMode exec = ExecMode::kDeterministic;
  // Isolation backend for Erebor modes (src/monitor/isolation.h). kPks is the
  // paper's design (11 sandbox domains); kTmeMk trades the PKRS gate writes for
  // per-frame keyID bindings (~2K domains) and applies TmeMkCycleModel() to the
  // machine's cycle costs at construction.
  IsolationKind isolation = IsolationKind::kPks;
  MachineConfig machine;
  KernelConfig kernel;
  KernelBuildOptions kernel_image;  // instrumented flag is forced by mode
};

// Chaos-soak configuration: arms the global fault injector and drives host-side
// probes + invariant checks from the world's scheduler loop. Enable only *after*
// Boot() — injecting faults into the boot path tests nothing the paper claims.
struct ChaosOptions {
  uint64_t seed = 1;
  // Explicit schedule; leave empty to use FaultSchedule::Randomized(seed).
  FaultSchedule schedule;
  // Host-driven asynchronous probes, fired between scheduler slices through the
  // attack harness: "host.preempt" (device-interrupt preemption at an arbitrary
  // point) and "host.dma" (DMA read of a fault-chosen frame, which must fail for
  // anything but shared-IO memory).
  bool host_preempt = true;
  bool host_dma_probe = true;
  // Invariant-check cadence in scheduler slices; checks also run (deferred to the
  // next slice boundary — a safe point) after every injected fault. 0 disables the
  // cadence, leaving only fault-triggered checks.
  uint64_t check_every_slices = 64;
};

class World {
 public:
  explicit World(const WorldConfig& config);
  ~World();

  Status Boot();

  Machine& machine() { return *machine_; }
  TdxModule& tdx() { return *tdx_; }
  HostVmm& host() { return *host_; }
  Kernel& kernel() { return *kernel_; }
  EreborMonitor* monitor() { return monitor_.get(); }  // null in native/libos-only modes
  HostAttacker& attacker() { return *attacker_; }
  PrivilegedOps& privops() { return *active_ops_; }
  SimMode mode() const { return config_.mode; }
  bool erebor_active() const { return monitor_ != nullptr; }
  bool exit_protection() const;
  LibosBackend libos_backend() const;
  bool libos_overheads() const { return config_.mode != SimMode::kNative; }

  const Bytes& firmware_image() const { return firmware_image_; }
  ClientTrustAnchors MakeTrustAnchors() const;

  // Spawns a process and (in Erebor modes) wraps it in a sandbox.
  StatusOr<Task*> LaunchProcess(const std::string& name, ProgramFn program);
  StatusOr<Sandbox*> LaunchSandboxProcess(const std::string& name, const SandboxSpec& spec,
                                          ProgramFn program, Task** task_out = nullptr);
  // Warm-start fast path (ROADMAP item 2): spawns a process and wraps it in a
  // copy-on-write clone of `tmpl`, which must already be frozen with
  // monitor()->SnapshotTemplate(). The clone comes back domain-deferred; promote
  // it with monitor()->ActivateClone before sealing (first CoW break promotes
  // lazily too, but an explicit promotion keeps domain exhaustion a launch-time
  // error rather than a mid-request kill).
  StatusOr<Sandbox*> LaunchCloneProcess(const std::string& name, Sandbox& tmpl,
                                        const SandboxSpec& spec, ProgramFn program,
                                        Task** task_out = nullptr);

  // Spawns the untrusted network proxy (Erebor modes); it pumps packets between the
  // monitor and the host network until StopProxy().
  Status StartProxy();
  void StopProxy() { proxy_stop_ = true; }

  // "Remote" side of the network (the client's vantage point).
  void ClientSend(const Bytes& wire) { host_->network().WorldTransmit(wire); }
  StatusOr<Bytes> ClientReceive() { return host_->network().WorldReceive(); }

  // ---- Client transport: the remote end of the attested path ----
  // With `direct` null a packet crosses the host network, and the proxy process
  // (StartProxy) carries it to and from the monitor. With a vCPU given, the
  // client calls the monitor's proxy entry points (ProxyDeliverBatch and
  // ProxyFetch) on that vCPU itself, for worlds that run no proxy process.
  Status ClientDeliver(const Bytes& wire, Cpu* direct = nullptr);
  // Returns the next packet the monitor sent to sandbox `sandbox_id`'s client,
  // running the scheduler until one is there (at most `max_slices`). Packets
  // for other sandboxes met on the way are held for their own clients. Stops
  // early once the sandbox is quarantined: nothing leaves a quarantined sandbox.
  StatusOr<Bytes> AwaitClientPacket(int sandbox_id, Cpu* direct = nullptr,
                                    uint64_t max_slices = 2'000'000);

  // Runs the scheduler until `done` returns true or no task is runnable.
  Status RunUntil(const std::function<bool()>& done, uint64_t max_slices = 2'000'000);

  // ---- Parallel region (the execution-engine seam) ----
  // Runs `body(cpu)` once per vCPU. Under ExecMode::kRealThreads each body runs
  // on its own OS thread bound to its vCPU (SimLocks become real mutexes,
  // cross-CPU TLB maintenance queues, shared counters go relaxed-atomic); under
  // kDeterministic the bodies run sequentially on the calling thread in CPU
  // order — the oracle schedule. Both engines execute identical simulated work,
  // so EMC-family counters, fault-journal hashes, and per-CPU charged cycles
  // must be bit-identical across them. Returns the first non-OK body status
  // after every thread has joined and all invalidation queues are drained.
  Status RunOnThreads(const std::function<Status(int cpu)>& body);
  ExecMode exec_mode() const { return config_.exec; }
  // Charges every vCPU up to the furthest clock, so per-vCPU deltas from the
  // returned common start compare work, not earlier skew (boot runs mostly on
  // cpu0).
  Cycles AlignClocks();

  // Per-vCPU chaos step for RunOnThreads bodies: fires the "host.preempt" probe
  // and, via this vCPU's private RNG stream (seeded from (chaos seed, cpu)),
  // occasionally models a host-side vCPU migration by flushing the vCPU's own
  // TLB (wall-clock-only; zero cycles). Safe from the owning vCPU thread in
  // both engines; a no-op when chaos is off. Deterministic per (seed, cpu,
  // call index), so a sequential replay makes identical decisions.
  void ThreadChaosTick(int cpu);

  // ---- Chaos soak ----
  // Arms the global FaultInjector with options.schedule (or a seed-randomized one)
  // and hooks host probes + invariant checks into RunUntil. Requires a booted
  // Erebor mode (the monitor owns the invariants being checked).
  Status EnableChaos(const ChaosOptions& options);
  // Disarms the injector and detaches the hooks (also called from the destructor so
  // a chaotic World never leaks an armed injector into the next test).
  void DisableChaos();
  bool chaos_enabled() const { return chaos_; }
  InvariantChecker* invariants() { return invariants_.get(); }
  uint64_t invariant_violations() const { return invariant_violations_; }
  const Status& first_violation() const { return first_violation_; }

 private:
  // One post-slice chaos step: host probes, then any due invariant check.
  void ChaosTick();
  WorldConfig config_;
  Bytes firmware_image_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<TdxModule> tdx_;
  std::unique_ptr<HostVmm> host_;
  std::unique_ptr<EreborMonitor> monitor_;
  std::unique_ptr<NativePrivOps> native_ops_;
  std::unique_ptr<EmcPrivOps> emc_ops_;
  PrivilegedOps* active_ops_ = nullptr;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<HostAttacker> attacker_;
  bool proxy_stop_ = false;
  // Client-side packets already taken off the transport, by sandbox id.
  std::map<int, std::deque<Bytes>> client_inbox_;

  // Chaos-soak state.
  bool chaos_ = false;
  ChaosOptions chaos_options_;
  std::unique_ptr<InvariantChecker> invariants_;
  uint64_t chaos_slice_ = 0;
  // Set by the fault observer, possibly from a vCPU thread mid-parallel-region;
  // consumed at the next safe point (slice boundary or post-join).
  std::atomic<bool> pending_invariant_check_{false};
  uint64_t invariant_violations_ = 0;
  Status first_violation_;
  // Per-vCPU chaos RNG streams, seeded from (chaos seed, cpu id) at EnableChaos.
  // Each stream is consumed only by its own vCPU (ThreadChaosTick) or by the
  // single-threaded driver (ChaosTick), never shared across threads.
  std::vector<SplitMix64> chaos_rngs_;
  std::vector<uint64_t> chaos_thread_slices_;  // per-vCPU ThreadChaosTick count
};

// One remote client's session with one sandbox over the attested path:
// Handshake() sends the ClientHello and verifies the quoted ServerHello against
// the world's trust anchors, Send() seals a kDataRecord, and Receive() opens the
// next kResultRecord. `direct` picks the transport as for World::ClientDeliver.
class ClientSession {
 public:
  ClientSession(World& world, int sandbox_id, uint64_t seed, Cpu* direct = nullptr)
      : world_(world),
        sandbox_id_(sandbox_id),
        direct_(direct),
        client_(world.MakeTrustAnchors(), seed) {}

  Status Handshake(uint64_t max_slices = 2'000'000);
  Status Send(const Bytes& plaintext) {
    return world_.ClientDeliver(client_.SealData(plaintext), direct_);
  }
  // Skips packets the network duplicated (a second ServerHello, a result this
  // client already opened); any other open failure is returned.
  StatusOr<Bytes> Receive(uint64_t max_slices = 2'000'000);

  RemoteClient& client() { return client_; }

 private:
  World& world_;
  int sandbox_id_;
  Cpu* direct_;
  RemoteClient client_;
};

}  // namespace erebor

#endif  // EREBOR_SRC_SIM_WORLD_H_
