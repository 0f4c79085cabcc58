// End-to-end benchmark of the attested client path (see perfbench/README.md).
//
//   erebor_perfbench --workload jobs|serve|ingest --seed N --seconds S --trace 0|1
//
// Drives the system only through its public surfaces (World, RemoteClient,
// Workload/LibosEnv, FleetSupervisor, EreborMonitor counters, KernelStats,
// Tlb::GlobalStats, Tracer) and times every layer from outside, around the
// calls into it. Every workload is a closed loop with one operation in flight.
//
// Output: human-readable report lines, then one final line
//   RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..},"info":{..}}
// which perfbench/run.py turns into the benchmark's result object.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/client/client.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/group.h"
#include "src/crypto/hmac.h"
#include "src/fleet/supervisor.h"
#include "src/hw/paging.h"
#include "src/hw/tlb.h"
#include "src/kernel/layout.h"
#include "src/monitor/monitor.h"
#include "src/sim/world.h"
#include "src/workloads/graph.h"
#include "src/workloads/ids.h"
#include "src/workloads/llm.h"
#include "src/workloads/retrieval.h"
#include "src/workloads/runner.h"
#include "src/workloads/vision.h"

namespace erebor {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kSimHz = 2.1e9;  // the cycle model's clock

// Setups per run (setup_s is their median). The first setup replays the
// first kReplayOps operations, which must match the measured world bit for
// bit; the simulated metrics cover the first kSimWindow operations of the
// measured phase.
constexpr int kSetups = 5;
constexpr size_t kReplayOpsJobs = 10;
constexpr size_t kSimWindowJobs = 100;
constexpr size_t kReplayOpsFleet = 2;
constexpr size_t kSimWindowFleet = 20;  // 1280 requests: p99 has 12 beyond it
constexpr int kFleetTenants = 8;
// One fleet operation is this many one-round RunServing calls (64 requests).
// A single call's host time is bimodal, and the mix of its two modes shifts
// from run to run, so a per-call median would flip between them.
constexpr int kFleetCallsPerOp = 8;
// RunUntil budget per job phase; a lost packet surfaces as a failed job, not
// as a two-million-slice hang.
constexpr uint64_t kJobPhaseSlices = 600'000;
// jobs: World lifetime in jobs (see JobsBench::Recycle).
constexpr int kJobsPerWorld = 20;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// ---- Counter snapshots --------------------------------------------------

enum Ctr : size_t {
  kEmc,
  kEmcPte,
  kEmcUsercopy,
  kEmcSandbox,
  kEmcTdcall,
  kShootdowns,
  kDenials,
  kSyscalls,
  kCtxSwitches,
  kPageFaults,
  kTimerIrqs,
  kVeExits,
  kTlbHits,
  kTlbPscHits,
  kTlbMisses,
  kTlbFlushes,
  kTdxEvents,
  kRetries,
  kNumCtrs,
};
using Counts = std::array<uint64_t, kNumCtrs>;

Counts Snap(World& world) {
  Counts c{};
  const MonitorCounters& m = world.monitor()->counters();
  c[kEmc] = m.emc_total;
  c[kEmcPte] = m.emc_pte;
  c[kEmcUsercopy] = m.emc_usercopy;
  c[kEmcSandbox] = m.emc_sandbox;
  c[kEmcTdcall] = m.emc_tdcall;
  c[kShootdowns] = m.tlb_shootdowns;
  c[kDenials] = m.policy_denials;
  const KernelStats& k = world.kernel().stats();
  c[kSyscalls] = k.syscalls;
  c[kCtxSwitches] = k.context_switches;
  c[kPageFaults] = k.page_faults;
  c[kTimerIrqs] = k.timer_interrupts;
  c[kVeExits] = k.ve_exits;
  const Tlb::Stats& t = Tlb::GlobalStats();
  c[kTlbHits] = t.hits;
  c[kTlbPscHits] = t.psc_hits;
  c[kTlbMisses] = t.misses;
  c[kTlbFlushes] = t.flushes;
  const Tracer& tracer = Tracer::Global();
  c[kTdxEvents] = tracer.CountKind(TraceEvent::kTdxReport) +
                  tracer.CountKind(TraceEvent::kTdxRtmrExtend) +
                  tracer.CountKind(TraceEvent::kTdxMapGpa) +
                  tracer.CountKind(TraceEvent::kTdxVmcall);
  c[kRetries] = MetricsRegistry::Global().Value("channel.retries");
  return c;
}

Counts Diff(const Counts& after, const Counts& before) {
  Counts d{};
  for (size_t i = 0; i < kNumCtrs; ++i) {
    d[i] = after[i] - before[i];
  }
  return d;
}

// The simulated "now" of a multi-vCPU world: the furthest-ahead vCPU clock
// (the fleet supervisor measures request latency on the same clock).
uint64_t MaxCpuCycles(World& world) {
  uint64_t now = 0;
  for (int c = 0; c < world.machine().num_cpus(); ++c) {
    now = std::max<uint64_t>(now, world.machine().cpu(c).cycles().now());
  }
  return now;
}

// ---- One measured operation ------------------------------------------------

struct Spans {  // host seconds per layer call (jobs only)
  double init = 0;       // launch + attach common + RunUntil(LibOS init)
  double hello = 0;      // RemoteClient::MakeHello
  double handshake = 0;  // RunUntil(ServerHello received)
  double verify = 0;     // RemoteClient::ProcessServerHello
  double seal = 0;       // RemoteClient::SealData
  double job = 0;        // RunUntil(result received)
  double open = 0;       // RemoteClient::OpenResult
  double teardown = 0;   // RunUntil(sandbox torn down after Fin)
};

struct OpRecord {
  double host_s = 0;      // wall time of the whole operation
  double end_s = 0;       // completion time since the phase started
  uint64_t requests = 0;  // client requests completed by this operation
  uint64_t attempted = 0;
  Counts delta{};
  // Deterministic simulated quantities (replay-checked).
  uint64_t sim_latency = 0;  // jobs: hello -> result, max-vCPU cycles; fleet: sum (ns)
  uint64_t sim_service = 0;  // jobs: sealed input sent -> result; fleet: the whole
                             // operation (both TotalCycles: every vCPU's cycles)
  uint64_t sim_aux = 0;      // jobs: LibOS init TotalCycles
  std::vector<uint64_t> latencies_ns;  // fleet: each request's simulated latency
  uint64_t leaked_frames = 0;  // jobs: kernel pool frames not returned by the job
  double recycle_s = 0;        // jobs: World rebuild before this job (timed)
  double untimed_s = 0;        // invariant audit of the retiring World
  int app = -1;
  Clock::time_point start;  // when the operation began (host-speed lookup)
  Spans spans;
};

// Values that must replay bit-identically for the same seed.
std::vector<uint64_t> Fingerprint(const OpRecord& r) {
  std::vector<uint64_t> v = {r.sim_latency, r.sim_service, r.sim_aux, r.leaked_frames,
                             r.requests};
  for (size_t i = 0; i < kNumCtrs; ++i) {
    if (i != kTdxEvents && i != kRetries) {  // tracer- / process-global counts
      v.push_back(r.delta[i]);
    }
  }
  return v;
}

uint64_t HashWindow(const std::vector<OpRecord>& ops, size_t n) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < n && i < ops.size(); ++i) {
    for (uint64_t v : Fingerprint(ops[i])) {
      h = SplitMix64(h ^ v).Next();
    }
  }
  return h;
}

// ---- Statistics --------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Nearest-rank percentile: always an observed sample, so exact values replay.
uint64_t NearestRank(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Result ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  // A per-layer metric the workload does not exercise: reported as 0 and
  // listed under info.not_applicable.
  void NotApplicable(const std::string& name, const std::string& unit) {
    Add(name, 0, unit);
    not_applicable_.push_back(name);
  }
  void Info(const std::string& key, const std::string& json_value) {
    info_.emplace_back(key, json_value);
  }
  void Fail(const std::string& why) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-42s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::string out = "RESULT {\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      out += (i ? ", " : "") + Quote(metrics_[i].name) + ": {\"value\": " + value +
             ", \"unit\": " + Quote(metrics_[i].unit) + "}";
    }
    out += "}, \"info\": {";
    std::string na = "[";
    for (size_t i = 0; i < not_applicable_.size(); ++i) {
      na += (i ? ", " : "") + Quote(not_applicable_[i]);
    }
    na += "]";
    out += "\"not_applicable\": " + na;
    for (const auto& [key, value] : info_) {
      out += ", " + Quote(key) + ": " + value;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
      }
      q += c;
    }
    return q + "\"";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> not_applicable_;
  std::vector<std::pair<std::string, std::string>> info_;
  bool correct_ = true;
};

// ---- Workload interface -------------------------------------------------

class Bench {
 public:
  virtual ~Bench() = default;
  // Builds the world (or fleet) up to the first timed operation.
  virtual Status Setup() = 0;
  // Runs operation `index` (closed loop, one in flight).
  virtual Status RunOp(uint64_t index, OpRecord* rec) = 0;
  virtual World& world() = 0;
  // Host seconds of the layer's own setup step (sim.boot_ms / fleet.start_ms).
  virtual double setup_layer_s() const = 0;
};

// ---- jobs: one-shot private jobs over the attested path --------------------

// Background VM housekeeping: mmap/populate/munmap churn paced against
// simulated time, at the current app's Table-6 rate (the workload runner runs
// the same churn beside every app).
ProgramFn MakeHousekeepingProgram(std::shared_ptr<uint64_t> pte_ops_per_sec) {
  auto last = std::make_shared<Cycles>(0);
  return [last, pte_ops_per_sec](SyscallContext& ctx) -> StepOutcome {
    constexpr uint64_t kPagesPerChunk = 16;
    constexpr double kPteOpsPerChunk = 2.0 * kPagesPerChunk + 3;
    const Cycles now = ctx.kernel().machine().TotalCycles();
    if (*last == 0) {
      *last = now;
      return StepOutcome::kYield;
    }
    uint64_t due = static_cast<uint64_t>((now - *last) * *pte_ops_per_sec / kSimHz /
                                         kPteOpsPerChunk);
    due = std::min<uint64_t>(due, 32);
    if (due == 0) {
      ctx.Compute(1200);
      return StepOutcome::kYield;
    }
    *last = now;
    for (uint64_t i = 0; i < due; ++i) {
      auto va = ctx.Syscall(sys::kMmap, 0, kPagesPerChunk * kPageSize,
                            sys::kProtRead | sys::kProtWrite, sys::kMapPopulate);
      if (va.ok()) {
        (void)ctx.Syscall(sys::kMunmap, *va);
      }
    }
    return StepOutcome::kYield;
  };
}

struct JobApp {
  std::unique_ptr<Workload> workload;
  uint64_t input_seed = 0;
  Bytes input;
  std::string sizes;  // human-readable input size description
};

// The five paper apps with inputs sized under the proxy's single-record cap
// (62 staged pages, ~248 KiB) and scaled by a seeded factor in [0.97, 1.0].
std::vector<JobApp> MakeJobApps(uint64_t seed) {
  SplitMix64 rng(seed ^ 0x10B5ULL);
  auto scale = [&rng](uint32_t nominal) {
    const double f = 0.97 + 0.03 * static_cast<double>(rng.Next() >> 11) / 9007199254740992.0;
    return static_cast<uint32_t>(nominal * f);
  };
  std::vector<JobApp> apps(5);
  LlmParams llm;
  apps[0].workload = std::make_unique<LlmWorkload>(llm);
  apps[0].sizes = "prompt, " + std::to_string(llm.generate_tokens) + " tokens";
  VisionParams vision;
  vision.num_images = scale(48);
  apps[1].workload = std::make_unique<VisionWorkload>(vision);
  apps[1].sizes = std::to_string(vision.num_images) + " images";
  RetrievalParams retrieval;
  retrieval.num_queries = scale(28'000);
  apps[2].workload = std::make_unique<RetrievalWorkload>(retrieval);
  apps[2].sizes = std::to_string(retrieval.num_queries) + " queries";
  GraphParams graph;
  graph.num_nodes = 6'000;
  graph.num_edges = scale(28'000);
  apps[3].workload = std::make_unique<GraphWorkload>(graph);
  apps[3].sizes = std::to_string(graph.num_nodes) + " nodes, " +
                  std::to_string(graph.num_edges) + " edges";
  IdsParams ids;
  ids.num_events = scale(14'000);
  ids.window_events = 256;
  apps[4].workload = std::make_unique<IdsWorkload>(ids);
  apps[4].sizes = std::to_string(ids.num_events) + " events, window 256";
  for (JobApp& app : apps) {
    app.input_seed = rng.Next() % 1'000'000;
    app.input = app.workload->MakeClientInput(app.input_seed);
    app.sizes += " (" + std::to_string(app.input.size()) + " B)";
  }
  return apps;
}

class JobsBench : public Bench {
 public:
  JobsBench(std::vector<JobApp>* apps, uint64_t seed) : apps_(apps), seed_(seed) {}

  Status Setup() override {
    jobs_in_world_ = 0;
    world_.reset();
    const RunnerOptions runner;  // same machine shape as the Fig-9 runner
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    config.machine.memory_frames = runner.memory_frames;
    config.machine.num_cpus = runner.num_cpus;
    world_ = std::make_unique<World>(config);
    const auto boot_start = Clock::now();
    EREBOR_RETURN_IF_ERROR(world_->Boot());
    EREBOR_RETURN_IF_ERROR(world_->StartProxy());
    boot_s_ = SecondsSince(boot_start);
    anchors_ = world_->MakeTrustAnchors();
    // Provider side: each app's shared instance is prepared once.
    regions_.assign(apps_->size(), -1);
    for (size_t a = 0; a < apps_->size(); ++a) {
      const Workload& w = *(*apps_)[a].workload;
      if (w.common_bytes() == 0) {
        continue;
      }
      auto region = world_->monitor()->CreateCommonRegion(w.name() + ".common",
                                                          w.common_bytes());
      EREBOR_RETURN_IF_ERROR(region.status());
      for (uint64_t i = 0; i < (*region)->num_frames; ++i) {
        w.FillCommonPage(i, world_->machine().memory().FramePtr((*region)->first_frame + i));
      }
      regions_[a] = (*region)->id;
    }
    vm_rate_ = std::make_shared<uint64_t>((*apps_)[0].workload->background_vm_rate());
    return world_->LaunchProcess("vm-housekeeping", MakeHousekeepingProgram(vm_rate_))
        .status();
  }

  Status RunOp(uint64_t index, OpRecord* rec) override {
    const size_t a = index % apps_->size();
    JobApp& app = (*apps_)[a];
    Workload& w = *app.workload;
    rec->app = static_cast<int>(a);
    rec->attempted = 1;
    if (jobs_in_world_ == kJobsPerWorld) {
      EREBOR_RETURN_IF_ERROR(Recycle(rec));
    }
    World& world = *world_;
    Cpu& cpu0 = world.machine().cpu(0);
    *vm_rate_ = w.background_vm_rate();
    const Counts before = Snap(world);
    const uint64_t pool_before = world.kernel().pool().used();
    const auto op_start = Clock::now();

    // Launch a fresh sandbox, attach the app's common region, await LibOS init.
    auto t = Clock::now();
    const Cycles init_c0 = world.machine().TotalCycles();
    const LibosManifest manifest = w.Manifest();
    auto state = std::make_shared<AppState>();
    state->env = std::make_shared<LibosEnv>(manifest, world.libos_backend(),
                                            world.libos_overheads());
    state->common_bytes = w.common_bytes();
    state->common_base = state->common_bytes > 0 ? kLibosCommonBase : 0;
    SandboxSpec spec;
    spec.name = w.name();
    spec.confined_budget_bytes = manifest.heap_bytes + (4ull << 20);
    spec.max_threads = manifest.num_threads;
    spec.output_pad_bytes = manifest.output_pad_bytes;
    auto launched = world.LaunchSandboxProcess(w.name() + "-" + std::to_string(index), spec,
                                               w.MakeProgram(state));
    EREBOR_RETURN_IF_ERROR(launched.status());
    Sandbox& sandbox = **launched;
    if (regions_[a] >= 0) {
      EREBOR_RETURN_IF_ERROR(world.monitor()->AttachCommon(cpu0, sandbox, regions_[a],
                                                           kLibosCommonBase, false));
    }
    EREBOR_RETURN_IF_ERROR(world.RunUntil(
        [&] { return state->init_done || state->failed; }, kJobPhaseSlices));
    if (state->failed) {
      return InternalError("init: " + state->failure);
    }
    rec->sim_aux = world.machine().TotalCycles() - init_c0;
    rec->spans.init = SecondsSince(t);

    // Attest: hello, quote + key exchange inside the world, client verify.
    RemoteClient client(anchors_, seed_ * 1'000'003 + index);
    t = Clock::now();
    const Bytes hello = client.MakeHello(sandbox.id);
    rec->spans.hello = SecondsSince(t);
    const uint64_t sim_hello = MaxCpuCycles(world);
    world.ClientSend(hello);
    Bytes wire;
    t = Clock::now();
    EREBOR_RETURN_IF_ERROR(Pump(&wire));
    rec->spans.handshake = SecondsSince(t);
    t = Clock::now();
    EREBOR_RETURN_IF_ERROR(client.ProcessServerHello(wire));
    rec->spans.verify = SecondsSince(t);

    // Private data in, result out.
    t = Clock::now();
    const Bytes sealed = client.SealData(app.input);
    rec->spans.seal = SecondsSince(t);
    const Cycles service_c0 = world.machine().TotalCycles();
    world.ClientSend(sealed);
    t = Clock::now();
    EREBOR_RETURN_IF_ERROR(Pump(&wire));
    rec->spans.job = SecondsSince(t);
    rec->sim_service = world.machine().TotalCycles() - service_c0;
    rec->sim_latency = MaxCpuCycles(world) - sim_hello;
    t = Clock::now();
    auto result = client.OpenResult(wire);
    rec->spans.open = SecondsSince(t);
    EREBOR_RETURN_IF_ERROR(result.status());
    if (state->failed) {
      return InternalError("run: " + state->failure);
    }
    if (!w.CheckOutput(app.input, *result)) {
      return InternalError(w.name() + ": result fails CheckOutput");
    }

    // Fin: the monitor zeroizes and tears the sandbox down.
    t = Clock::now();
    world.ClientSend(client.MakeFin());
    EREBOR_RETURN_IF_ERROR(world.RunUntil(
        [&] { return sandbox.state == SandboxState::kTornDown; }, kJobPhaseSlices));
    rec->spans.teardown = SecondsSince(t);

    rec->host_s = SecondsSince(op_start);
    rec->delta = Diff(Snap(world), before);
    rec->leaked_frames = world.kernel().pool().used() - pool_before;
    rec->requests = 1;
    ++jobs_in_world_;
    return OkStatus();
  }

  World& world() override { return *world_; }
  double setup_layer_s() const override { return boot_s_; }

 private:
  // Every kJobsPerWorld jobs the CVM is rebuilt: the kernel never frees a
  // finished job's page tables and LibOS buffers (the torn-down Sandbox keeps
  // a reference to the address space when the task is reaped), ~3 MB per job,
  // so one World runs out of frames after about two dozen jobs. The audit of
  // the retiring World is untimed; the rebuild counts toward throughput.
  Status Recycle(OpRecord* rec) {
    const auto audit_start = Clock::now();
    const Status audit = world_->monitor()->AuditInvariants();
    rec->untimed_s = SecondsSince(audit_start);
    EREBOR_RETURN_IF_ERROR(audit);
    const auto start = Clock::now();
    EREBOR_RETURN_IF_ERROR(Setup());
    rec->recycle_s = SecondsSince(start);
    return OkStatus();
  }

  // Runs the scheduler until the next packet reaches the client.
  Status Pump(Bytes* wire) {
    bool got = false;
    EREBOR_RETURN_IF_ERROR(world_->RunUntil(
        [&] {
          auto packet = world_->ClientReceive();
          if (packet.ok()) {
            *wire = std::move(*packet);
            got = true;
          }
          return got;
        },
        kJobPhaseSlices));
    return got ? OkStatus() : UnavailableError("no packet");
  }

  std::vector<JobApp>* apps_;
  uint64_t seed_;
  std::unique_ptr<World> world_;
  ClientTrustAnchors anchors_;
  std::vector<int> regions_;
  std::shared_ptr<uint64_t> vm_rate_;
  int jobs_in_world_ = 0;
  double boot_s_ = 0;
};

// ---- serve / ingest: the fleet serving loop ---------------------------------

LatencyHistogram& FleetHistogram(const std::string& name) {
  // Created by FleetSupervisor::Start with this shape; first creation wins.
  return *MetricsRegistry::Global().GetLatencyHistogram(name, 2'000, 4096);
}

class FleetBench : public Bench {
 public:
  FleetBench(const FleetConfig& config, size_t window) : config_(config), window_(window) {}

  Status Setup() override {
    const auto start = Clock::now();
    fleet_ = std::make_unique<FleetSupervisor>(config_);
    EREBOR_RETURN_IF_ERROR(fleet_->Start());
    start_s_ = SecondsSince(start);
    tenant_latency_.clear();
    for (int t = 0; t < config_.num_tenants; ++t) {
      tenant_latency_.push_back(
          &FleetHistogram("serving.latency.tenant" + std::to_string(t)));
    }
    return OkStatus();
  }

  // kFleetCallsPerOp RunServing calls of one round each, i.e. one request
  // per tenant per call. Each tenant's histogram then gains exactly one
  // observation per call, so its sum delta is that request's exact simulated
  // latency (the fleet histogram itself only resolves 2 us buckets).
  Status RunOp(uint64_t index, OpRecord* rec) override {
    World& world = fleet_->world();
    const Counts before = Snap(world);
    const uint64_t sim0 = world.machine().TotalCycles();
    std::vector<std::pair<uint64_t, uint64_t>> tenant0(tenant_latency_.size());
    for (int call = 0; call < kFleetCallsPerOp; ++call) {
      for (size_t t = 0; t < tenant_latency_.size(); ++t) {
        tenant0[t] = {tenant_latency_[t]->count(), tenant_latency_[t]->sum()};
      }
      const auto start = Clock::now();
      const Status st = fleet_->RunServing();
      rec->host_s += SecondsSince(start);
      rec->attempted += static_cast<uint64_t>(config_.num_tenants);
      EREBOR_RETURN_IF_ERROR(st);
      for (size_t t = 0; t < tenant_latency_.size(); ++t) {
        const uint64_t n = tenant_latency_[t]->count() - tenant0[t].first;
        const uint64_t sum = tenant_latency_[t]->sum() - tenant0[t].second;
        rec->requests += n;
        if (n > 0) {
          rec->latencies_ns.push_back(sum / n);
          rec->sim_latency += sum;
        }
      }
    }
    rec->delta = Diff(Snap(world), before);
    rec->sim_service = world.machine().TotalCycles() - sim0;
    if (index + 1 == window_) {
      const LatencyHistogram& fleet = FleetHistogram("serving.latency.fleet");
      report_edges_ = {fleet.Percentile(0.50), fleet.Percentile(0.90), fleet.Percentile(0.99)};
    }
    return OkStatus();
  }

  // FleetReport's bucketed fleet percentiles (upper bucket edges) at the end
  // of the simulation window: p50, p90, p99.
  const std::array<uint64_t, 3>& report_edges() const { return report_edges_; }

  World& world() override { return fleet_->world(); }
  double setup_layer_s() const override { return start_s_; }
  FleetSupervisor& fleet() { return *fleet_; }

 private:
  FleetConfig config_;
  size_t window_;
  std::unique_ptr<FleetSupervisor> fleet_;
  std::vector<const LatencyHistogram*> tenant_latency_;
  std::array<uint64_t, 3> report_edges_{};
  double start_s_ = 0;
};

// ---- Host speed reference ----------------------------------------------

// Shared hosts slow a single thread down by up to ~1.7x for seconds at a time
// (co-tenants on the same cores), far beyond any useful regression bound. So
// every host-time metric is normalized to a fixed reference loop timed in the
// same run, interleaved with the operations: each operation's time is divided
// by the host slowdown measured around it. The loop shares no code with the
// simulator, so no change to the program can move it; its four independent
// dependency chains (shifts, multiplies, L1-resident loads) keep several
// execution ports busy, which makes it slow down with a contended core the
// way the simulator does (a single dependent chain tracks it much worse).
class HostReference {
 public:
  // The loop's duration on an uncontended 4-core Xeon host: a normalized
  // figure is the raw one rescaled to that speed.
  static constexpr double kNominalNs = 5.0e5;

  HostReference() : table_(kEntries) {
    SplitMix64 rng(0x7AB1E);
    for (uint64_t& v : table_) {
      v = rng.Next();
    }
  }

  // Runs the loop once and records its duration.
  void Sample() {
    const auto start = Clock::now();
    uint64_t a = sink_, b = sink_ + 1, c = sink_ + 2, d = sink_ + 3;
    for (uint64_t i = 0; i < kSteps; ++i) {
      a ^= a << 13;
      a ^= a >> 7;
      a ^= a << 17;
      b ^= b << 13;
      b ^= b >> 7;
      b ^= b << 17;
      c = c * 0x9E3779B97F4A7C15ULL + table_[i & (kEntries - 1)];
      d = d * 0xBF58476D1CE4E5B9ULL + table_[(i * 7) & (kEntries - 1)];
    }
    sink_ = a ^ b ^ c ^ d;
    samples_.push_back({start, SecondsSince(start) * 1e9});
  }

  // Slowdown against the nominal speed at time `t`: the mean of the samples
  // taken just before and just after it.
  double SlowdownAt(Clock::time_point t) const {
    size_t after = static_cast<size_t>(
        std::upper_bound(samples_.begin(), samples_.end(), t,
                         [](Clock::time_point v, const Entry& e) { return v < e.at; }) -
        samples_.begin());
    const size_t before = after > 0 ? after - 1 : 0;
    after = std::min(after, samples_.size() - 1);
    return (samples_[before].ns + samples_[after].ns) / 2 / kNominalNs;
  }

  double MedianSlowdown() const {
    std::vector<double> ns;
    for (const Entry& e : samples_) {
      ns.push_back(e.ns);
    }
    return Quantile(ns, 0.5) / kNominalNs;
  }
  size_t samples() const { return samples_.size(); }

 private:
  struct Entry {
    Clock::time_point at;
    double ns;
  };
  static constexpr uint64_t kEntries = uint64_t{1} << 13;  // 64 KiB
  static constexpr uint64_t kSteps = 200'000;
  std::vector<uint64_t> table_;
  std::vector<Entry> samples_;  // in time order
  uint64_t sink_ = 1;
};

// ---- Measured phases ----------------------------------------------------

struct Phase {
  std::vector<OpRecord> ops;
  double wall_s = 0;
  Status status;
};

// Every kReferenceEvery seconds the host reference loop runs between two
// operations, untimed.
constexpr double kReferenceEvery = 0.05;

// Closed loop: runs operations back to back for `seconds` and at least
// `min_ops` operations. Stops at the first failed operation.
Phase RunPhase(Bench& bench, uint64_t* next_index, double seconds, size_t min_ops,
               HostReference* reference) {
  Phase phase;
  const auto start = Clock::now();
  double untimed = 0;
  double next_reference = 0;
  while (phase.ops.size() < min_ops || SecondsSince(start) - untimed < seconds) {
    if (reference != nullptr && SecondsSince(start) - untimed >= next_reference) {
      const auto ref_start = Clock::now();
      reference->Sample();
      untimed += SecondsSince(ref_start);
      next_reference = SecondsSince(start) - untimed + kReferenceEvery;
    }
    OpRecord rec;
    rec.start = Clock::now();
    phase.status = bench.RunOp((*next_index)++, &rec);
    untimed += rec.untimed_s;
    rec.end_s = SecondsSince(start) - untimed;
    phase.ops.push_back(rec);
    if (!phase.status.ok()) {
      break;
    }
  }
  phase.wall_s = SecondsSince(start) - untimed;
  return phase;
}

uint64_t Requests(const std::vector<OpRecord>& ops, size_t begin, size_t end) {
  uint64_t n = 0;
  for (size_t i = begin; i < end && i < ops.size(); ++i) {
    n += ops[i].requests;
  }
  return n;
}

// Completed requests per host second in [from, to) of the phase's wall time.
double RateIn(const Phase& phase, double from, double to) {
  uint64_t n = 0;
  for (const OpRecord& r : phase.ops) {
    if (r.end_s >= from && r.end_s < to) {
      n += r.requests;
    }
  }
  return to > from ? static_cast<double>(n) / (to - from) : 0;
}

// Per-request counts over the replayed simulation window.
struct WindowCounts {
  Counts sum{};
  uint64_t requests = 0;
  double PerOp(Ctr c) const {
    return requests ? static_cast<double>(sum[c]) / static_cast<double>(requests) : 0;
  }
};

WindowCounts SumWindow(const std::vector<OpRecord>& ops, size_t n) {
  WindowCounts w;
  for (size_t i = 0; i < n && i < ops.size(); ++i) {
    for (size_t c = 0; c < kNumCtrs; ++c) {
      w.sum[c] += ops[i].delta[c];
    }
    w.requests += ops[i].requests;
  }
  return w;
}

// ---- Layer unit-cost probes (traced run) ------------------------------------

// Median host ns per call over five batches of `iters` calls.
double ProbeNs(int iters, const std::function<void()>& call) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < iters; ++i) {
      call();
    }
    batches.push_back(SecondsSince(start) * 1e9 / iters);
  }
  return Quantile(batches, 0.5);
}

void RunProbes(Result* result) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  World world(config);
  if (!world.Boot().ok()) {
    result->Fail("probe world failed to boot");
    return;
  }
  Machine& machine = world.machine();
  Cpu& cpu = machine.cpu(0);
  const PhysMemory& memory = machine.memory();
  uint64_t sink = 0;
  SplitMix64 rng(7);
  std::vector<Paddr> addrs(4096);
  for (Paddr& pa : addrs) {
    pa = AddrOf(layout::kGeneralPoolFirstFrame + rng.Next() % 4096) + (rng.Next() % 512) * 8;
  }
  size_t i = 0;
  result->Add("probe.phys_read64_ns", ProbeNs(200'000, [&] {
                sink += memory.Read64(addrs[i++ & 4095]);
              }),
              "ns");
  const Paddr root = world.kernel().kernel_aspace().root();
  result->Add("probe.page_walk_ns", ProbeNs(100'000, [&] {
                auto walk = WalkPageTables(memory, root, layout::DirectMap(addrs[i++ & 4095]));
                sink += walk.ok() ? walk->pa : 1;
              }),
              "ns");
  EmcGates& gates = world.monitor()->gates();
  result->Add("probe.empty_emc_ns", ProbeNs(100'000, [&] {
                sink += gates.Enter(cpu).ok() ? 1 : 0;
                gates.Exit(cpu);
              }),
              "ns");
  const auto ptp = world.kernel().pool().Alloc();
  if (!ptp.ok() || !world.privops().RegisterPtp(cpu, *ptp, AddrOf(*ptp)).ok()) {
    result->Fail("probe: PTP registration refused");
    return;
  }
  bool pte_ok = true;
  result->Add("probe.gated_pte_write_ns", ProbeNs(50'000, [&] {
                pte_ok &= world.privops().WritePte(cpu, AddrOf(*ptp), 0).ok();
              }),
              "ns");
  if (!pte_ok) {
    result->Fail("probe: gated PTE write refused");
  }
  // Null syscall: one process step issuing a batch of getpid calls.
  constexpr int kSyscalls = 100'000;
  std::vector<double> syscall_batches;
  for (int b = 0; b < 5; ++b) {
    bool done = false;
    double ns = 0;
    (void)world.LaunchProcess("probe-syscall", [&](SyscallContext& ctx) {
      const auto start = Clock::now();
      for (int k = 0; k < kSyscalls; ++k) {
        auto pid = ctx.Syscall(sys::kGetpid);
        sink += pid.ok() ? *pid : 1;
      }
      ns = SecondsSince(start) * 1e9 / kSyscalls;
      done = true;
      return StepOutcome::kExited;
    });
    if (!world.RunUntil([&] { return done; }).ok() || !done) {
      result->Fail("probe: syscall process did not run");
      return;
    }
    syscall_batches.push_back(ns);
  }
  result->Add("probe.null_syscall_ns", Quantile(syscall_batches, 0.5), "ns");

  // Channel record layer: 256 B records (serve) and 64 KiB records (ingest).
  const SessionKeys keys = DeriveSessionKeys(Bytes(32, 0x42), Digest256{});
  const RecordAad aad{.type = 3, .sandbox_id = 1};
  for (const size_t len : {size_t{256}, size_t{64} << 10}) {
    Bytes plain(len);
    Rng(len).Fill(plain.data(), plain.size());
    Bytes wire(len);
    Bytes back(len);
    const int iters = len == 256 ? 20'000 : 200;
    uint64_t seq = 0;
    Digest256 tag{};
    const double seal_ns = ProbeNs(iters, [&] {
      tag = AeadSealInto(keys.client_to_server, aad, ++seq, plain.data(), len, wire.data());
    });
    bool open_ok = true;
    const double open_ns = ProbeNs(iters, [&] {
      open_ok &= AeadOpenInto(keys.client_to_server, aad, seq, wire.data(), len, tag,
                              back.data())
                     .ok();
    });
    if (!open_ok || back != plain) {
      result->Fail("probe: AEAD round trip mismatch");
    }
    if (len == 256) {
      result->Add("probe.seal_256_ns", seal_ns, "ns");
      result->Add("probe.open_256_ns", open_ns, "ns");
    } else {
      result->Add("probe.seal_64k_us", seal_ns / 1e3, "us");
      result->Add("probe.open_64k_us", open_ns / 1e3, "us");
      result->Add("probe.hmac_64k_us", ProbeNs(iters, [&] {
                    HmacSha256 mac(keys.client_to_server.mac_key);
                    mac.Update(wire.data(), len);
                    sink += mac.Finish()[0];
                  }) / 1e3,
                  "us");
      const ChaChaNonce nonce{};
      result->Add("probe.chacha_64k_us", ProbeNs(iters, [&] {
                    ChaCha20Xor(keys.client_to_server.cipher_key, nonce, 1, wire.data(), len);
                  }) / 1e3,
                  "us");
    }
  }
  // Handshake group crypto: ephemeral key generation + DH shared secret.
  const GroupParams& group = GroupParams::Default();
  Rng kex_rng(11);
  const KeyPair peer = GenerateKeyPair(group, kex_rng);
  result->Add("probe.kex_ms", ProbeNs(4, [&] {
                const KeyPair mine = GenerateKeyPair(group, kex_rng);
                sink += DhSharedSecret(group, mine.private_key, peer.public_key).size();
              }) / 1e6,
              "ms");
  if (sink == 0x5EED) {  // keeps the probed calls observable
    std::printf("probe sink %llu\n", static_cast<unsigned long long>(sink));
  }
}

// ---- Run ---------------------------------------------------------------

int Run(const Options& opt) {
  Result result;
  const bool jobs = opt.workload == "jobs";
  std::vector<JobApp> apps;
  FleetConfig fleet_config;
  std::function<std::unique_ptr<Bench>()> make_bench;
  size_t replay_ops = 0;
  size_t sim_window = 0;
  std::string sizes;
  if (jobs) {
    apps = MakeJobApps(opt.seed);
    make_bench = [&] { return std::make_unique<JobsBench>(&apps, opt.seed); };
    replay_ops = kReplayOpsJobs;
    sim_window = kSimWindowJobs;
    sizes = "{";
    for (size_t a = 0; a < apps.size(); ++a) {
      sizes += (a ? ", " : "") + Result::Quote(apps[a].workload->name()) + ": " +
               Result::Quote(apps[a].sizes);
    }
    sizes += "}";
  } else if (opt.workload == "serve" || opt.workload == "ingest") {
    fleet_config.num_vcpus = 4;
    fleet_config.num_tenants = kFleetTenants;
    fleet_config.standby_pool = 2;
    fleet_config.requests_per_tenant = 1;  // one round per RunServing call
    fleet_config.seed = opt.seed;
    // Record size: the service's RecvInput caps input at 64 KiB.
    fleet_config.payload_bytes = opt.workload == "serve" ? 256 : 60'000;
    make_bench = [&] { return std::make_unique<FleetBench>(fleet_config, kSimWindowFleet); };
    replay_ops = kReplayOpsFleet;
    sim_window = kSimWindowFleet;
    sizes = "{\"tenants\": " + std::to_string(kFleetTenants) +
            ", \"standbys\": 2, \"vcpus\": 4, \"payload_bytes\": " +
            std::to_string(fleet_config.payload_bytes) +
            ", \"requests_per_op\": " + std::to_string(kFleetTenants * kFleetCallsPerOp) +
            "}";
  } else {
    std::fprintf(stderr, "unknown workload '%s' (jobs, serve, ingest)\n",
                 opt.workload.c_str());
    return 2;
  }
  result.Info("input_sizes", sizes);
  result.Info("build_type", Result::Quote(PERFBENCH_BUILD_TYPE));
  result.Info("compiler", Result::Quote(__VERSION__));
  std::printf("perfbench workload=%s seed=%llu seconds=%.1f trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("inputs: %s\n", sizes.c_str());

  // ---- Setup, repeated: setup_s is the median; the first setup replays the
  // first operations for the determinism check, the last is measured.
  std::vector<double> setup_s;
  std::vector<Clock::time_point> setup_start;
  std::vector<double> layer_setup_s;
  uint64_t replay_hash = 0;
  std::unique_ptr<Bench> bench;
  HostReference reference;
  for (int r = 0; r < kSetups; ++r) {
    bench.reset();
    reference.Sample();
    const auto start = Clock::now();
    bench = make_bench();
    const Status st = bench->Setup();
    setup_s.push_back(SecondsSince(start));
    setup_start.push_back(start);
    layer_setup_s.push_back(bench->setup_layer_s());
    if (!st.ok()) {
      result.Fail("setup: " + st.ToString());
      result.attempted = 1;
      result.failed = 1;
      result.Print();
      return 0;
    }
    if (r == 0) {
      uint64_t index = 0;
      Phase replay = RunPhase(*bench, &index, 0, replay_ops, &reference);
      if (!replay.status.ok()) {
        result.Fail("replay: " + replay.status.ToString());
      }
      replay_hash = HashWindow(replay.ops, replay_ops);
    }
  }

  // ---- Measured phase (untraced).
  uint64_t next_index = 0;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Phase main = RunPhase(*bench, &next_index, untraced_s, sim_window, &reference);
  const double peak_rss = PeakRssMb();
  result.attempted = 0;
  for (const OpRecord& r : main.ops) {
    result.attempted += r.attempted;
  }
  result.failed = result.attempted - Requests(main.ops, 0, main.ops.size());
  if (!main.status.ok()) {
    result.Fail("operation " + std::to_string(main.ops.size() - 1) + ": " +
                main.status.ToString());
  }
  const uint64_t window_hash = HashWindow(main.ops, sim_window);
  if (HashWindow(main.ops, replay_ops) != replay_hash) {
    result.Fail("replay mismatch: the same seed gave different simulated counts");
  }
  char hash_hex[32];
  std::snprintf(hash_hex, sizeof(hash_hex), "\"%016llx\"",
                static_cast<unsigned long long>(window_hash));
  result.Info("sim_fingerprint", hash_hex);

  // Simulated latency (cycles) over the fixed window.
  double sim_p50 = 0, sim_p90 = 0, sim_p99 = 0, sim_overhead = 0;
  uint64_t sim_samples = 0;
  std::string bucket;
  const WindowCounts window = SumWindow(main.ops, sim_window);
  if (jobs) {
    std::vector<uint64_t> lat;
    for (size_t i = 0; i < sim_window && i < main.ops.size(); ++i) {
      lat.push_back(main.ops[i].sim_latency);
    }
    sim_samples = lat.size();
    sim_p50 = static_cast<double>(NearestRank(lat, 0.50));
    sim_p90 = static_cast<double>(NearestRank(lat, 0.90));
    sim_p99 = static_cast<double>(NearestRank(lat, 0.99));
    bucket = "exact";
  } else {
    std::vector<uint64_t> lat;
    uint64_t service_cycles = 0;
    for (size_t i = 0; i < sim_window && i < main.ops.size(); ++i) {
      lat.insert(lat.end(), main.ops[i].latencies_ns.begin(), main.ops[i].latencies_ns.end());
      service_cycles += main.ops[i].sim_service;
    }
    sim_samples = lat.size();
    const std::array<uint64_t, 3> exact = {NearestRank(lat, 0.50), NearestRank(lat, 0.90),
                                           NearestRank(lat, 0.99)};
    // The fleet records latency in ns (cycles * 10 / 21, truncated).
    sim_p50 = static_cast<double>(exact[0]) * kSimHz / 1e9;
    sim_p90 = static_cast<double>(exact[1]) * kSimHz / 1e9;
    sim_p99 = static_cast<double>(exact[2]) * kSimHz / 1e9;
    bucket = "exact";
    // The same observations through the fleet histogram (FleetReport's
    // fleet_p50_ns / fleet_p99_ns): each must be the upper edge of the 2 us
    // bucket holding the exact value of the same rank.
    const std::array<uint64_t, 3>& edges = static_cast<FleetBench&>(*bench).report_edges();
    for (size_t k = 0; k < 3; ++k) {
      std::printf("fleet histogram percentile %zu: %llu ns (2 us bucket edge), exact %llu ns\n",
                  k, static_cast<unsigned long long>(edges[k]),
                  static_cast<unsigned long long>(exact[k]));
      if (edges[k] != (exact[k] / 2'000 + 1) * 2'000) {
        result.Fail("fleet histogram disagrees with the per-request latencies");
      }
    }
    // Native reference: the service's own compute per request. The tenants
    // cycle through three cost tiers (FleetSupervisor's ServiceCostForTenant:
    // 30k / 70k / 110k cycles by tenant % 3), which the fleet does not export.
    double compute_cycles = 0;
    for (int t = 0; t < kFleetTenants; ++t) {
      compute_cycles += t % 3 == 0 ? 30'000 : t % 3 == 1 ? 70'000 : 110'000;
    }
    sim_overhead = static_cast<double>(service_cycles) / static_cast<double>(window.requests) /
                   (compute_cycles / kFleetTenants);
  }

  // ---- Traced phase (per-layer run only).
  Phase traced;
  double emc_rt_p50 = 0;
  uint64_t dropped = 0;
  if (opt.trace) {
    Tracer& tracer = Tracer::Global();
    tracer.Reset();
    tracer.Enable();
    traced = RunPhase(*bench, &next_index, opt.seconds / 2, 1, nullptr);
    if (!traced.status.ok()) {
      result.Fail("traced operation: " + traced.status.ToString());
    }
    std::vector<uint64_t> rt;
    const Cycles gate_cost = bench->world().machine().cpu(0).costs().emc_round_trip;
    for (const TraceRecord& rec : tracer.MergedRecords()) {
      if (rec.kind == TraceEvent::kEmcExit) {
        rt.push_back(rec.payload + gate_cost);
      }
    }
    emc_rt_p50 = static_cast<double>(NearestRank(rt, 0.5));
    for (int c = 0; c < tracer.num_rings(); ++c) {
      dropped += tracer.ring(c)->dropped();
    }
    tracer.Disable();
  }

  // ---- Correctness gate: invariant audit after the workload, untimed.
  const Status audit = bench->world().monitor()->AuditInvariants();
  if (!audit.ok()) {
    result.Fail("invariant audit: " + audit.ToString());
  }
  uint64_t fleet_deferred = 0;
  if (!jobs) {
    const FleetReport report = static_cast<FleetBench&>(*bench).fleet().Report();
    fleet_deferred = report.total_deferred;
    if (!report.ok || report.total_failed != 0 || report.quarantines != 0 ||
        report.invariant_violations != 0) {
      result.Fail("fleet report: failed=" + std::to_string(report.total_failed) +
                  " quarantines=" + std::to_string(report.quarantines) + " " + report.error);
    }
  }
  const double layer_setup = Quantile(layer_setup_s, 0.5);
  bench.reset();

  // ---- jobs: native reference for sim_overhead (RunWorkload's native path
  // takes no shortcut), once per app.
  if (jobs) {
    double ratio_sum = 0;
    for (size_t a = 0; a < apps.size(); ++a) {
      RunnerOptions options;
      options.input_seed = apps[a].input_seed;
      const RunReport native = RunWorkload(*apps[a].workload, SimMode::kNative, options);
      if (!native.ok || native.run_cycles == 0 ||
          !apps[a].workload->CheckOutput(apps[a].input, native.output)) {
        result.Fail("native reference " + apps[a].workload->name() + ": " + native.error);
        continue;
      }
      std::vector<uint64_t> service;
      for (size_t i = 0; i < sim_window && i < main.ops.size(); ++i) {
        if (main.ops[i].app == static_cast<int>(a)) {
          service.push_back(main.ops[i].sim_service);
        }
      }
      const double ratio = static_cast<double>(NearestRank(service, 0.5)) /
                           static_cast<double>(native.run_cycles);
      std::printf("  sim_overhead[%s] = %.4f (service %llu / native %llu cycles)\n",
                  apps[a].workload->name().c_str(), ratio,
                  static_cast<unsigned long long>(NearestRank(service, 0.5)),
                  static_cast<unsigned long long>(native.run_cycles));
      ratio_sum += ratio;
    }
    sim_overhead = ratio_sum / static_cast<double>(apps.size());
  }

  // ---- End-to-end metrics (untraced phase). Host times are normalized by
  // the host slowdown around each operation (HostReference).
  std::vector<double> setup_norm;
  for (size_t r = 0; r < setup_s.size(); ++r) {
    setup_norm.push_back(setup_s[r] / reference.SlowdownAt(setup_start[r]));
  }
  // Host time per request: per job, or per operation's 64 requests on the
  // fleet. A World rebuild counts toward throughput, not toward the latency
  // of the job after it.
  std::vector<double> op_ms;
  std::vector<double> op_ms_raw;
  double busy_s = 0;
  double busy_norm_s = 0;
  for (const OpRecord& r : main.ops) {
    const double slowdown = reference.SlowdownAt(r.start);
    busy_s += r.host_s + r.recycle_s;
    busy_norm_s += (r.host_s + r.recycle_s) / slowdown;
    if (r.requests > 0) {
      op_ms.push_back(r.host_s / slowdown * 1e3 / static_cast<double>(r.requests));
      op_ms_raw.push_back(r.host_s * 1e3 / static_cast<double>(r.requests));
    }
  }
  const uint64_t done = Requests(main.ops, 0, main.ops.size());
  const double ops_per_s = main.wall_s > 0 ? static_cast<double>(done) / main.wall_s : 0;
  const double q = main.wall_s / 4;
  const double first_q = RateIn(main, 0, q);
  const double last_q = RateIn(main, 3 * q, main.wall_s + 1e-9);
  std::printf("timed phase: %zu ops, %llu requests in %.3f s; sim window %zu ops "
              "(replay of %zu ops checked across %d setups)\n",
              main.ops.size(), static_cast<unsigned long long>(done), main.wall_s,
              sim_window, replay_ops, kSetups);
  std::vector<double> rebuild_ms;
  for (const OpRecord& r : main.ops) {
    if (r.recycle_s > 0) {
      rebuild_ms.push_back(r.recycle_s * 1e3);
    }
  }
  if (!rebuild_ms.empty()) {
    std::printf("world rebuilds: %zu in the timed phase, median %.3f ms\n", rebuild_ms.size(),
                Quantile(rebuild_ms, 0.5));
  }
  std::printf("drift: first quarter %.3f ops/s, last quarter %.3f ops/s (ratio %.4f)\n",
              first_q, last_q, first_q > 0 ? last_q / first_q : 0);
  std::printf("sim latency: p50 %.0f, p90 %.0f, p99 %.0f cycles = %.3f / %.3f / %.3f us "
              "(n=%llu, bucket %s)\n",
              sim_p50, sim_p90, sim_p99, sim_p50 / kSimHz * 1e6, sim_p90 / kSimHz * 1e6,
              sim_p99 / kSimHz * 1e6, static_cast<unsigned long long>(sim_samples),
              bucket.c_str());
  std::printf("host latency per request: p50 %.4f ms, p90 %.4f ms raw (n=%zu %s)\n",
              Quantile(op_ms_raw, 0.5), Quantile(op_ms_raw, 0.9), op_ms.size(),
              jobs ? "jobs" : "operations of 8 serving calls, per-request mean in each");
  result.Info("sim_samples", std::to_string(sim_samples));
  result.Info("sim_bucket", Result::Quote(bucket));
  result.Info("host_samples", std::to_string(op_ms.size()));

  const double slowdown = reference.MedianSlowdown();
  const double ops_per_busy_s = busy_s > 0 ? static_cast<double>(done) / busy_s : 0;
  const double ops_per_norm_s = busy_norm_s > 0 ? static_cast<double>(done) / busy_norm_s : 0;
  std::printf("host reference loop: %zu samples, median slowdown %.4f; setup %.4f s raw, "
              "%.4f s normalized; %.3f ops/s raw, %.3f ops/s normalized\n",
              reference.samples(), slowdown, Quantile(setup_s, 0.5), Quantile(setup_norm, 0.5),
              ops_per_busy_s, ops_per_norm_s);
  if (!opt.trace) {
    result.Add("setup_s", Quantile(setup_norm, 0.5), "s");
    result.Add("ops_per_s", ops_per_norm_s, "1/s");
    result.Add("op_p50_ms", Quantile(op_ms, 0.5), "ms");
    result.Add("op_p90_ms", Quantile(op_ms, 0.9), "ms");
    result.Add("sim_p50_kcycles", sim_p50 / 1e3, "kcycles");
    result.Add("sim_p90_kcycles", sim_p90 / 1e3, "kcycles");
    result.Add("sim_p99_kcycles", sim_p99 / 1e3, "kcycles");
    result.Add("sim_overhead", sim_overhead, "ratio");
    result.Add("peak_rss_mb", peak_rss, "MB");
    result.Add("ok_ratio",
               result.attempted ? static_cast<double>(done) / result.attempted : 0, "ratio");
    result.Print();
    return 0;
  }

  // ---- Per-layer metrics.
  auto span_ms = [&](double Spans::*field) {
    std::vector<double> v;
    for (const OpRecord& r : main.ops) {
      v.push_back(r.spans.*field * 1e3);
    }
    return Quantile(v, 0.5);
  };
  if (jobs) {
    result.Add("client.hello_ms", span_ms(&Spans::hello), "ms");
    result.Add("client.verify_ms", span_ms(&Spans::verify), "ms");
    result.Add("client.seal_us", span_ms(&Spans::seal) * 1e3, "us");
    result.Add("client.open_us", span_ms(&Spans::open) * 1e3, "us");
    result.Add("sim.boot_ms", layer_setup * 1e3, "ms");
    result.Add("sim.handshake_ms", span_ms(&Spans::handshake), "ms");
    result.Add("sim.job_ms", span_ms(&Spans::job), "ms");
    result.Add("sim.teardown_ms", span_ms(&Spans::teardown), "ms");
    result.Add("libos.init_ms", span_ms(&Spans::init), "ms");
    std::vector<uint64_t> init_cycles;
    for (size_t i = 0; i < sim_window && i < main.ops.size(); ++i) {
      init_cycles.push_back(main.ops[i].sim_aux);
    }
    result.Add("libos.init_mcycles", static_cast<double>(NearestRank(init_cycles, 0.5)) / 1e6,
               "Mcycles");
    uint64_t leaked = 0;
    for (size_t i = 0; i < sim_window && i < main.ops.size(); ++i) {
      leaked += main.ops[i].leaked_frames;
    }
    result.Add("kernel.leaked_frames_per_op",
               static_cast<double>(leaked) / static_cast<double>(window.requests), "count");
    result.NotApplicable("fleet.start_ms", "ms");
    result.NotApplicable("fleet.retries_per_op", "count");
    result.NotApplicable("fleet.deferred", "count");
  } else {
    for (const char* name : {"client.hello_ms", "client.verify_ms"}) {
      result.NotApplicable(name, "ms");
    }
    for (const char* name : {"client.seal_us", "client.open_us"}) {
      result.NotApplicable(name, "us");
    }
    for (const char* name :
         {"sim.boot_ms", "sim.handshake_ms", "sim.job_ms", "sim.teardown_ms", "libos.init_ms"}) {
      result.NotApplicable(name, "ms");
    }
    result.NotApplicable("libos.init_mcycles", "Mcycles");
    result.NotApplicable("kernel.leaked_frames_per_op", "count");
    result.Add("fleet.start_ms", layer_setup * 1e3, "ms");
    result.Add("fleet.retries_per_op", window.PerOp(kRetries), "count");
    result.Add("fleet.deferred", static_cast<double>(fleet_deferred), "count");
  }
  result.Add("monitor.emc_per_op", window.PerOp(kEmc), "count");
  result.Add("monitor.emc_pte_per_op", window.PerOp(kEmcPte), "count");
  result.Add("monitor.emc_usercopy_per_op", window.PerOp(kEmcUsercopy), "count");
  result.Add("monitor.emc_sandbox_per_op", window.PerOp(kEmcSandbox), "count");
  result.Add("monitor.emc_tdcall_per_op", window.PerOp(kEmcTdcall), "count");
  result.Add("monitor.tlb_shootdowns_per_op", window.PerOp(kShootdowns), "count");
  result.Add("monitor.policy_denials", static_cast<double>(window.sum[kDenials]), "count");
  result.Add("monitor.emc_round_trip_cycles_p50", emc_rt_p50, "cycles");
  result.Add("kernel.syscalls_per_op", window.PerOp(kSyscalls), "count");
  result.Add("kernel.context_switches_per_op", window.PerOp(kCtxSwitches), "count");
  result.Add("kernel.page_faults_per_op", window.PerOp(kPageFaults), "count");
  result.Add("kernel.timer_interrupts_per_op", window.PerOp(kTimerIrqs), "count");
  result.Add("kernel.ve_exits_per_op", window.PerOp(kVeExits), "count");
  const double lookups = static_cast<double>(window.sum[kTlbHits] + window.sum[kTlbPscHits] +
                                             window.sum[kTlbMisses]);
  result.Add("hw.tlb_hit_ratio",
             lookups > 0 ? static_cast<double>(window.sum[kTlbHits]) / lookups : 0, "ratio");
  result.Add("hw.tlb_misses_per_op", window.PerOp(kTlbMisses), "count");
  result.Add("hw.tlb_flushes_per_op", window.PerOp(kTlbFlushes), "count");
  const WindowCounts traced_counts = SumWindow(traced.ops, traced.ops.size());
  result.Add("tdx.events_per_op", traced_counts.PerOp(kTdxEvents), "count");
  const double traced_rate =
      traced.wall_s > 0
          ? static_cast<double>(Requests(traced.ops, 0, traced.ops.size())) / traced.wall_s
          : 0;
  result.Add("trace.overhead", ops_per_s > 0 ? traced_rate / ops_per_s : 0, "ratio");
  result.Add("trace.dropped", static_cast<double>(dropped), "count");
  result.Add("drift.first_quarter_ops_per_s", first_q, "1/s");
  result.Add("drift.last_quarter_ops_per_s", last_q, "1/s");
  result.Add("drift.last_over_first", first_q > 0 ? last_q / first_q : 0, "ratio");
  result.Add("sim.samples", static_cast<double>(sim_samples), "count");
  result.Add("host.slowdown", slowdown, "ratio");
  RunProbes(&result);
  result.Print();
  return 0;
}

}  // namespace
}  // namespace erebor

int main(int argc, char** argv) {
  erebor::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: erebor_perfbench --workload jobs|serve|ingest --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  return erebor::Run(opt);
}
