#include "src/workloads/runner.h"

#include <optional>

#include "src/common/log.h"
#include "src/common/trace.h"

namespace erebor {

namespace {

// Provider-side population of a common region's backing frames (the shared instance
// is prepared once, before any client arrives).
void FillCommonFrames(Machine& machine, const Workload& workload, FrameNum first,
                      uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    workload.FillCommonPage(i, machine.memory().FramePtr(first + i));
  }
}

// Background VM housekeeping: mmap/populate/munmap churn paced against simulated
// time. Natively each PTE update is a cached store; under Erebor each goes through an
// EMC — this is the service's steady-state MMU traffic (Table 6 EMC/s).
ProgramFn MakeHousekeepingProgram(uint64_t pte_ops_per_sec) {
  auto last = std::make_shared<Cycles>(0);
  return [last, pte_ops_per_sec](SyscallContext& ctx) -> StepOutcome {
    constexpr uint64_t kPagesPerChunk = 16;
    // One chunk = populate + unmap: ~2 PTE writes per page plus table upkeep.
    constexpr double kPteOpsPerChunk = 2.0 * kPagesPerChunk + 3;
    const Cycles now = ctx.kernel().machine().TotalCycles();
    if (*last == 0) {
      *last = now;
      return StepOutcome::kYield;
    }
    uint64_t due = static_cast<uint64_t>((now - *last) * pte_ops_per_sec / 2.1e9 /
                                         kPteOpsPerChunk);
    due = std::min<uint64_t>(due, 32);
    if (due == 0) {
      ctx.Compute(1200);  // idle tick
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

}  // namespace

RunReport RunWorkload(Workload& workload, SimMode mode, const RunnerOptions& options) {
  RunReport report;
  report.workload = workload.name();
  report.mode = mode;

  // Honor EREBOR_TRACE / EREBOR_TRACE_JSON; a bench may also have enabled the tracer
  // programmatically, in which case this is a no-op.
  Tracer& tracer = Tracer::Global();
  tracer.EnableFromEnv();

  WorldConfig config;
  config.mode = mode;
  config.machine.memory_frames = options.memory_frames;
  config.machine.num_cpus = options.num_cpus;
  World world(config);
  Status st = world.Boot();
  if (!st.ok()) {
    report.error = "boot: " + st.ToString();
    return report;
  }
  if (world.monitor() != nullptr) {
    world.monitor()->SetMitigations(options.mitigations);
  }

  const LibosManifest manifest = workload.Manifest();
  auto state = std::make_shared<AppState>();
  state->env = std::make_shared<LibosEnv>(manifest, world.libos_backend(),
                                          world.libos_overheads());
  state->common_bytes = workload.common_bytes();
  state->common_base = state->common_bytes > 0 ? kLibosCommonBase : 0;

  const Bytes input = workload.MakeClientInput(options.input_seed);

  Task* task = nullptr;
  Sandbox* sandbox = nullptr;
  ProgramFn program = workload.MakeProgram(state);
  if (world.erebor_active()) {
    SandboxSpec spec;
    spec.name = workload.name();
    spec.confined_budget_bytes = manifest.heap_bytes + (4ull << 20);
    spec.max_threads = manifest.num_threads;
    spec.output_pad_bytes = manifest.output_pad_bytes;
    auto sb = world.LaunchSandboxProcess(workload.name(), spec, std::move(program), &task);
    if (!sb.ok()) {
      report.error = "launch: " + sb.status().ToString();
      return report;
    }
    sandbox = *sb;
  } else {
    auto t = world.LaunchProcess(workload.name(), std::move(program));
    if (!t.ok()) {
      report.error = "launch: " + t.status().ToString();
      return report;
    }
    task = *t;
    // The native baseline's "client" drops its input into the exchange file.
    (void)world.kernel().fs().Create(manifest.name + ".client_input", input);
  }

  Cpu& cpu0 = world.machine().cpu(0);

  // The service's background VM activity runs in every mode (its cost differs).
  if (workload.background_vm_rate() > 0) {
    auto hk = world.LaunchProcess("vm-housekeeping",
                                  MakeHousekeepingProgram(workload.background_vm_rate()));
    if (!hk.ok()) {
      report.error = "housekeeping: " + hk.status().ToString();
      return report;
    }
  }

  // Common region: provider-prepared shared instance.
  if (state->common_bytes > 0) {
    const uint64_t common_frames = PageAlignUp(state->common_bytes) >> kPageShift;
    if (world.erebor_active()) {
      auto region = world.monitor()->CreateCommonRegion(workload.name() + ".common",
                                                        state->common_bytes);
      if (!region.ok()) {
        report.error = "common region: " + region.status().ToString();
        return report;
      }
      FillCommonFrames(world.machine(), workload, (*region)->first_frame,
                       (*region)->num_frames);
      st = world.monitor()->AttachCommon(cpu0, *sandbox, (*region)->id, kLibosCommonBase,
                                         /*writable_until_seal=*/false);
      if (!st.ok()) {
        report.error = "attach common: " + st.ToString();
        return report;
      }
    } else {
      // Native: the shared instance is shm-style memory, still demand-mapped.
      auto first = world.kernel().pool().AllocContiguous(common_frames);
      if (!first.ok()) {
        report.error = "native common alloc: " + first.status().ToString();
        return report;
      }
      FillCommonFrames(world.machine(), workload, *first, common_frames);
      auto vma = task->aspace->CreateVma(common_frames << kPageShift,
                                         pte::kPresent | pte::kUser | pte::kNoExecute,
                                         VmaKind::kCommon, kLibosCommonBase);
      if (!vma.ok()) {
        report.error = "native common vma: " + vma.status().ToString();
        return report;
      }
      Vma* v = task->aspace->FindVma(*vma);
      v->backing.resize(common_frames);
      for (uint64_t i = 0; i < common_frames; ++i) {
        v->backing[i] = *first + i;
      }
    }
  }

  // ---- Attestation: no proxy runs here, so the client calls the monitor's proxy
  // entry points on cpu0. No scheduler slice runs, so the phases are unchanged.
  std::optional<ClientSession> session;
  if (world.erebor_active()) {
    session.emplace(world, sandbox->id, options.input_seed, &cpu0);
    st = session->Handshake();
    if (!st.ok()) {
      report.error = "attest: " + st.ToString();
      return report;
    }
  }

  // ---- Phase 1: initialization ----
  tracer.MarkPhase("init", world.machine().TotalCycles());
  const Cycles before_init = world.machine().TotalCycles();
  st = world.RunUntil([&] { return state->init_done || state->failed; },
                      options.max_slices);
  if (!st.ok() || state->failed) {
    report.error = "init: " + (state->failed ? state->failure : st.ToString());
    return report;
  }
  report.init_cycles = world.machine().TotalCycles() - before_init;

  // ---- Phase 2: install client data ----
  if (session.has_value()) {
    st = session->Send(input);
    if (!st.ok()) {
      report.error = "install: " + st.ToString();
      return report;
    }
  }

  // ---- Phase 3: processing ----
  tracer.MarkPhase("run", world.machine().TotalCycles());
  const KernelStats stats_before = world.kernel().stats();
  const uint64_t emc_before =
      world.erebor_active() ? world.monitor()->counters().emc_total : 0;
  const uint64_t trace_emc_before = tracer.CountKind(TraceEvent::kEmcEnter);
  const uint64_t sandbox_pf_before = sandbox != nullptr ? sandbox->exits.page_faults : 0;
  const uint64_t sandbox_timer_before =
      sandbox != nullptr ? sandbox->exits.timer_interrupts : 0;
  const uint64_t sandbox_ve_before = sandbox != nullptr ? sandbox->exits.ve_exits : 0;

  const Cycles before_run = world.machine().TotalCycles();
  st = world.RunUntil([&] { return state->output_sent || state->failed; },
                      options.max_slices);
  if (!st.ok() || state->failed) {
    report.error = "run: " + (state->failed ? state->failure : st.ToString());
    return report;
  }
  report.run_cycles = world.machine().TotalCycles() - before_run;
  report.run_seconds = report.GhzSeconds(report.run_cycles);
  // The processing window ends here (fetching the result is an EMC of its own).
  // Nothing between these two reads crosses a gate, so a mismatch of the trace
  // count means an uninstrumented (or double-counted) crossing.
  if (world.erebor_active()) {
    report.emc_total = world.monitor()->counters().emc_total - emc_before;
  }
  report.trace_emc_enter = tracer.CountKind(TraceEvent::kEmcEnter) - trace_emc_before;

  // ---- Phase 4: fetch output ----
  tracer.MarkPhase("output", world.machine().TotalCycles());
  if (session.has_value()) {
    auto result = session->Receive();
    if (!result.ok()) {
      report.error = "output: " + result.status().ToString();
      return report;
    }
    report.output = std::move(*result);
  } else {
    auto file = world.kernel().fs().Open(manifest.name + ".client_output", false);
    if (!file.ok()) {
      report.error = "output file: " + file.status().ToString();
      return report;
    }
    report.output = (*file)->data;
  }

  // ---- Statistics ----
  const KernelStats& stats_after = world.kernel().stats();
  const double secs = report.run_seconds > 0 ? report.run_seconds : 1e-9;
  if (sandbox != nullptr) {
    report.pf_per_sec = (sandbox->exits.page_faults - sandbox_pf_before) / secs;
    report.timer_per_sec = (sandbox->exits.timer_interrupts - sandbox_timer_before) / secs;
    report.ve_per_sec = (sandbox->exits.ve_exits - sandbox_ve_before) / secs;
    report.confined_bytes = sandbox->confined_bytes;
  } else {
    report.pf_per_sec = (stats_after.page_faults - stats_before.page_faults) / secs;
    report.timer_per_sec =
        (stats_after.timer_interrupts - stats_before.timer_interrupts) / secs;
    report.ve_per_sec = (stats_after.ve_exits - stats_before.ve_exits) / secs;
    report.confined_bytes = state->env->heap_used();
  }
  report.total_exits_per_sec =
      report.pf_per_sec + report.timer_per_sec + report.ve_per_sec;
  if (world.erebor_active()) {
    const MonitorCounters& counters = world.monitor()->counters();
    report.emc_per_sec = report.emc_total / secs;
    report.mitigation_stalls = counters.exit_stalls;
    report.mitigation_flushes = counters.cache_flushes;
    report.mitigation_quantized = counters.quantized_outputs;
  }
  report.common_bytes = state->common_bytes;
  if (tracer.enabled()) {
    report.trace_summary = tracer.SummaryTable();
    if (!tracer.json_path().empty()) {
      const Status export_st = tracer.WriteChromeTrace(tracer.json_path());
      if (!export_st.ok()) {
        LOG_WARN() << "trace export failed: " << export_st;
      }
    }
  }

  // Session cleanup (zeroization) for the sandbox.
  if (sandbox != nullptr) {
    (void)world.monitor()->TeardownSandbox(cpu0, *sandbox);
  }
  report.ok = true;
  return report;
}

std::vector<RunReport> RunAblation(Workload& workload, const RunnerOptions& options) {
  std::vector<RunReport> reports;
  for (const SimMode mode :
       {SimMode::kNative, SimMode::kLibosOnly, SimMode::kEreborMmuOnly,
        SimMode::kEreborExitOnly, SimMode::kEreborFull}) {
    reports.push_back(RunWorkload(workload, mode, options));
  }
  return reports;
}

}  // namespace erebor
