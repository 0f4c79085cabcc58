#include "src/workloads/lmbench.h"

#include "src/common/trace.h"
#include "src/kernel/syscalls.h"

namespace erebor {

namespace {

struct BenchState {
  uint64_t iterations = 0;
  uint64_t completed = 0;
  bool done = false;
  bool failed = false;
  std::string error;
  Cycles cycles_used = 0;
  int phase = 0;
  Vaddr buffer = 0;
  int fd = -1;
  uint64_t scratch = 0;
};

using BenchOp = std::function<Status(SyscallContext&, BenchState&)>;

// Generic driver: sets up (phase 0), then loops the operation, accounting cycles.
ProgramFn MakeBenchProgram(std::shared_ptr<BenchState> state, BenchOp setup, BenchOp op) {
  return [state, setup, op](SyscallContext& ctx) -> StepOutcome {
    if (state->phase == 0) {
      if (setup) {
        const Status st = setup(ctx, *state);
        if (!st.ok()) {
          state->failed = true;
          state->error = st.ToString();
          state->done = true;
          return StepOutcome::kExited;
        }
      }
      state->phase = 1;
      return StepOutcome::kYield;
    }
    // Run a batch per slice so timer interrupts still get a chance to fire.
    const uint64_t batch = 64;
    const Cycles before = ctx.cpu().cycles().now();
    for (uint64_t i = 0; i < batch && state->completed < state->iterations; ++i) {
      const Status st = op(ctx, *state);
      if (!st.ok()) {
        state->failed = true;
        state->error = st.ToString();
        state->done = true;
        return StepOutcome::kExited;
      }
      ++state->completed;
    }
    state->cycles_used += ctx.cpu().cycles().now() - before;
    if (!ctx.Poll()) {
      state->done = true;
      return StepOutcome::kExited;
    }
    if (state->completed >= state->iterations) {
      state->done = true;
      return StepOutcome::kExited;
    }
    return StepOutcome::kYield;
  };
}

Status SetupFileAndBuffer(SyscallContext& ctx, BenchState& state, uint64_t file_bytes) {
  EREBOR_ASSIGN_OR_RETURN(
      state.buffer,
      ctx.task().aspace->CreateVma(16 * kPageSize,
                                   pte::kPresent | pte::kUser | pte::kWritable |
                                       pte::kNoExecute,
                                   VmaKind::kAnon));
  const std::string path = "lmbench.dat";
  EREBOR_RETURN_IF_ERROR(ctx.WriteUser(
      state.buffer, reinterpret_cast<const uint8_t*>(path.data()), path.size()));
  EREBOR_ASSIGN_OR_RETURN(const uint64_t fd,
                          ctx.Syscall(sys::kOpen, state.buffer, path.size(), 1));
  state.fd = static_cast<int>(fd);
  if (file_bytes > 0) {
    Bytes junk(file_bytes, 0x55);
    EREBOR_RETURN_IF_ERROR(ctx.WriteUser(state.buffer + kPageSize, junk.data(), junk.size()));
    EREBOR_RETURN_IF_ERROR(
        ctx.Syscall(sys::kWrite, fd, state.buffer + kPageSize, file_bytes).status());
  }
  return OkStatus();
}

}  // namespace

std::vector<std::string> LmbenchNames() {
  return {"null", "read", "write", "stat", "sig", "fork", "mmap", "pagefault"};
}

StatusOr<LmbenchResult> RunLmbench(const std::string& name, SimMode mode,
                                   uint64_t iterations, MmuUpdateMode mmu,
                                   const RunnerOptions& options) {
  WorldConfig config;
  config.mode = mode;
  config.machine.num_cpus = options.num_cpus;
  World world(config);
  EREBOR_RETURN_IF_ERROR(world.Boot());
  if (world.monitor() != nullptr && mmu == MmuUpdateMode::kRing) {
    world.monitor()->EnableMmuRings(true);
  }

  auto state = std::make_shared<BenchState>();
  state->iterations = iterations;

  BenchOp setup;
  BenchOp op;

  if (name == "null") {
    op = [](SyscallContext& ctx, BenchState& s) {
      return ctx.Syscall(sys::kGetpid).status();
    };
  } else if (name == "read") {
    setup = [](SyscallContext& ctx, BenchState& s) {
      return SetupFileAndBuffer(ctx, s, 4096);
    };
    op = [](SyscallContext& ctx, BenchState& s) -> Status {
      // Re-read the same 1 KiB from offset 0: reopen cheaply by seeking via a fresh
      // read from a rewound description (the mini-kernel keeps a shared offset, so
      // alternate read/write offsets by recreating when exhausted).
      auto r = ctx.Syscall(sys::kRead, s.fd, s.buffer + kPageSize, 1024);
      if (r.ok() && *r == 0) {
        // Rewind by closing + reopening.
        EREBOR_RETURN_IF_ERROR(ctx.Syscall(sys::kClose, s.fd).status());
        const std::string path = "lmbench.dat";
        EREBOR_RETURN_IF_ERROR(ctx.WriteUser(
            s.buffer, reinterpret_cast<const uint8_t*>(path.data()), path.size()));
        EREBOR_ASSIGN_OR_RETURN(const uint64_t fd,
                                ctx.Syscall(sys::kOpen, s.buffer, path.size(), 0));
        s.fd = static_cast<int>(fd);
        return OkStatus();
      }
      return r.status();
    };
  } else if (name == "write") {
    setup = [](SyscallContext& ctx, BenchState& s) {
      return SetupFileAndBuffer(ctx, s, 0);
    };
    op = [](SyscallContext& ctx, BenchState& s) -> Status {
      if (s.scratch > 4096) {
        // Keep the file bounded: recreate it.
        EREBOR_RETURN_IF_ERROR(ctx.Syscall(sys::kClose, s.fd).status());
        const std::string path = "lmbench.dat";
        EREBOR_RETURN_IF_ERROR(ctx.WriteUser(
            s.buffer, reinterpret_cast<const uint8_t*>(path.data()), path.size()));
        EREBOR_ASSIGN_OR_RETURN(const uint64_t fd,
                                ctx.Syscall(sys::kOpen, s.buffer, path.size(), 1));
        s.fd = static_cast<int>(fd);
        s.scratch = 0;
      }
      ++s.scratch;
      return ctx.Syscall(sys::kWrite, s.fd, s.buffer + kPageSize, 1024).status();
    };
  } else if (name == "stat") {
    setup = [](SyscallContext& ctx, BenchState& s) {
      return SetupFileAndBuffer(ctx, s, 128);
    };
    op = [](SyscallContext& ctx, BenchState& s) -> Status {
      const std::string path = "lmbench.dat";
      EREBOR_RETURN_IF_ERROR(ctx.WriteUser(
          s.buffer, reinterpret_cast<const uint8_t*>(path.data()), path.size()));
      return ctx.Syscall(sys::kStat, s.buffer, path.size()).status();
    };
  } else if (name == "sig") {
    setup = [](SyscallContext& ctx, BenchState& s) -> Status {
      const uint64_t token = StashSignalHandler([](int) {});
      return ctx.Syscall(sys::kSigaction, 10, token).status();
    };
    op = [](SyscallContext& ctx, BenchState& s) -> Status {
      EREBOR_RETURN_IF_ERROR(ctx.Syscall(sys::kKill, ctx.task().tid, 10).status());
      ctx.Poll();  // deliver
      return OkStatus();
    };
  } else if (name == "fork") {
    // A realistic fork copies the parent's image: map a populated working set first.
    setup = [](SyscallContext& ctx, BenchState& s) -> Status {
      EREBOR_ASSIGN_OR_RETURN(
          s.buffer, ctx.Syscall(sys::kMmap, 0, 32 * kPageSize,
                                sys::kProtRead | sys::kProtWrite, sys::kMapPopulate));
      return OkStatus();
    };
    op = [](SyscallContext& ctx, BenchState& s) -> Status {
      EREBOR_ASSIGN_OR_RETURN(const uint64_t pid, ctx.Syscall(sys::kFork));
      // Reap: the child exits immediately; wait may need retries.
      for (int i = 0; i < 64; ++i) {
        auto r = ctx.Syscall(sys::kWait4, pid);
        if (r.ok()) {
          return OkStatus();
        }
        if (r.status().code() != ErrorCode::kUnavailable) {
          return r.status();
        }
        return OkStatus();  // child will be reaped by the scheduler; cost is captured
      }
      return OkStatus();
    };
  } else if (name == "mmap") {
    op = [](SyscallContext& ctx, BenchState& s) -> Status {
      EREBOR_ASSIGN_OR_RETURN(
          const uint64_t va,
          ctx.Syscall(sys::kMmap, 0, 16 * kPageSize,
                      sys::kProtRead | sys::kProtWrite, sys::kMapPopulate));
      return ctx.Syscall(sys::kMunmap, va).status();
    };
  } else if (name == "pagefault") {
    op = [](SyscallContext& ctx, BenchState& s) -> Status {
      EREBOR_ASSIGN_OR_RETURN(
          const uint64_t va,
          ctx.Syscall(sys::kMmap, 0, 8 * kPageSize, sys::kProtRead | sys::kProtWrite, 0));
      // Touch each page: demand faults through the full #PF path.
      for (int p = 0; p < 8; ++p) {
        uint8_t byte = static_cast<uint8_t>(p);
        EREBOR_RETURN_IF_ERROR(ctx.WriteUser(va + p * kPageSize, &byte, 1));
      }
      return ctx.Syscall(sys::kMunmap, va).status();
    };
  } else {
    return InvalidArgumentError("unknown lmbench benchmark: " + name);
  }

  auto task = world.LaunchProcess("lmbench-" + name, MakeBenchProgram(state, setup, op));
  EREBOR_RETURN_IF_ERROR(task.status());

  const uint64_t emc_before = world.privops().emc_count();
  const uint64_t trace_emc_before = Tracer::Global().CountKind(TraceEvent::kEmcEnter);
  EREBOR_RETURN_IF_ERROR(world.RunUntil([&] { return state->done; }, 10'000'000));
  if (state->failed) {
    return InternalError("lmbench " + name + ": " + state->error);
  }

  LmbenchResult result;
  result.name = name;
  result.operations = state->completed;
  result.total_cycles = state->cycles_used;
  result.emc_count = world.privops().emc_count() - emc_before;
  result.trace_emc_enter =
      Tracer::Global().CountKind(TraceEvent::kEmcEnter) - trace_emc_before;
  return result;
}

}  // namespace erebor
