#include "src/workloads/workload.h"

namespace erebor {

ProgramFn MakeAppProgram(std::shared_ptr<AppState> state, AppPhases phases) {
  return [state, phases = std::move(phases),
          backoff = EagainBackoff{}](SyscallContext& ctx) mutable -> StepOutcome {
    const auto fail = [&state](std::string failure) {
      if (!state->failed) {
        state->failed = true;
        state->failure = std::move(failure);
      }
      return StepOutcome::kExited;
    };
    LibosEnv& env = *state->env;
    if (state->failed) {
      return StepOutcome::kExited;
    }

    if (!env.initialized()) {
      Status st = env.Initialize(ctx);
      if (st.ok() && phases.setup) {
        st = phases.setup(ctx);
      }
      const int threads = env.manifest().num_threads;
      if (st.ok() && threads > 1) {
        const ProgramFn worker = [state, body = phases.worker](SyscallContext& worker_ctx) {
          if (state->output_sent || state->failed) {
            return StepOutcome::kExited;
          }
          return body(worker_ctx);
        };
        st = env.SpawnWorkers(ctx, std::vector<ProgramFn>(threads - 1, worker));
      }
      if (!st.ok()) {
        return fail(st.ToString());
      }
      state->init_done = true;
      return StepOutcome::kYield;
    }

    if (!state->input_ready) {
      auto input = env.RecvInput(ctx, phases.max_input);
      if (!input.ok()) {
        if (!IsWouldBlock(input.status())) {
          return fail(input.status().ToString());
        }
        if (!backoff.ShouldRetry(ctx)) {
          return fail("client input retry budget exhausted");
        }
        return StepOutcome::kYield;
      }
      const Status st = phases.install(ctx, *input);
      if (!st.ok()) {
        return fail(st.ToString());
      }
      state->input_ready = true;
      return StepOutcome::kYield;
    }

    if (const std::optional<StepOutcome> outcome = phases.step(ctx)) {
      return *outcome;
    }
    const StatusOr<Bytes> output = phases.output(ctx);
    if (!output.ok()) {
      return fail(output.status().ToString());
    }
    const Status st = env.SendOutput(ctx, *output);
    state->output_sent = true;
    if (!st.ok()) {
      return fail(st.ToString());
    }
    return StepOutcome::kExited;
  };
}

}  // namespace erebor
