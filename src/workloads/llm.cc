#include "src/workloads/llm.h"

#include <cstring>

#include "src/common/rng.h"

namespace erebor {

namespace {

// Per-run shared state (leader + workers).
struct LlmRun {
  Bytes generated;
  uint32_t token_index = 0;
  uint32_t layer_cursor = 0;     // work queue: next layer chunk to process
  uint32_t layers_done = 0;
  bool token_in_flight = false;
  Vaddr kv_cache = 0;            // confined K-V cache
  uint64_t state_hash = 0x9E3779B97F4A7C15ULL;
};

constexpr Cycles kCyclesPerLayerChunk = 110'000;  // calibrated: full matmul cost
constexpr uint32_t kCpuidEveryTokens = 8;         // library feature-check cadence

}  // namespace

LibosManifest LlmWorkload::Manifest() const {
  LibosManifest manifest;
  manifest.name = "llama";
  manifest.heap_bytes = 6ull << 20;  // K-V cache + runtime heap (paper: 256MB, scaled)
  manifest.num_threads = params_.threads;
  manifest.output_pad_bytes = 4096;
  manifest.preload_files.push_back({"tokenizer.bin", Bytes(4096, 0x7A)});
  return manifest;
}

void LlmWorkload::FillCommonPage(uint64_t page_index, uint8_t* page) const {
  // Deterministic pseudo-weights: each page is an independent PRNG stream so any page
  // can be generated on demand.
  Rng rng(0x11A3A * 7919 + page_index);
  rng.Fill(page, kPageSize);
}

Bytes LlmWorkload::MakeClientInput(uint64_t seed) const {
  static const char* kPrompts[] = {
      "Translate to French: the quick brown fox jumps over the lazy dog",
      "Write a function that reverses a linked list in C",
      "Summarize: confidential virtual machines protect data in use",
  };
  const std::string prompt = kPrompts[seed % 3];
  return Bytes(prompt.begin(), prompt.end());
}

ProgramFn LlmWorkload::MakeProgram(std::shared_ptr<AppState> state) {
  auto run = std::make_shared<LlmRun>();
  const LlmParams params = params_;

  // One unit of transformer work: attention + FFN for one layer of the current token.
  // Reads real bytes from the model (common memory) and the K-V cache (confined).
  auto process_layer = [state, run, params](SyscallContext& ctx, PageCursor& pages,
                                            uint32_t layer) {
    // Pick an "expert" shard for this (token, layer): touches a pseudo-random model
    // page, which demand-faults common memory like a real large model.
    const uint64_t model_pages = params.model_bytes >> kPageShift;
    SplitMix64 pick(run->state_hash ^ (static_cast<uint64_t>(layer) << 32) ^
                    run->token_index);
    uint64_t acc = 0;
    for (int touch = 0; touch < 3; ++touch) {
      // Hot-set skew: most touches hit a small working set, occasionally straying
      // across the whole model (big-model locality).
      const uint64_t raw = pick.Next();
      const uint64_t page =
          (raw % 100 < 85) ? (raw / 100) % (model_pages / 16) : raw % model_pages;
      uint8_t* w = pages.At(state->common_base + AddrOf(page), false);
      if (w == nullptr) {
        return;
      }
      // Integer dot-product slice over real weight bytes (the rest of the matmul is
      // charged as cycles).
      for (uint32_t i = 0; i < params.dim; ++i) {
        acc += static_cast<uint64_t>(w[i]) * ((run->state_hash >> (i % 48)) & 0xFF);
      }
    }
    // K-V cache update (confined memory, real write).
    const uint64_t kv_slot =
        (static_cast<uint64_t>(layer) * params.context + (run->token_index % params.context)) *
        params.dim;
    // 16-byte aligned so the 8-byte store never crosses a page boundary.
    const uint64_t kv_offset = (kv_slot % ((4ull << 20) - kPageSize)) & ~15ULL;
    uint8_t* kv = pages.At(run->kv_cache + kv_offset, true);
    if (kv == nullptr) {
      return;
    }
    StoreLe64(kv, acc);
    run->state_hash = run->state_hash * 0x100000001B3ULL + acc;
    state->env->ChargeRuntime(ctx, 380);  // LibOS allocator/TLS tax per layer
    ctx.Compute(kCyclesPerLayerChunk);
  };

  AppPhases phases;
  phases.max_input = 64 * 1024;
  phases.setup = [state, run, params](SyscallContext&) -> Status {
    // Each dot-product slice reads dim weight bytes from one model page.
    if (params.dim > kPageSize) {
      return InvalidArgumentError("llm dim exceeds one model page");
    }
    EREBOR_ASSIGN_OR_RETURN(run->kv_cache, state->env->Alloc(4ull << 20));
    return OkStatus();
  };
  // Worker thread body: pull layer chunks off the shared queue under the spinlock.
  phases.worker = [state, run, params, process_layer](SyscallContext& ctx,
                                                      PageCursor& pages) -> StepOutcome {
    LibosEnv& env = *state->env;
    if (!run->token_in_flight) {
      ctx.Compute(300);
      return StepOutcome::kYield;
    }
    if (!env.lock(0).TryAcquire(ctx, ctx.task().tid)) {
      return StepOutcome::kYield;  // busy-wait (charged)
    }
    int layer = -1;
    if (run->layer_cursor < params.layers) {
      layer = static_cast<int>(run->layer_cursor++);
    }
    env.lock(0).Release();
    if (layer >= 0) {
      process_layer(ctx, pages, static_cast<uint32_t>(layer));
      if (!env.lock(0).TryAcquire(ctx, ctx.task().tid)) {
        // Rare: completion counter contended; spin once more next slice.
        ctx.Compute(120);
        if (!env.lock(0).TryAcquire(ctx, ctx.task().tid)) {
          return StepOutcome::kYield;
        }
      }
      ++run->layers_done;
      env.lock(0).Release();
    }
    if (!ctx.Poll()) {
      return StepOutcome::kExited;
    }
    return StepOutcome::kYield;
  };

  phases.install = [run](SyscallContext&, const Bytes& prompt) -> Status {
    for (const uint8_t byte : prompt) {
      run->state_hash = run->state_hash * 0x100000001B3ULL + byte;
    }
    return OkStatus();
  };
  // Token generation loop (the leader works the queue alongside workers).
  phases.step = [state, run, params, process_layer](
                    SyscallContext& ctx, PageCursor& pages) -> std::optional<StepOutcome> {
    if (run->token_index >= params.generate_tokens) {
      return std::nullopt;
    }
    LibosEnv& env = *state->env;
    if (!run->token_in_flight) {
      run->layer_cursor = 0;
      run->layers_done = 0;
      run->token_in_flight = true;
    }
    while (true) {
      int layer = -1;
      if (env.lock(0).TryAcquire(ctx, ctx.task().tid)) {
        if (run->layer_cursor < params.layers) {
          layer = static_cast<int>(run->layer_cursor++);
        }
        env.lock(0).Release();
      }
      if (layer < 0) {
        break;
      }
      process_layer(ctx, pages, static_cast<uint32_t>(layer));
      if (!pages.ok()) {
        return StepOutcome::kExited;
      }
      while (!env.lock(0).TryAcquire(ctx, ctx.task().tid)) {
        ctx.Compute(40);
      }
      ++run->layers_done;
      env.lock(0).Release();
    }
    if (run->layers_done == params.layers) {
      // Token complete: greedy "sampling" from the accumulated activations.
      run->generated.push_back(static_cast<uint8_t>('a' + run->state_hash % 26));
      ++run->token_index;
      run->token_in_flight = false;
      if (run->token_index % kCpuidEveryTokens == 0) {
        (void)ctx.Cpuid(1);  // library feature probe -> #VE path
      }
    }
    if (!ctx.Poll()) {
      return StepOutcome::kExited;
    }
    return StepOutcome::kYield;
  };
  phases.output = [run](SyscallContext&) -> StatusOr<Bytes> { return run->generated; };
  return MakeAppProgram(state, std::move(phases));
}

bool LlmWorkload::CheckOutput(const Bytes& input, const Bytes& output) const {
  return !output.empty();
}

}  // namespace erebor
