#include "src/workloads/ids.h"

#include <algorithm>
#include <cstring>

#include "src/common/rng.h"

namespace erebor {

namespace {
// Event record (16 bytes): actor(4) | object(4) | action(4) | ts(4).
constexpr uint64_t kEventSize = 16;

struct IdsRun {
  Vaddr log_buf = 0;      // confined copy of the event log
  Vaddr sketch = 0;       // u32[sketch_bins] per window (reused)
  uint32_t num_events = 0;
  uint32_t next_window = 0;   // work queue over windows
  uint32_t windows_done = 0;
  uint32_t total_windows = 0;  // 0 until the log is installed
  Bytes flagged;              // window index + score records
};

constexpr Cycles kCyclesPerEvent = 540;
}  // namespace

LibosManifest IdsWorkload::Manifest() const {
  LibosManifest manifest;
  manifest.name = "unicorn";
  manifest.heap_bytes = 12ull << 20;  // (paper: 2 GB cache, scaled)
  manifest.num_threads = params_.threads;
  manifest.preload_files.push_back({"baseline.model", Bytes(8192, 0x42)});
  return manifest;
}

Bytes IdsWorkload::MakeClientInput(uint64_t seed) const {
  // Mostly-benign synthetic provenance log with injected anomalous bursts.
  Rng rng(seed * 31337 + 1);
  Bytes log(static_cast<size_t>(params_.num_events) * kEventSize);
  for (uint32_t i = 0; i < params_.num_events; ++i) {
    uint8_t* event = log.data() + static_cast<size_t>(i) * kEventSize;
    const bool anomalous = (i / params_.window_events) % 17 == 13;
    const uint32_t actor = anomalous ? 0xBAD0 + static_cast<uint32_t>(rng.NextBelow(4))
                                     : static_cast<uint32_t>(rng.NextZipf(512, 1.1));
    const uint32_t object =
        anomalous ? 0xBEEF : static_cast<uint32_t>(rng.NextZipf(4096, 0.9));
    const uint32_t action =
        anomalous ? 0xF0 + static_cast<uint32_t>(rng.NextBelow(2))
                  : static_cast<uint32_t>(rng.NextBelow(12));
    StoreLe32(event, actor);
    StoreLe32(event + 4, object);
    StoreLe32(event + 8, action);
    StoreLe32(event + 12, i);
  }
  return log;
}

ProgramFn IdsWorkload::MakeProgram(std::shared_ptr<AppState> state) {
  auto run = std::make_shared<IdsRun>();
  const IdsParams params = params_;

  // Scores one window: feature-hash its events into a fresh region of the sketch,
  // then compute a rarity score (anomalous windows concentrate mass in few bins).
  auto process_window = [state, run, params](SyscallContext& ctx, uint32_t window) {
    const uint32_t first_event = window * params.window_events;
    const uint32_t last_event =
        std::min(run->num_events, first_event + params.window_events);
    // Each thread uses a disjoint sketch stripe (window % threads) to avoid races.
    const uint64_t stripe =
        (window % static_cast<uint32_t>(params.threads)) * params.sketch_bins * 4ull;

    // Clear the stripe.
    for (uint64_t off = 0; off < params.sketch_bins * 4ull; off += kPageSize) {
      uint8_t* page = MustPage(ctx, *state, run->sketch + stripe + off, true);
      if (page == nullptr) {
        return;
      }
      const uint64_t n = std::min<uint64_t>(kPageSize, params.sketch_bins * 4ull - off);
      std::memset(page, 0, n);
    }

    uint64_t max_bin = 0;
    uint64_t total = 0;
    for (uint32_t e = first_event; e < last_event; ++e) {
      uint8_t* event = MustPage(ctx, *state, run->log_buf + e * kEventSize, false);
      if (event == nullptr) {
        return;
      }
      const uint32_t actor = LoadLe32(event);
      const uint32_t object = LoadLe32(event + 4);
      const uint32_t action = LoadLe32(event + 8);
      const uint64_t feature =
          (static_cast<uint64_t>(actor) << 32) ^ (object * 2654435761u) ^ action;
      SplitMix64 h(feature);
      const uint32_t bin = static_cast<uint32_t>(h.Next() % params.sketch_bins);
      uint8_t* cell = MustPage(ctx, *state, run->sketch + stripe + bin * 4ull, true);
      if (cell == nullptr) {
        return;
      }
      const uint32_t count = LoadLe32(cell) + 1;
      StoreLe32(cell, count);
      total += 1;
      max_bin = std::max<uint64_t>(max_bin, count);
    }
    state->env->ChargeRuntime(ctx, (last_event - first_event) / 6 + 60);
    ctx.Compute(kCyclesPerEvent * (last_event - first_event));

    // Concentration score in percent; benign Zipf traffic stays well below the
    // anomalous bursts that hammer a handful of (actor, action) features.
    if (window % 12 == 0) {
      (void)ctx.Cpuid(1);  // periodic feature probe -> #VE path
    }
    const uint32_t score =
        total == 0 ? 0 : static_cast<uint32_t>(max_bin * 100 / total);
    if (score >= 5) {
      uint8_t rec[8];
      StoreLe32(rec, window);
      StoreLe32(rec + 4, score);
      run->flagged.insert(run->flagged.end(), rec, rec + sizeof(rec));
    }
  };

  // Takes the next window off the queue and scores it; false if none was left (or
  // the queue lock was busy).
  auto work_one = [state, run, process_window](SyscallContext& ctx) {
    LibosEnv& env = *state->env;
    if (!env.lock(4).TryAcquire(ctx, ctx.task().tid)) {
      return false;
    }
    int window = -1;
    if (run->next_window < run->total_windows) {
      window = static_cast<int>(run->next_window++);
    }
    env.lock(4).Release();
    if (window < 0) {
      return false;
    }
    process_window(ctx, static_cast<uint32_t>(window));
    while (!env.lock(4).TryAcquire(ctx, ctx.task().tid)) {
      ctx.Compute(40);
    }
    ++run->windows_done;
    env.lock(4).Release();
    return true;
  };

  AppPhases phases;
  phases.max_input = 4ull << 20;
  phases.setup = [state, run, params](SyscallContext&) -> Status {
    LibosEnv& env = *state->env;
    auto log_buf = env.Alloc(params.num_events * kEventSize + kPageSize);
    auto sketch = env.Alloc(static_cast<uint64_t>(params.threads) *
                                params.sketch_bins * 4ull +
                            kPageSize);
    if (!log_buf.ok() || !sketch.ok()) {
      return log_buf.ok() ? sketch.status() : log_buf.status();
    }
    run->log_buf = PageAlignUp(*log_buf);
    run->sketch = PageAlignUp(*sketch);
    return OkStatus();
  };
  phases.worker = [work_one](SyscallContext& ctx) -> StepOutcome {
    if (!work_one(ctx)) {
      ctx.Compute(250);
    }
    if (!ctx.Poll()) {
      return StepOutcome::kExited;
    }
    return StepOutcome::kYield;
  };
  phases.install = [run, params](SyscallContext& ctx, const Bytes& input) -> Status {
    EREBOR_RETURN_IF_ERROR(ctx.WriteUser(run->log_buf, input.data(), input.size()));
    run->num_events = static_cast<uint32_t>(input.size() / kEventSize);
    run->total_windows =
        (run->num_events + params.window_events - 1) / params.window_events;
    return OkStatus();
  };
  phases.step = [run, work_one](SyscallContext& ctx) -> std::optional<StepOutcome> {
    if (work_one(ctx)) {
      if (!ctx.Poll()) {
        return StepOutcome::kExited;
      }
      return StepOutcome::kYield;
    }
    if (run->windows_done < run->total_windows) {
      ctx.Compute(250);
      return StepOutcome::kYield;
    }
    return std::nullopt;
  };
  phases.output = [run](SyscallContext&) -> StatusOr<Bytes> { return run->flagged; };
  return MakeAppProgram(state, std::move(phases));
}

bool IdsWorkload::CheckOutput(const Bytes& input, const Bytes& output) const {
  // Records are 8 bytes and there must be at least one flagged (injected) window.
  return output.size() % 8 == 0 && !output.empty();
}

}  // namespace erebor
