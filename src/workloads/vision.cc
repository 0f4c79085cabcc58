#include "src/workloads/vision.h"

#include <cstring>

#include "src/common/rng.h"

namespace erebor {

namespace {
struct VisionRun {
  Vaddr image_buf = 0;     // confined copy of the batch
  uint32_t next_image = 0; // work queue cursor
  uint32_t images_done = 0;
  Bytes results;
};

constexpr Cycles kCyclesPerImage = 1'600'000;  // full conv pyramid cost
}  // namespace

LibosManifest VisionWorkload::Manifest() const {
  LibosManifest manifest;
  manifest.name = "yolo";
  manifest.heap_bytes = 4ull << 20;
  manifest.num_threads = params_.threads;
  manifest.preload_files.push_back({"labels.txt", Bytes(2048, 0x4C)});
  return manifest;
}

void VisionWorkload::FillCommonPage(uint64_t page_index, uint8_t* page) const {
  Rng rng(0x105E * 31 + page_index);
  rng.Fill(page, kPageSize);
}

Bytes VisionWorkload::MakeClientInput(uint64_t seed) const {
  // Batch of synthetic images with structured gradients + noise.
  const uint32_t dim = params_.image_dim;
  Bytes batch(static_cast<size_t>(params_.num_images) * dim * dim);
  Rng rng(seed * 1000003);
  for (uint32_t img = 0; img < params_.num_images; ++img) {
    uint8_t* base = batch.data() + static_cast<size_t>(img) * dim * dim;
    for (uint32_t y = 0; y < dim; ++y) {
      for (uint32_t x = 0; x < dim; ++x) {
        base[y * dim + x] =
            static_cast<uint8_t>((x * 2 + y + rng.NextBelow(32)) & 0xFF);
      }
    }
  }
  return batch;
}

ProgramFn VisionWorkload::MakeProgram(std::shared_ptr<AppState> state) {
  auto run = std::make_shared<VisionRun>();
  const VisionParams params = params_;

  // Processes one image: conv3x3 per layer with kernels read from the common model,
  // then threshold segmentation; appends {segments, mass} to results.
  auto process_image = [state, run, params](SyscallContext& ctx, uint32_t img) {
    const uint32_t dim = params.image_dim;
    const uint64_t img_bytes = static_cast<uint64_t>(dim) * dim;
    const Vaddr src_va = run->image_buf + img * img_bytes;

    // Kernel weights from common memory (touches model pages).
    const uint64_t model_pages = params.model_bytes >> kPageShift;
    uint8_t* kpage = MustPage(
        ctx, *state, state->common_base + AddrOf((img * 7) % model_pages), false);
    if (kpage == nullptr) {
      return;
    }
    int8_t kernel[9];
    for (int i = 0; i < 9; ++i) {
      kernel[i] = static_cast<int8_t>(kpage[i * 5] % 7 - 3);
    }

    // Real convolution over a sample of rows (full cost charged as cycles).
    uint64_t mass = 0;
    uint32_t segments = 0;
    for (uint32_t layer = 0; layer < params.conv_layers; ++layer) {
      for (uint32_t y = 1; y + 1 < dim; y += 4) {
        // Page pointers for three consecutive rows (all within one page if the image
        // is small enough; handle the general case per access).
        for (uint32_t x = 1; x + 1 < dim; ++x) {
          int32_t acc = 0;
          for (int dy = -1; dy <= 1; ++dy) {
            uint8_t* row = MustPage(ctx, *state, src_va + (y + dy) * dim, false);
            if (row == nullptr) {
              return;
            }
            for (int dx = -1; dx <= 1; ++dx) {
              acc += kernel[(dy + 1) * 3 + (dx + 1)] *
                     static_cast<int32_t>(row[x + dx]);
            }
          }
          if (acc > 96) {
            ++segments;
            mass += static_cast<uint64_t>(acc);
          }
        }
      }
    }
    state->env->ChargeRuntime(ctx, 900);  // LibOS tax per image
    ctx.Compute(kCyclesPerImage);

    uint8_t record[12];
    StoreLe32(record, img);
    StoreLe32(record + 4, segments);
    StoreLe32(record + 8, static_cast<uint32_t>(mass & 0xFFFFFFFF));
    run->results.insert(run->results.end(), record, record + sizeof(record));
    if (img % 16 == 0) {
      (void)ctx.Cpuid(7);  // SIMD feature probe -> #VE path
    }
  };

  // Takes the next image off the queue and processes it; false if none was left (or
  // the queue lock was busy).
  auto work_one = [state, run, params, process_image](SyscallContext& ctx) {
    LibosEnv& env = *state->env;
    int img = -1;
    if (env.lock(1).TryAcquire(ctx, ctx.task().tid)) {
      if (run->next_image < params.num_images) {
        img = static_cast<int>(run->next_image++);
      }
      env.lock(1).Release();
    }
    if (img < 0) {
      return false;
    }
    process_image(ctx, static_cast<uint32_t>(img));
    while (!env.lock(1).TryAcquire(ctx, ctx.task().tid)) {
      ctx.Compute(40);
    }
    ++run->images_done;
    env.lock(1).Release();
    return true;
  };

  AppPhases phases;
  phases.max_input = 1ull << 20;
  phases.setup = [state, run, params](SyscallContext&) -> Status {
    const uint64_t batch_bytes =
        static_cast<uint64_t>(params.num_images) * params.image_dim * params.image_dim;
    // Page-aligned so per-row accesses never straddle a frame boundary.
    EREBOR_ASSIGN_OR_RETURN(const Vaddr buf, state->env->Alloc(batch_bytes + kPageSize));
    run->image_buf = PageAlignUp(buf);
    return OkStatus();
  };
  phases.worker = [state, work_one](SyscallContext& ctx) -> StepOutcome {
    if (!state->input_ready) {
      ctx.Compute(300);
      return StepOutcome::kYield;
    }
    work_one(ctx);
    if (!ctx.Poll()) {
      return StepOutcome::kExited;
    }
    return StepOutcome::kYield;
  };
  // Stage the batch into confined memory (the client data install point).
  phases.install = [run](SyscallContext& ctx, const Bytes& input) {
    return ctx.WriteUser(run->image_buf, input.data(), input.size());
  };
  // The leader also processes images.
  phases.step = [run, params, work_one](SyscallContext& ctx) -> std::optional<StepOutcome> {
    if (work_one(ctx)) {
      if (!ctx.Poll()) {
        return StepOutcome::kExited;
      }
      return StepOutcome::kYield;
    }
    if (run->images_done < params.num_images) {
      ctx.Compute(200);  // wait for stragglers
      return StepOutcome::kYield;
    }
    return std::nullopt;
  };
  phases.output = [run](SyscallContext&) -> StatusOr<Bytes> { return run->results; };
  return MakeAppProgram(state, std::move(phases));
}

bool VisionWorkload::CheckOutput(const Bytes& input, const Bytes& output) const {
  return output.size() == static_cast<size_t>(params_.num_images) * 12;
}

}  // namespace erebor
