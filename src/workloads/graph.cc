#include "src/workloads/graph.h"

#include <algorithm>
#include <functional>

#include "src/common/rng.h"

namespace erebor {

namespace {
struct GraphRun {
  uint32_t num_nodes = 0;
  uint32_t num_edges = 0;
  // Confined-memory arrays (VAs).
  Vaddr row_ptr = 0;    // u32[num_nodes + 1]
  Vaddr col_idx = 0;    // u32[num_edges]
  Vaddr rank = 0;       // u64 fixed-point [num_nodes]
  Vaddr next_rank = 0;  // u64 [num_nodes]
  Vaddr out_degree = 0; // u32 [num_nodes]
  uint32_t iteration = 0;
  uint32_t next_chunk = 0;   // node-range work queue
  uint32_t chunks_done = 0;
  uint32_t total_chunks = 0;  // 0 until the CSR is built
};

constexpr uint64_t kFixedOne = 1ull << 32;
constexpr uint32_t kNodesPerChunk = 2048;
constexpr Cycles kCyclesPerEdge = 26;
}  // namespace

LibosManifest GraphWorkload::Manifest() const {
  LibosManifest manifest;
  manifest.name = "graphchi";
  manifest.heap_bytes = 8ull << 20;  // (paper: 2 GB confined, scaled)
  manifest.num_threads = params_.threads;
  return manifest;
}

Bytes GraphWorkload::MakeClientInput(uint64_t seed) const {
  const EdgeList graph =
      GeneratePowerLawGraph(params_.num_nodes, params_.num_edges, seed * 97 + 3);
  Bytes input(8 + graph.edges.size() * 8);
  StoreLe32(input.data(), graph.num_nodes);
  StoreLe32(input.data() + 4, static_cast<uint32_t>(graph.edges.size()));
  for (size_t i = 0; i < graph.edges.size(); ++i) {
    StoreLe32(input.data() + 8 + 8 * i, graph.edges[i].first);
    StoreLe32(input.data() + 12 + 8 * i, graph.edges[i].second);
  }
  return input;
}

ProgramFn GraphWorkload::MakeProgram(std::shared_ptr<AppState> state) {
  auto run = std::make_shared<GraphRun>();
  const GraphParams params = params_;

  // Typed confined-memory access through the slice's page cursor. All arrays are
  // page-aligned and element accesses never straddle pages (4 | 8 divide 4096).
  auto u32_at = [](PageCursor& pages, Vaddr base, uint64_t i, bool write) {
    return reinterpret_cast<uint32_t*>(pages.At(base + 4 * i, write));
  };
  auto u64_at = [](PageCursor& pages, Vaddr base, uint64_t i, bool write) {
    return reinterpret_cast<uint64_t*>(pages.At(base + 8 * i, write));
  };

  // Processes one node-range chunk of the current PageRank iteration: pushes each
  // node's rank share along its out-edges into next_rank.
  auto process_chunk = [state, run, u32_at, u64_at](SyscallContext& ctx,
                                                   PageCursor& pages, uint32_t chunk) {
    const uint32_t first = chunk * kNodesPerChunk;
    const uint32_t last = std::min(run->num_nodes, first + kNodesPerChunk);
    uint64_t edges_touched = 0;
    for (uint32_t node = first; node < last; ++node) {
      uint32_t* rp0 = u32_at(pages, run->row_ptr, node, false);
      uint32_t* rp1 = u32_at(pages, run->row_ptr, node + 1, false);
      uint64_t* rank = u64_at(pages, run->rank, node, false);
      if (rp0 == nullptr || rp1 == nullptr || rank == nullptr) {
        return;
      }
      const uint32_t degree = *rp1 - *rp0;
      if (degree == 0) {
        continue;
      }
      const uint64_t share = *rank / degree;
      for (uint32_t e = *rp0; e < *rp1; ++e) {
        uint32_t* dst = u32_at(pages, run->col_idx, e, false);
        if (dst == nullptr) {
          return;
        }
        uint64_t* nr = u64_at(pages, run->next_rank, *dst, true);
        if (nr == nullptr) {
          return;
        }
        // Threads own disjoint *source* ranges but destinations collide; the fixed-
        // point addition is applied under the env lock by chunk (coarse-grained), so
        // plain adds are safe in the cooperative schedule.
        *nr += share;
        ++edges_touched;
      }
    }
    state->env->ChargeRuntime(ctx, edges_touched / 50 + 40);  // LibOS tax
    ctx.Compute(kCyclesPerEdge * edges_touched + 4000);
  };

  // Takes the next chunk of the current iteration off the queue and processes it;
  // false if none was left (or the queue lock was busy).
  auto work_one = [state, run, process_chunk](SyscallContext& ctx, PageCursor& pages) {
    LibosEnv& env = *state->env;
    if (!env.lock(3).TryAcquire(ctx, ctx.task().tid)) {
      return false;
    }
    int chunk = -1;
    if (run->next_chunk < run->total_chunks) {
      chunk = static_cast<int>(run->next_chunk++);
    }
    env.lock(3).Release();
    if (chunk < 0) {
      return false;
    }
    process_chunk(ctx, pages, static_cast<uint32_t>(chunk));
    while (!env.lock(3).TryAcquire(ctx, ctx.task().tid)) {
      ctx.Compute(40);
    }
    ++run->chunks_done;
    env.lock(3).Release();
    return true;
  };
  AppPhases phases;
  phases.max_input = 4ull << 20;
  phases.worker = [work_one](SyscallContext& ctx, PageCursor& pages) -> StepOutcome {
    if (!work_one(ctx, pages)) {
      ctx.Compute(250);
    }
    if (!ctx.Poll()) {
      return StepOutcome::kExited;
    }
    return StepOutcome::kYield;
  };
  phases.install = [state, run, u32_at, u64_at](SyscallContext& ctx,
                                                const Bytes& input) -> Status {
    if (input.size() < 8) {
      return InvalidArgumentError("short graph input");
    }
    run->num_nodes = LoadLe32(input.data());
    run->num_edges = LoadLe32(input.data() + 4);

    // Allocate page-aligned CSR arrays in confined memory.
    LibosEnv& env = *state->env;
    auto alloc_aligned = [&env](uint64_t bytes) -> StatusOr<Vaddr> {
      EREBOR_ASSIGN_OR_RETURN(const Vaddr va, env.Alloc(bytes + kPageSize));
      return PageAlignUp(va);
    };
    auto rp = alloc_aligned(4ull * (run->num_nodes + 1));
    auto ci = alloc_aligned(4ull * run->num_edges);
    auto rk = alloc_aligned(8ull * run->num_nodes);
    auto nr = alloc_aligned(8ull * run->num_nodes);
    auto od = alloc_aligned(4ull * run->num_nodes);
    if (!rp.ok() || !ci.ok() || !rk.ok() || !nr.ok() || !od.ok()) {
      return ResourceExhaustedError("graph arena exhausted");
    }
    run->row_ptr = *rp;
    run->col_idx = *ci;
    run->rank = *rk;
    run->next_rank = *nr;
    run->out_degree = *od;

    // Build the CSR (counting sort over sources).
    PageCursor pages(ctx);
    for (uint32_t i = 0; i < run->num_edges; ++i) {
      const uint32_t src = LoadLe32(input.data() + 8 + 8 * i) % run->num_nodes;
      uint32_t* deg = u32_at(pages, run->out_degree, src, true);
      if (deg == nullptr) {
        return pages.status();
      }
      ++*deg;
    }
    uint32_t cursor = 0;
    for (uint32_t n = 0; n < run->num_nodes; ++n) {
      uint32_t* rp_n = u32_at(pages, run->row_ptr, n, true);
      uint32_t* deg = u32_at(pages, run->out_degree, n, false);
      uint64_t* rank = u64_at(pages, run->rank, n, true);
      if (rp_n == nullptr || deg == nullptr || rank == nullptr) {
        return pages.status();
      }
      *rp_n = cursor;
      cursor += *deg;
      *rank = kFixedOne;
    }
    uint32_t* rp_end = u32_at(pages, run->row_ptr, run->num_nodes, true);
    if (rp_end == nullptr) {
      return pages.status();
    }
    *rp_end = cursor;
    // Second pass: place destinations.
    std::vector<uint32_t> fill(run->num_nodes, 0);
    for (uint32_t i = 0; i < run->num_edges; ++i) {
      const uint32_t src = LoadLe32(input.data() + 8 + 8 * i) % run->num_nodes;
      const uint32_t dst = LoadLe32(input.data() + 12 + 8 * i) % run->num_nodes;
      uint32_t* rp_n = u32_at(pages, run->row_ptr, src, false);
      if (rp_n == nullptr) {
        return pages.status();
      }
      uint32_t* slot = u32_at(pages, run->col_idx, *rp_n + fill[src], true);
      if (slot == nullptr) {
        return pages.status();
      }
      *slot = dst;
      ++fill[src];
    }
    ctx.Compute(static_cast<Cycles>(run->num_edges) * 22);
    run->total_chunks = (run->num_nodes + kNodesPerChunk - 1) / kNodesPerChunk;
    return OkStatus();
  };

  // PageRank iterations; the leader participates in the chunk queue.
  phases.step = [run, params, u64_at, work_one](
                    SyscallContext& ctx, PageCursor& pages) -> std::optional<StepOutcome> {
    if (run->iteration >= params.iterations) {
      return std::nullopt;
    }
    if (work_one(ctx, pages)) {
      if (!ctx.Poll()) {
        return StepOutcome::kExited;
      }
      return StepOutcome::kYield;
    }
    if (run->chunks_done < run->total_chunks) {
      ctx.Compute(250);
      return StepOutcome::kYield;
    }
    // Iteration barrier: damp + swap rank arrays.
    for (uint32_t n = 0; n < run->num_nodes; ++n) {
      uint64_t* nr = u64_at(pages, run->next_rank, n, true);
      uint64_t* rk = u64_at(pages, run->rank, n, true);
      if (nr == nullptr || rk == nullptr) {
        return StepOutcome::kExited;
      }
      *rk = kFixedOne * 15 / 100 + (*nr * 85) / 100;
      *nr = 0;
    }
    ctx.Compute(static_cast<Cycles>(run->num_nodes) * 6);
    ++run->iteration;
    run->next_chunk = 0;
    run->chunks_done = 0;
    if (run->iteration % 2 == 0) {
      (void)ctx.Cpuid(1);
    }
    return StepOutcome::kYield;
  };

  // Top-8 ranked nodes.
  phases.output = [run, u64_at](SyscallContext& ctx) -> StatusOr<Bytes> {
    PageCursor pages(ctx);
    std::vector<std::pair<uint64_t, uint32_t>> top;
    for (uint32_t n = 0; n < run->num_nodes; ++n) {
      uint64_t* rk = u64_at(pages, run->rank, n, false);
      if (rk == nullptr) {
        return pages.status();
      }
      top.emplace_back(*rk, n);
    }
    std::partial_sort(top.begin(), top.begin() + 8, top.end(),
                      std::greater<std::pair<uint64_t, uint32_t>>());
    Bytes out;
    for (int i = 0; i < 8; ++i) {
      uint8_t rec[12];
      StoreLe32(rec, top[i].second);
      StoreLe64(rec + 4, top[i].first);
      out.insert(out.end(), rec, rec + sizeof(rec));
    }
    ctx.Compute(static_cast<Cycles>(run->num_nodes) * 4);
    return out;
  };
  return MakeAppProgram(state, std::move(phases));
}

bool GraphWorkload::CheckOutput(const Bytes& input, const Bytes& output) const {
  return output.size() == 8 * 12;
}

}  // namespace erebor
