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
  // page-aligned, so an element never straddles pages (4 | 8 divide 4096), and a
  // loop over consecutive elements takes them a page run at a time.
  auto u32_at = [](PageCursor& pages, Vaddr base, uint64_t i, bool write) {
    return reinterpret_cast<uint32_t*>(pages.At(base + 4 * i, write));
  };
  auto u64_at = [](PageCursor& pages, Vaddr base, uint64_t i, bool write) {
    return reinterpret_cast<uint64_t*>(pages.At(base + 8 * i, write));
  };

  // Processes one node-range chunk of the current PageRank iteration: pushes each
  // node's rank share along its out-edges into next_rank. row_ptr, rank and col_idx
  // are read a page run at a time; next_rank is indexed by edge destination.
  auto process_chunk = [state, run, u32_at, u64_at](SyscallContext& ctx,
                                                   PageCursor& pages, uint32_t chunk) {
    const uint32_t first = chunk * kNodesPerChunk;
    const uint32_t last = std::min(run->num_nodes, first + kNodesPerChunk);
    const uint32_t* first_begin = u32_at(pages, run->row_ptr, first, false);
    if (first_begin == nullptr) {
      return;
    }
    uint32_t begin = *first_begin;  // row_ptr[node]
    uint64_t edges_touched = 0;
    for (uint32_t node = first; node < last;) {
      // Nodes [node, node + n): their row ends row_ptr[node + 1 ..] and ranks.
      const Vaddr ends_va = run->row_ptr + 4ull * (node + 1);
      const Vaddr ranks_va = run->rank + 8ull * node;
      const uint64_t n = PageCursor::PageRun<uint64_t>(
          ranks_va, PageCursor::PageRun<uint32_t>(ends_va, last - node));
      const uint32_t* ends = pages.Span<uint32_t>(ends_va, n, false);
      const uint64_t* ranks = pages.Span<uint64_t>(ranks_va, n, false);
      if (ends == nullptr || ranks == nullptr) {
        return;
      }
      for (uint64_t k = 0; k < n; ++k) {
        const uint32_t end = ends[k];
        const uint32_t degree = end - begin;
        if (degree == 0) {
          continue;
        }
        const uint64_t share = ranks[k] / degree;
        for (uint32_t e = begin; e < end;) {
          const Vaddr dst_va = run->col_idx + 4ull * e;
          const uint64_t m = PageCursor::PageRun<uint32_t>(dst_va, end - e);
          const uint32_t* dst = pages.Span<uint32_t>(dst_va, m, false);
          if (dst == nullptr) {
            return;
          }
          for (uint64_t i = 0; i < m; ++i) {
            uint64_t* nr = u64_at(pages, run->next_rank, dst[i], true);
            if (nr == nullptr) {
              return;
            }
            // Threads own disjoint *source* ranges but destinations collide; the
            // fixed-point addition is applied under the env lock by chunk
            // (coarse-grained), so plain adds are safe in the cooperative schedule.
            *nr += share;
          }
          e += static_cast<uint32_t>(m);
        }
        edges_touched += degree;
        begin = end;
      }
      node += static_cast<uint32_t>(n);
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
  phases.install = [state, run, u32_at](SyscallContext& ctx,
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
    for (uint32_t n = 0; n < run->num_nodes;) {
      const Vaddr rp_va = run->row_ptr + 4ull * n;
      const Vaddr deg_va = run->out_degree + 4ull * n;
      const Vaddr rank_va = run->rank + 8ull * n;
      const uint64_t len = PageCursor::PageRun<uint64_t>(
          rank_va, PageCursor::PageRun<uint32_t>(rp_va, run->num_nodes - n));
      uint32_t* rp_run = pages.Span<uint32_t>(rp_va, len, true);
      const uint32_t* deg_run = pages.Span<uint32_t>(deg_va, len, false);
      uint64_t* rank_run = pages.Span<uint64_t>(rank_va, len, true);
      if (rp_run == nullptr || deg_run == nullptr || rank_run == nullptr) {
        return pages.status();
      }
      for (uint64_t k = 0; k < len; ++k) {
        rp_run[k] = cursor;
        cursor += deg_run[k];
        rank_run[k] = kFixedOne;
      }
      n += static_cast<uint32_t>(len);
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
  phases.step = [run, params, work_one](
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
    for (uint32_t n = 0; n < run->num_nodes;) {
      const uint64_t len = PageCursor::PageRun<uint64_t>(run->rank + 8ull * n,
                                                         run->num_nodes - n);
      uint64_t* nr = pages.Span<uint64_t>(run->next_rank + 8ull * n, len, true);
      uint64_t* rk = pages.Span<uint64_t>(run->rank + 8ull * n, len, true);
      if (nr == nullptr || rk == nullptr) {
        return StepOutcome::kExited;
      }
      for (uint64_t k = 0; k < len; ++k) {
        rk[k] = kFixedOne * 15 / 100 + (nr[k] * 85) / 100;
        nr[k] = 0;
      }
      n += static_cast<uint32_t>(len);
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
  phases.output = [run](SyscallContext& ctx) -> StatusOr<Bytes> {
    PageCursor pages(ctx);
    std::vector<std::pair<uint64_t, uint32_t>> top;
    for (uint32_t n = 0; n < run->num_nodes;) {
      const uint64_t len = PageCursor::PageRun<uint64_t>(run->rank + 8ull * n,
                                                         run->num_nodes - n);
      const uint64_t* rk = pages.Span<uint64_t>(run->rank + 8ull * n, len, false);
      if (rk == nullptr) {
        return pages.status();
      }
      for (uint64_t k = 0; k < len; ++k, ++n) {
        top.emplace_back(rk[k], n);
      }
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
