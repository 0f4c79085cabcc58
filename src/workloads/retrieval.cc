#include "src/workloads/retrieval.h"

#include "src/common/rng.h"

namespace erebor {

namespace {
struct RetrievalRun {
  std::vector<uint64_t> queries;
  uint64_t next_query = 0;   // work cursor
  uint64_t hits = 0;
  uint64_t checksum = 0;
};

constexpr Cycles kCyclesPerQuery = 2'300;      // hash + probe + copy cost
constexpr uint64_t kQueriesPerSlice = 512;     // work-chunk granularity
}  // namespace

uint64_t RetrievalKeyForRecord(uint64_t index) {
  SplitMix64 sm(index * 2654435761ULL + 1);
  return sm.Next() | 1;  // non-zero
}

LibosManifest RetrievalWorkload::Manifest() const {
  LibosManifest manifest;
  manifest.name = "drugbank";
  manifest.heap_bytes = 4ull << 20;
  manifest.num_threads = params_.threads;
  manifest.preload_files.push_back({"schema.json", Bytes(1024, 0x7B)});
  return manifest;
}

void RetrievalWorkload::FillCommonPage(uint64_t page_index, uint8_t* page) const {
  // Records are placed at slot = key % num_records (linear probing collisions are
  // resolved by construction: slot i simply stores record i, keyed so lookups land
  // directly — a perfect-hash simplification that keeps probes one-page touches).
  const uint64_t records_per_page = kPageSize / kRetrievalRecordSize;
  for (uint64_t r = 0; r < records_per_page; ++r) {
    const uint64_t index = page_index * records_per_page + r;
    uint8_t* record = page + r * kRetrievalRecordSize;
    StoreLe64(record, RetrievalKeyForRecord(index));
    StoreLe64(record + 8, index);
    Rng rng(index ^ 0xD2C6);
    rng.Fill(record + 16, kRetrievalRecordSize - 16);
  }
}

Bytes RetrievalWorkload::MakeClientInput(uint64_t seed) const {
  // Zipf-skewed query batch of record indices, encoded as u64 little-endian.
  Rng rng(seed * 7 + 5);
  Bytes input(params_.num_queries * 8);
  for (uint32_t i = 0; i < params_.num_queries; ++i) {
    const uint64_t record = rng.NextZipf(params_.num_records, 0.8);
    StoreLe64(input.data() + 8ull * i, record);
  }
  return input;
}

ProgramFn RetrievalWorkload::MakeProgram(std::shared_ptr<AppState> state) {
  auto run = std::make_shared<RetrievalRun>();
  const RetrievalParams params = params_;

  // Executes one chunk of queries against the common-region table.
  auto process_chunk = [state, run, params](SyscallContext& ctx, PageCursor& pages,
                                            uint64_t first, uint64_t count) {
    for (uint64_t q = first; q < first + count; ++q) {
      const uint64_t index = run->queries[q] % params.num_records;
      const uint64_t offset = index * kRetrievalRecordSize;
      uint8_t* record = pages.At(state->common_base + offset, false);
      if (record == nullptr) {
        return;
      }
      const uint64_t key = LoadLe64(record);
      if (key == RetrievalKeyForRecord(index)) {
        ++run->hits;
        // Checksum the payload (real read of the record body).
        uint64_t sum = 0;
        for (int i = 16; i < 64; i += 8) {
          sum += LoadLe64(record + i);
        }
        run->checksum ^= sum + key;
      }
    }
    state->env->ChargeRuntime(ctx, count);  // LibOS tax per query
    ctx.Compute(kCyclesPerQuery * count);
    if (count > 0 && (first / kQueriesPerSlice) % 12 == 0) {
      (void)ctx.Cpuid(1);  // periodic library feature probe -> #VE path
    }
  };

  // Takes the next chunk of queries and executes it; false if none was left (or the
  // queue lock was busy).
  auto work_one = [state, run, process_chunk](SyscallContext& ctx, PageCursor& pages) {
    LibosEnv& env = *state->env;
    if (!env.lock(2).TryAcquire(ctx, ctx.task().tid)) {
      return false;
    }
    const uint64_t first = run->next_query;
    const uint64_t count =
        std::min<uint64_t>(kQueriesPerSlice, run->queries.size() - first);
    run->next_query += count;
    env.lock(2).Release();
    if (count == 0) {
      return false;
    }
    process_chunk(ctx, pages, first, count);
    return true;
  };

  AppPhases phases;
  phases.max_input = 5ull << 19;
  phases.worker = [state, work_one](SyscallContext& ctx, PageCursor& pages) -> StepOutcome {
    if (!state->input_ready) {
      ctx.Compute(300);
      return StepOutcome::kYield;
    }
    work_one(ctx, pages);
    if (!ctx.Poll()) {
      return StepOutcome::kExited;
    }
    return StepOutcome::kYield;
  };
  phases.install = [run](SyscallContext&, const Bytes& input) {
    run->queries.resize(input.size() / 8);
    for (size_t i = 0; i < run->queries.size(); ++i) {
      run->queries[i] = LoadLe64(input.data() + 8 * i);
    }
    return OkStatus();
  };
  phases.step = [run, work_one](SyscallContext& ctx,
                                PageCursor& pages) -> std::optional<StepOutcome> {
    if (work_one(ctx, pages)) {
      if (!ctx.Poll()) {
        return StepOutcome::kExited;
      }
      return StepOutcome::kYield;
    }
    if (run->next_query < run->queries.size()) {
      ctx.Compute(200);
      return StepOutcome::kYield;
    }
    return std::nullopt;
  };
  phases.output = [run](SyscallContext&) -> StatusOr<Bytes> {
    Bytes out(24);
    StoreLe64(out.data(), run->hits);
    StoreLe64(out.data() + 8, run->checksum);
    StoreLe64(out.data() + 16, run->queries.size());
    return out;
  };
  return MakeAppProgram(state, std::move(phases));
}

bool RetrievalWorkload::CheckOutput(const Bytes& input, const Bytes& output) const {
  if (output.size() != 24) {
    return false;
  }
  // All queries must have been answered and every lookup must hit (perfect-hash DB).
  const uint64_t hits = LoadLe64(output.data());
  const uint64_t total = LoadLe64(output.data() + 16);
  return total == input.size() / 8 && hits == total;
}

}  // namespace erebor
