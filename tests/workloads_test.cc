#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/crypto/sha256.h"
#include "src/sim/world.h"
#include "src/workloads/fileserver.h"
#include "src/workloads/graph.h"
#include "src/workloads/ids.h"
#include "src/workloads/llm.h"
#include "src/workloads/lmbench.h"
#include "src/workloads/retrieval.h"
#include "src/workloads/runner.h"
#include "src/workloads/vision.h"
#include "tests/small_workloads.h"

namespace erebor {
namespace {

class WorkloadMatrixTest
    : public testing::TestWithParam<std::tuple<std::string, SimMode>> {};

TEST_P(WorkloadMatrixTest, RunsAndProducesValidOutput) {
  const auto& [name, mode] = GetParam();
  auto workload = SmallWorkload(name);
  ASSERT_NE(workload, nullptr);
  RunnerOptions options;
  options.memory_frames = 32 * 1024;
  const RunReport report = RunWorkload(*workload, mode, options);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.run_cycles, 0u);
  EXPECT_GT(report.init_cycles, 0u);
  EXPECT_TRUE(workload->CheckOutput(workload->MakeClientInput(options.input_seed),
                                    report.output))
      << "output size " << report.output.size();
}

// Client data reaches the sandbox only over the attested channel: a full-Erebor
// run performs exactly one handshake, so the TDX module produces exactly one
// report for the quote, and the sealed result still checks out.
TEST(WorkloadRunnerTest, EreborRunAttestsExactlyOnce) {
  auto workload = SmallWorkload("graphchi");
  ASSERT_NE(workload, nullptr);
  RunnerOptions options;
  options.memory_frames = 32 * 1024;
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.Reset();
  const RunReport report = RunWorkload(*workload, SimMode::kEreborFull, options);
  const uint64_t quotes = tracer.CountKind(TraceEvent::kTdxReport);
  tracer.Disable();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(quotes, 1u);
  EXPECT_TRUE(workload->CheckOutput(workload->MakeClientInput(options.input_seed),
                                    report.output));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllModes, WorkloadMatrixTest,
    testing::Combine(testing::Values("llama.cpp", "yolo", "drugbank", "graphchi",
                         "unicorn"),
                     testing::Values(SimMode::kNative, SimMode::kLibosOnly,
                                     SimMode::kEreborFull)),
    [](const testing::TestParamInfo<std::tuple<std::string, SimMode>>& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         SimModeName(std::get<1>(info.param));
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

// Launches `workload`'s leader in a sandbox the way the runner does, with `manifest`
// in place of the workload's own, and never sends it any client data.
std::shared_ptr<AppState> LaunchWithoutClient(World& world, Workload& workload,
                                              const LibosManifest& manifest) {
  auto state = std::make_shared<AppState>();
  state->env = std::make_shared<LibosEnv>(manifest, world.libos_backend(),
                                          world.libos_overheads());
  SandboxSpec spec;
  spec.name = workload.name();
  spec.confined_budget_bytes = manifest.heap_bytes + (4ull << 20);
  spec.max_threads = manifest.num_threads;
  spec.output_pad_bytes = manifest.output_pad_bytes;
  EXPECT_TRUE(
      world.LaunchSandboxProcess(workload.name(), spec, workload.MakeProgram(state)).ok());
  return state;
}

class AppLifecycleTest : public testing::TestWithParam<std::string> {};

// A client that attests nothing and sends nothing: after init, the leader polls for
// input under one bounded budget, then fails the run, and every app thread exits.
TEST_P(AppLifecycleTest, InputThatNeverArrivesFailsTheRunAndExitsEveryThread) {
  auto workload = SmallWorkload(GetParam());
  ASSERT_NE(workload, nullptr);
  WorldConfig config;
  config.machine.memory_frames = 32 * 1024;
  World world(config);
  ASSERT_TRUE(world.Boot().ok());
  const int live_before = world.kernel().live_tasks();
  auto state = LaunchWithoutClient(world, *workload, workload->Manifest());

  ASSERT_TRUE(world.RunUntil([&] { return state->failed; }).ok());
  EXPECT_TRUE(state->init_done);
  EXPECT_EQ(state->failure, "client input retry budget exhausted");
  EXPECT_FALSE(state->input_ready);
  EXPECT_FALSE(state->output_sent);
  EXPECT_TRUE(
      world.RunUntil([&] { return world.kernel().live_tasks() == live_before; }, 1000)
          .ok());
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, AppLifecycleTest,
                         testing::Values("llama.cpp", "yolo", "drugbank", "graphchi",
                             "unicorn"),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// A setup hook that fails (the K-V cache does not fit the heap) fails the run before
// init_done, so the runner never sends client data to a half-built app.
TEST(AppLifecycleSetupTest, SetupFailureIsRecordedAndInitNeverCompletes) {
  auto workload = SmallWorkload("llama.cpp");
  ASSERT_NE(workload, nullptr);
  LibosManifest manifest = workload->Manifest();
  manifest.heap_bytes = 1ull << 20;  // the K-V cache alone needs 4 MiB
  WorldConfig config;
  config.machine.memory_frames = 32 * 1024;
  World world(config);
  ASSERT_TRUE(world.Boot().ok());
  const int live_before = world.kernel().live_tasks();
  auto state = LaunchWithoutClient(world, *workload, manifest);

  ASSERT_TRUE(world.RunUntil([&] { return state->failed; }).ok());
  EXPECT_FALSE(state->init_done);
  EXPECT_NE(state->failure.find("LibOS heap exhausted"), std::string::npos)
      << state->failure;
  EXPECT_TRUE(
      world.RunUntil([&] { return world.kernel().live_tasks() == live_before; }, 1000)
          .ok());
}

// Each paper app's result bytes at its default parameters under full Erebor with
// input seed 42. Several CheckOutputs check only the output's shape, so these
// digests are what catch a kernel rewrite that changes what an app computes.
struct PinnedResult {
  const char* app;
  const char* sha256;
};

class PaperAppResultTest : public testing::TestWithParam<PinnedResult> {};

TEST_P(PaperAppResultTest, DefaultRunGivesThePinnedResult) {
  const PinnedResult& pinned = GetParam();
  for (const auto& workload : MakePaperWorkloads()) {
    if (workload->name() != pinned.app) {
      continue;
    }
    RunnerOptions options;
    options.input_seed = 42;
    const RunReport report = RunWorkload(*workload, SimMode::kEreborFull, options);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(HexEncode(Sha256::Hash(report.output).data(), 32), pinned.sha256);
    return;
  }
  FAIL() << "no paper workload named " << pinned.app;
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorkloads, PaperAppResultTest,
    testing::Values(
        PinnedResult{"llama.cpp",
                     "d250f7ec442253ad55de7554d80f33d7fb748e1248841bccfd77bb7b1f8967bb"},
        PinnedResult{"yolo",
                     "eb5cf20f52cd6923c312eae0d4b11095d387f26a24ce51b51f95871f3886f886"},
        PinnedResult{"drugbank",
                     "f01f52dc35f49e6480f1845e154d9d45887ac975120dfe52250e4174d3f585e1"},
        PinnedResult{"graphchi",
                     "e42ffa13623e4b9b4708f8fece3a3cab5439956acdc5e1ecd8656018445053ad"},
        PinnedResult{"unicorn",
                     "f4cdf6fbf2a1d4382f00fd1a76abd25349e5f2b8c3e73874cf43adc29c73a353"}),
    [](const testing::TestParamInfo<PinnedResult>& info) {
      std::string name = info.param.app;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

// 100-byte rows cross page boundaries (100 does not divide 4096), so the kernel's
// rows come from two pages. Each image's {segments, mass} must equal a host
// convolution over the same client input and model page.
TEST(VisionWorkloadTest, RowsThatCrossPagesGiveTheHostResult) {
  VisionParams p;
  p.image_dim = 100;
  p.num_images = 8;
  VisionWorkload workload(p);
  RunnerOptions options;
  options.memory_frames = 32 * 1024;
  const RunReport report = RunWorkload(workload, SimMode::kEreborFull, options);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.output.size(), p.num_images * 12u);
  std::map<uint32_t, std::pair<uint32_t, uint32_t>> results;
  for (size_t off = 0; off < report.output.size(); off += 12) {
    const uint8_t* record = report.output.data() + off;
    results[LoadLe32(record)] = {LoadLe32(record + 4), LoadLe32(record + 8)};
  }
  ASSERT_EQ(results.size(), p.num_images);

  const Bytes input = workload.MakeClientInput(options.input_seed);
  const uint32_t dim = p.image_dim;
  std::vector<uint8_t> model_page(kPageSize);
  for (uint32_t img = 0; img < p.num_images; ++img) {
    workload.FillCommonPage((img * 7) % (p.model_bytes >> kPageShift), model_page.data());
    int kernel[9];
    for (int i = 0; i < 9; ++i) {
      kernel[i] = static_cast<int8_t>(model_page[i * 5] % 7 - 3);
    }
    const uint8_t* image = input.data() + static_cast<size_t>(img) * dim * dim;
    uint64_t mass = 0;
    uint32_t segments = 0;
    for (uint32_t layer = 0; layer < p.conv_layers; ++layer) {
      for (uint32_t y = 1; y + 1 < dim; y += 4) {
        for (uint32_t x = 1; x + 1 < dim; ++x) {
          int32_t acc = 0;
          for (uint32_t ky = 0; ky < 3; ++ky) {
            for (uint32_t kx = 0; kx < 3; ++kx) {
              acc += kernel[ky * 3 + kx] * image[(y + ky - 1) * dim + x + kx - 1];
            }
          }
          if (acc > 96) {
            ++segments;
            mass += static_cast<uint64_t>(acc);
          }
        }
      }
    }
    EXPECT_EQ(results[img], std::make_pair(segments, static_cast<uint32_t>(mass)))
        << "image " << img;
  }
}

// 1000 bins make 4000-byte sketch stripes, so every stripe but the first starts
// mid-page and the clear spans two pages. The flagged windows must equal a host
// scoring of the same log.
TEST(IdsWorkloadTest, StripesThatStartMidPageGiveTheHostResult) {
  IdsParams p;
  p.num_events = 40'000;
  p.sketch_bins = 1'000;
  IdsWorkload workload(p);
  RunnerOptions options;
  options.memory_frames = 32 * 1024;
  const RunReport report = RunWorkload(workload, SimMode::kEreborFull, options);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.output.size() % 8, 0u);
  std::vector<std::pair<uint32_t, uint32_t>> flagged;
  for (size_t off = 0; off < report.output.size(); off += 8) {
    flagged.emplace_back(LoadLe32(report.output.data() + off),
                         LoadLe32(report.output.data() + off + 4));
  }
  std::sort(flagged.begin(), flagged.end());

  const Bytes input = workload.MakeClientInput(options.input_seed);
  std::vector<std::pair<uint32_t, uint32_t>> expected;
  for (uint32_t first = 0, window = 0; first < p.num_events;
       first += p.window_events, ++window) {
    const uint32_t last = std::min(p.num_events, first + p.window_events);
    std::vector<uint32_t> bins(p.sketch_bins, 0);
    uint32_t max_bin = 0;
    for (uint32_t e = first; e < last; ++e) {
      const uint8_t* event = input.data() + 16ull * e;
      const uint64_t feature = (static_cast<uint64_t>(LoadLe32(event)) << 32) ^
                               (LoadLe32(event + 4) * 2654435761u) ^ LoadLe32(event + 8);
      SplitMix64 h(feature);
      max_bin = std::max(max_bin, ++bins[h.Next() % p.sketch_bins]);
    }
    const uint32_t score = max_bin * 100 / (last - first);
    if (score >= 5) {
      expected.emplace_back(window, score);
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(flagged, expected);
}

// Each dot-product slice reads dim bytes of one model page, so a dim past a page
// is refused before any compute.
TEST(LlmWorkloadTest, DimLargerThanAModelPageIsRefused) {
  LlmParams p;
  p.dim = 5000;
  p.generate_tokens = 4;
  p.model_bytes = 4ull << 20;
  LlmWorkload workload(p);
  RunnerOptions options;
  options.memory_frames = 32 * 1024;
  const RunReport report = RunWorkload(workload, SimMode::kEreborFull, options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("llm dim exceeds one model page"), std::string::npos)
      << report.error;
}

TEST(WorkloadEquivalenceTest, RetrievalResultsIdenticalAcrossModes) {
  // The data-processing *result* must not depend on the protection mode.
  RetrievalParams p;
  p.num_queries = 8'000;
  p.num_records = 4096;
  RetrievalWorkload native_wl(p), erebor_wl(p);
  RunnerOptions options;
  options.memory_frames = 32 * 1024;
  const RunReport native = RunWorkload(native_wl, SimMode::kNative, options);
  const RunReport erebor = RunWorkload(erebor_wl, SimMode::kEreborFull, options);
  ASSERT_TRUE(native.ok) << native.error;
  ASSERT_TRUE(erebor.ok) << erebor.error;
  EXPECT_EQ(native.output, erebor.output);
}

TEST(WorkloadOverheadTest, EreborOverheadIsModestAndOrdered) {
  // The headline result (Figure 9): full Erebor adds single-digit-to-low-teens
  // percent overhead, and the ablation components are each below the total.
  RetrievalParams p;
  p.num_queries = 30'000;
  RetrievalWorkload w1(p), w2(p), w3(p);
  RunnerOptions options;
  const RunReport native = RunWorkload(w1, SimMode::kNative, options);
  const RunReport libos = RunWorkload(w2, SimMode::kLibosOnly, options);
  const RunReport full = RunWorkload(w3, SimMode::kEreborFull, options);
  ASSERT_TRUE(native.ok && libos.ok && full.ok);
  const double libos_overhead =
      static_cast<double>(libos.run_cycles) / native.run_cycles - 1.0;
  const double full_overhead =
      static_cast<double>(full.run_cycles) / native.run_cycles - 1.0;
  EXPECT_GT(full_overhead, 0.0);
  EXPECT_LT(full_overhead, 0.25) << "overhead should stay modest";
  EXPECT_LT(libos_overhead, full_overhead);
}

TEST(WorkloadStatsTest, Table6StatisticsPopulated) {
  RetrievalParams p;
  p.num_queries = 20'000;
  RetrievalWorkload w(p);
  const RunReport report = RunWorkload(w, SimMode::kEreborFull);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.emc_per_sec, 0.0);
  EXPECT_GT(report.timer_per_sec, 0.0);
  EXPECT_GT(report.confined_bytes, 0u);
  EXPECT_EQ(report.common_bytes, w.common_bytes());
  EXPECT_GT(report.run_seconds, 0.0);
}

TEST(WorkloadInitTest, EreborInitCostsMoreOneTime) {
  // Paper section 9.2: initialization overhead is 11.5%-52.7%, a one-time cost.
  VisionParams p;
  p.num_images = 8;
  VisionWorkload w1(p), w2(p);
  const RunReport native = RunWorkload(w1, SimMode::kNative);
  const RunReport erebor = RunWorkload(w2, SimMode::kEreborFull);
  ASSERT_TRUE(native.ok && erebor.ok);
  const double init_overhead =
      static_cast<double>(erebor.init_cycles) / native.init_cycles - 1.0;
  EXPECT_GT(init_overhead, 0.05);
  EXPECT_LT(init_overhead, 1.0);
}

// ---- LMBench micro harness ----

class LmbenchSmokeTest : public testing::TestWithParam<std::string> {};

TEST_P(LmbenchSmokeTest, RunsNativeAndErebor) {
  const auto native = RunLmbench(GetParam(), SimMode::kNative, 200);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  EXPECT_EQ(native->operations, 200u);
  EXPECT_GT(native->cycles_per_op(), 0.0);
  EXPECT_EQ(native->emc_count, 0u);

  const auto erebor = RunLmbench(GetParam(), SimMode::kEreborFull, 200);
  ASSERT_TRUE(erebor.ok()) << erebor.status().ToString();
  // Erebor never speeds system events up, and MMU-heavy benches slow down visibly.
  EXPECT_GE(erebor->cycles_per_op(), native->cycles_per_op() * 0.999);
  if (GetParam() == "pagefault" || GetParam() == "fork" || GetParam() == "mmap") {
    EXPECT_GT(erebor->cycles_per_op(), native->cycles_per_op() * 1.3);
    EXPECT_GT(erebor->emc_count, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenches, LmbenchSmokeTest,
                         testing::ValuesIn(LmbenchNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---- File servers ----

TEST(FileServerTest, ThroughputOverheadShrinksWithFileSize) {
  // Figure 10's shape: relative throughput loss is largest for small files.
  const uint64_t small = 4 << 10, large = 1 << 20;
  const auto native_small = RunFileServer(ServerKind::kNginx, SimMode::kNative, small, 24);
  const auto erebor_small =
      RunFileServer(ServerKind::kNginx, SimMode::kEreborFull, small, 24);
  const auto native_large = RunFileServer(ServerKind::kNginx, SimMode::kNative, large, 4);
  const auto erebor_large =
      RunFileServer(ServerKind::kNginx, SimMode::kEreborFull, large, 4);
  ASSERT_TRUE(native_small.ok() && erebor_small.ok() && native_large.ok() &&
              erebor_large.ok());
  const double rel_small = erebor_small->throughput_bytes_per_sec() /
                           native_small->throughput_bytes_per_sec();
  const double rel_large = erebor_large->throughput_bytes_per_sec() /
                           native_large->throughput_bytes_per_sec();
  EXPECT_LT(rel_small, 1.0);
  EXPECT_LT(rel_large, 1.0);
  EXPECT_LT(rel_small, rel_large) << "small files should suffer more interposition";
  EXPECT_GT(rel_large, 0.9) << "large transfers should amortize the overhead";
}

TEST(FileServerTest, SshCostsMoreThanNginx) {
  const auto ssh = RunFileServer(ServerKind::kOpenSsh, SimMode::kNative, 64 << 10, 8);
  const auto nginx = RunFileServer(ServerKind::kNginx, SimMode::kNative, 64 << 10, 8);
  ASSERT_TRUE(ssh.ok() && nginx.ok());
  EXPECT_LT(ssh->throughput_bytes_per_sec(), nginx->throughput_bytes_per_sec());
}

}  // namespace
}  // namespace erebor
