// Common harness for the paper's five real-world service workloads (Table 5).
//
// Each workload is a real (scaled-down) computation written against the LibOS API.
// It runs unmodified in every evaluation mode; the harness (runner.h) measures the
// initialization and data-processing phases in simulated cycles and collects the
// Table-6 statistics.
#ifndef EREBOR_SRC_WORKLOADS_WORKLOAD_H_
#define EREBOR_SRC_WORKLOADS_WORKLOAD_H_

#include <functional>
#include <memory>
#include <optional>

#include "src/libos/libos.h"

namespace erebor {

// Shared run-state between the harness and the application program.
struct AppState {
  std::shared_ptr<LibosEnv> env;
  bool init_done = false;     // set by the driver when ready for client data
  bool input_ready = false;   // set by the driver once the app installed the input
  bool output_sent = false;   // set by the driver after SendOutput
  bool failed = false;
  std::string failure;
  Vaddr common_base = 0;      // where the common region is mapped (0 = none)
  uint64_t common_bytes = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual LibosManifest Manifest() const = 0;

  // Size of the provider's shared instance (model/database); 0 if none.
  virtual uint64_t common_bytes() const { return 0; }
  // Deterministically fills one 4 KiB page of the common region (provider data).
  virtual void FillCommonPage(uint64_t page_index, uint8_t* page) const {}

  // The client's request payload.
  virtual Bytes MakeClientInput(uint64_t seed) const = 0;

  // Rate (PTE updates/second) of the service's background virtual-memory activity —
  // page-cache churn, allocator trimming, buffer recycling. This drives the bulk of
  // Table 6's EMC/s once the MMU interface is virtualized.
  virtual uint64_t background_vm_rate() const { return 40'000; }

  // Builds the leader program, normally MakeAppProgram over the app's phases.
  virtual ProgramFn MakeProgram(std::shared_ptr<AppState> state) = 0;

  // Expected sanity property of the output given the input (used by tests).
  virtual bool CheckOutput(const Bytes& input, const Bytes& output) const { return true; }
};

// The app's half of the one-shot lifecycle that MakeAppProgram drives. The compute
// hooks (worker, step) get the slice's PageCursor for confined and common memory; one
// whose access fails (At returns nullptr) stops, and the driver fails the run with the
// cursor's status, whatever the hook returned. The Status-returning hooks open their
// own cursor if they touch memory, and return its status on a failed access.
struct AppPhases {
  // Largest client input the app accepts (RecvInput stages up to this many bytes).
  uint64_t max_input = 0;
  // Optional allocations after LibOS init, before the workers are spawned.
  std::function<Status(SyscallContext&)> setup;
  // One slice of each of the manifest's num_threads - 1 workers. The driver exits a
  // worker instead once state->output_sent || state->failed.
  std::function<StepOutcome(SyscallContext&, PageCursor&)> worker;
  // Takes the client input into the app's state.
  std::function<Status(SyscallContext&, const Bytes&)> install;
  // One compute slice: kYield/kExited, or std::nullopt once the result is ready, in
  // which case the output is released in the same slice.
  std::function<std::optional<StepOutcome>(SyscallContext&, PageCursor&)> step;
  // The result to release to the client.
  std::function<StatusOr<Bytes>(SyscallContext&)> output;
};

// The leader program of every paper workload, in the LibOS's fixed order (§6.2).
// Each call runs one slice of one phase; the last compute slice also releases the
// output:
//   1. Init: env Initialize, phases.setup, spawn the workers (all before the sandbox
//      is sealed, since a sealed sandbox cannot make these syscalls), init_done.
//   2. Input: RecvInput(max_input), polled under one EagainBackoff budget, then
//      phases.install and input_ready.
//   3. Compute: phases.step until it reports the result ready.
//   4. Output: phases.output, SendOutput, output_sent, exit.
// Each compute slice opens one PageCursor for the hook it runs. A failure in any
// phase, a failed page access in any thread included, is recorded in state once
// (the first failure is kept) and exits that thread; the other threads then exit
// too.
ProgramFn MakeAppProgram(std::shared_ptr<AppState> state, AppPhases phases);

// Registry of the five paper workloads (llm, vision, retrieval, graph, ids).
std::vector<std::unique_ptr<Workload>> MakePaperWorkloads();
std::unique_ptr<Workload> MakeWorkloadByName(const std::string& name);

}  // namespace erebor

#endif  // EREBOR_SRC_WORKLOADS_WORKLOAD_H_
