// Tests for the table-driven EMC dispatch core (src/monitor/emc_dispatch.*):
//
//   1. Completeness: every PrivilegedOps virtual maps to exactly one descriptor
//      row, and every row is fully specified (cost, trace event, fault site,
//      validator) — a new EMC cannot ship half-described.
//   2. Table-4 identity: each row's unit cost is the *same member* of
//      CycleModel as src/hw/cycles.h declares, not just an equal value.
//   3. Validator behavior: argument checks and policy denials match the
//      historical per-handler semantics.
//   4. SimLock/LockAudit: deterministic contention charging, the rank/sub
//      ordering discipline, and the frame-shard mapping.
//   5. Neutrality: the refactor is observationally neutral — the golden fig8 /
//      fig10 / tab6-shaped numbers captured from the pre-refactor monitor are
//      reproduced bit-identically, and the two-vCPU locking fingerprint
//      (contention simulation off and on) matches pinned literals.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/libos/libos.h"
#include "src/monitor/emc_dispatch.h"
#include "src/monitor/monitor.h"
#include "src/monitor/sim_lock.h"
#include "src/sim/world.h"
#include "src/tdx/ghci.h"
#include "src/workloads/fileserver.h"
#include "src/workloads/graph.h"
#include "src/workloads/ids.h"
#include "src/workloads/llm.h"
#include "src/workloads/lmbench.h"
#include "src/workloads/retrieval.h"
#include "src/workloads/runner.h"
#include "src/workloads/vision.h"

namespace erebor {
namespace {

// ---- 1. Completeness ----

// PrivilegedOps' virtuals in declaration order (src/kernel/privops.h).
const std::vector<std::string>& PrivOpsVirtualRows() {
  static const std::vector<std::string> rows = {
      "write_pte", "register_ptp", "write_cr",       "write_msr",
      "load_idt",  "copy_to_user", "copy_from_user", "tdcall",
      "text_poke", "ring_doorbell",
  };
  return rows;
}

TEST(EmcDescriptorTableTest, EveryPrivilegedOpsVirtualHasExactlyOneRow) {
  const auto& table = EmcDescriptorTable();
  ASSERT_EQ(table.size(), static_cast<size_t>(EmcOp::kCount));

  std::map<std::string, int> rows_by_name;
  for (const EmcDescriptor& d : table) {
    ASSERT_NE(d.name, nullptr);
    ++rows_by_name[d.name];
  }
  const auto& virtuals = PrivOpsVirtualRows();
  for (size_t i = 0; i < virtuals.size(); ++i) {
    EXPECT_EQ(rows_by_name[virtuals[i]], 1) << virtuals[i];
    // The table leads with the PrivilegedOps surface, in declaration order.
    EXPECT_EQ(table[i].name, virtuals[i]);
  }
  // The remainder is the monitor's own gated surface, nothing else.
  EXPECT_EQ(table.size(), virtuals.size() + 3);
  EXPECT_EQ(rows_by_name["load_kernel_module"], 1);
  EXPECT_EQ(rows_by_name["sandbox_op"], 1);
  EXPECT_EQ(rows_by_name["channel_op"], 1);
}

TEST(EmcDescriptorTableTest, EveryRowIsFullySpecified) {
  const auto& table = EmcDescriptorTable();
  std::set<std::string> names;
  std::set<std::string> sites;
  std::set<TraceEvent> events;
  for (size_t i = 0; i < table.size(); ++i) {
    const EmcDescriptor& d = table[i];
    SCOPED_TRACE(d.name == nullptr ? "<null>" : d.name);
    // Indexed by its own op, so EmcDescriptorFor is a direct lookup.
    EXPECT_EQ(static_cast<size_t>(d.op), i);
    ASSERT_NE(d.name, nullptr);
    ASSERT_NE(d.fault_site, nullptr);
    // The fault site is derived from the name: "emc.<name>".
    EXPECT_EQ(std::string(d.fault_site), "emc." + std::string(d.name));
    EXPECT_NE(d.trace_event, TraceEvent::kNone);
    EXPECT_NE(d.unit_cost, nullptr);
    EXPECT_NE(d.validate, nullptr);
    names.insert(d.name);
    sites.insert(d.fault_site);
    events.insert(d.trace_event);
  }
  // Names and fault sites are distinct per row. Trace events are distinct per
  // *family*: both usercopy directions share kEmcUserCopy and module loading
  // shares kEmcTextPoke with text_poke, exactly as the historical handlers
  // traced them.
  EXPECT_EQ(names.size(), table.size());
  EXPECT_EQ(sites.size(), table.size());
  EXPECT_EQ(events.size(), table.size() - 2);
  EXPECT_EQ(EmcDescriptorFor(EmcOp::kCopyToUser).trace_event,
            EmcDescriptorFor(EmcOp::kCopyFromUser).trace_event);
  EXPECT_EQ(EmcDescriptorFor(EmcOp::kLoadKernelModule).trace_event,
            EmcDescriptorFor(EmcOp::kTextPoke).trace_event);
  // Only the channel op lacks a family counter (it is pure data movement,
  // counted by the channel metrics instead).
  for (const EmcDescriptor& d : table) {
    if (d.op == EmcOp::kChannelOp) {
      EXPECT_EQ(d.family_counter, nullptr);
    } else {
      EXPECT_NE(d.family_counter, nullptr) << d.name;
    }
  }
}

// ---- 2. Table-4 unit-cost identity ----

TEST(EmcDescriptorTableTest, UnitCostsAreTheTable4Members) {
  const auto cost = [](EmcOp op) { return EmcDescriptorFor(op).unit_cost; };
  EXPECT_EQ(cost(EmcOp::kWritePte), &CycleModel::monitor_pte_op);
  EXPECT_EQ(cost(EmcOp::kRegisterPtp), &CycleModel::monitor_pte_op);
  EXPECT_EQ(cost(EmcOp::kWriteCr), &CycleModel::monitor_cr_op);
  EXPECT_EQ(cost(EmcOp::kWriteMsr), &CycleModel::monitor_msr_op);
  EXPECT_EQ(cost(EmcOp::kLoadIdt), &CycleModel::monitor_idt_op);
  EXPECT_EQ(cost(EmcOp::kCopyToUser), &CycleModel::monitor_stac_op);
  EXPECT_EQ(cost(EmcOp::kCopyFromUser), &CycleModel::monitor_stac_op);
  EXPECT_EQ(cost(EmcOp::kTdcall), &CycleModel::monitor_tdreport_op);
  EXPECT_EQ(cost(EmcOp::kTextPoke), &CycleModel::monitor_pte_op);
  EXPECT_EQ(cost(EmcOp::kRingDoorbell), &CycleModel::monitor_ring_op);
  EXPECT_EQ(cost(EmcOp::kLoadKernelModule), &CycleModel::page_copy);
  EXPECT_EQ(cost(EmcOp::kSandboxOp), &CycleModel::monitor_pte_op);
  EXPECT_EQ(cost(EmcOp::kChannelOp), &CycleModel::monitor_channel_op);
}

// ---- 3. Validators ----

TEST(EmcValidatorTest, WriteCrRejectsUnknownRegistersAsPolicyDenials) {
  const EmcDescriptor& d = EmcDescriptorFor(EmcOp::kWriteCr);
  EmcArgs args;
  for (const int reg : {0, 3, 4}) {
    args.reg = reg;
    EXPECT_TRUE(d.validate(args).status.ok()) << "cr" << reg;
  }
  for (const int reg : {-1, 1, 2, 5, 8}) {
    args.reg = reg;
    const EmcValidation v = d.validate(args);
    EXPECT_FALSE(v.status.ok()) << "cr" << reg;
    EXPECT_TRUE(v.count_denial) << "cr" << reg;
  }
}

TEST(EmcValidatorTest, TdcallReservesAttestationLeavesForTheMonitor) {
  const EmcDescriptor& d = EmcDescriptorFor(EmcOp::kTdcall);
  EmcArgs args;
  for (const uint64_t leaf : {tdcall_leaf::kTdReport, tdcall_leaf::kRtmrExtend}) {
    args.leaf = leaf;
    args.nargs = 2;
    const EmcValidation v = d.validate(args);
    EXPECT_EQ(v.status.code(), ErrorCode::kPermissionDenied) << leaf;
    EXPECT_TRUE(v.count_denial) << leaf;
  }
  args.leaf = tdcall_leaf::kMapGpa;
  args.nargs = 2;
  const EmcValidation short_args = d.validate(args);
  EXPECT_EQ(short_args.status.code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(short_args.count_denial);
  args.nargs = 3;
  EXPECT_TRUE(d.validate(args).status.ok());
}

TEST(EmcValidatorTest, LoadIdtAndModuleRejectMalformedArguments) {
  EmcArgs args;
  const EmcDescriptor& idt = EmcDescriptorFor(EmcOp::kLoadIdt);
  args.ptr = nullptr;
  EXPECT_EQ(idt.validate(args).status.code(), ErrorCode::kInvalidArgument);
  int dummy = 0;
  args.ptr = &dummy;
  EXPECT_TRUE(idt.validate(args).status.ok());

  const EmcDescriptor& module = EmcDescriptorFor(EmcOp::kLoadKernelModule);
  args = EmcArgs{};
  args.len = 0;
  EXPECT_EQ(module.validate(args).status.code(), ErrorCode::kInvalidArgument);
  args.len = 1;
  EXPECT_TRUE(module.validate(args).status.ok());
}

// ---- 4. SimLock / LockAudit ----

TEST(SimLockTest, ShardOfGroups512FrameGranules) {
  EXPECT_EQ(EmcLockTable::ShardOf(0), 0);
  EXPECT_EQ(EmcLockTable::ShardOf(511), 0);
  EXPECT_EQ(EmcLockTable::ShardOf(512), 1);
  EXPECT_EQ(EmcLockTable::ShardOf(512 * 15), 15);
  EXPECT_EQ(EmcLockTable::ShardOf(512 * 16), 0);  // wraps mod kFrameShards
}

TEST(SimLockTest, ContentionChargesTheExactWaitAndNothingWhenFree) {
  Machine machine(MachineConfig{.memory_frames = 64, .num_cpus = 2});
  Cpu& a = machine.cpu(0);
  Cpu& b = machine.cpu(1);
  LockAudit::Global().Reset();
  SimLock lock("test.lock", kRankMonitorState);

  // Uncontended acquire/release charge zero (determinism rule 1).
  const Cycles a_start = a.cycles().now();
  lock.Acquire(a, true);
  EXPECT_EQ(a.cycles().now(), a_start);
  a.cycles().Charge(500);  // critical section
  lock.Release(a, true);
  const Cycles free_point = a.cycles().now();

  // A vCPU whose clock is behind the free point is charged exactly the wait.
  const Cycles b_start = b.cycles().now();
  ASSERT_LT(b_start, free_point);
  lock.Acquire(b, true);
  EXPECT_EQ(b.cycles().now(), free_point);
  EXPECT_EQ(lock.contended(), 1u);
  EXPECT_EQ(lock.contention_cycles(), free_point - b_start);
  b.cycles().Charge(100);
  lock.Release(b, true);

  // A vCPU already past the free point pays nothing.
  a.cycles().Charge(1000);
  const Cycles a_again = a.cycles().now();
  lock.Acquire(a, true);
  EXPECT_EQ(a.cycles().now(), a_again);
  EXPECT_EQ(lock.contended(), 1u);
  lock.Release(a, true);

  // With contention simulation off the lock never charges, full stop.
  const Cycles b_again = b.cycles().now();
  lock.Acquire(b, false);
  lock.Release(b, false);
  EXPECT_EQ(b.cycles().now(), b_again);
  EXPECT_EQ(LockAudit::Global().violations(), 0u);
}

TEST(LockAuditTest, OrderingAndUnheldProbesCountViolations) {
  Machine machine(MachineConfig{.memory_frames = 64, .num_cpus = 1});
  Cpu& cpu = machine.cpu(0);
  LockAudit& audit = LockAudit::Global();
  audit.Reset();

  SimLock sandbox7("sandbox.7", kRankSandbox, 7);
  SimLock state("monitor.state", kRankMonitorState);

  // Correct order (sandbox < monitor-state), LIFO release: clean.
  sandbox7.Acquire(cpu, false);
  state.Acquire(cpu, false);
  EXPECT_FALSE(audit.NothingHeld(0));
  audit.ExpectSandboxHeld(0, 7);
  state.Release(cpu, false);
  sandbox7.Release(cpu, false);
  EXPECT_TRUE(audit.NothingHeld(0));
  EXPECT_EQ(audit.violations(), 0u);

  // Rank inversion: monitor-state before a sandbox lock.
  state.Acquire(cpu, false);
  sandbox7.Acquire(cpu, false);
  EXPECT_EQ(audit.ordering_violations(), 1u);
  sandbox7.Release(cpu, false);
  state.Release(cpu, false);

  // Mutating a sandbox or a frame shard without its lock.
  audit.Reset();
  audit.ExpectSandboxHeld(0, 3);
  audit.ExpectFrameShardHeld(0, 5);
  EXPECT_EQ(audit.unheld_violations(), 2u);
  audit.Reset();
}

// ---- 5. Neutrality ----

// Golden numbers captured from the pre-refactor monitor (same parameters, same
// seed, tracer disabled). The dispatch-table refactor and the lock layer must
// reproduce them bit-for-bit: uncontended locks charge zero and the dispatcher
// performs exactly the accounting the handlers used to.
TEST(EmcNeutralityTest, GoldenLmbenchAndFileserverNumbersAreBitIdentical) {
  struct Golden {
    const char* name;
    uint64_t cycles;
    uint64_t emc;
  };
  for (const Golden& g : {Golden{"null", 321600, 1}, Golden{"read", 1459440, 411},
                          Golden{"pagefault", 17182100, 6421}}) {
    const auto r = RunLmbench(g.name, SimMode::kEreborFull, 400);
    ASSERT_TRUE(r.ok()) << g.name;
    EXPECT_EQ(r->operations, 400u) << g.name;
    EXPECT_EQ(r->total_cycles, g.cycles) << g.name;
    EXPECT_EQ(r->emc_count, g.emc) << g.name;
  }

  const auto ssh = RunFileServer(ServerKind::kOpenSsh, SimMode::kEreborFull, 65536, 4);
  ASSERT_TRUE(ssh.ok());
  EXPECT_EQ(ssh->total_cycles, 2381438u);
  const auto nginx = RunFileServer(ServerKind::kNginx, SimMode::kEreborFull, 65536, 4);
  ASSERT_TRUE(nginx.ok());
  EXPECT_EQ(nginx->total_cycles, 573124u);
}

TEST(EmcNeutralityTest, GoldenWorkloadNumbersAreBitIdentical) {
  RunnerOptions options;
  options.memory_frames = 32 * 1024;
  {
    VisionParams params;
    params.num_images = 12;
    VisionWorkload workload(params);
    const RunReport report = RunWorkload(workload, SimMode::kEreborFull, options);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.init_cycles, 5524826u);
    EXPECT_EQ(report.run_cycles, 21093689u);
    EXPECT_EQ(report.emc_total, 675u);
  }
  {
    IdsParams params;
    params.num_events = 40000;
    IdsWorkload workload(params);
    const RunReport report = RunWorkload(workload, SimMode::kEreborFull, options);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.init_cycles, 12521278u);
    EXPECT_EQ(report.run_cycles, 23914319u);
    EXPECT_EQ(report.emc_total, 501u);
  }
  {
    LlmParams params;
    params.generate_tokens = 24;
    params.model_bytes = 4ull << 20;
    LlmWorkload workload(params);
    const RunReport report = RunWorkload(workload, SimMode::kEreborFull, options);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.init_cycles, 7273939u);
    EXPECT_EQ(report.run_cycles, 9330483u);
    EXPECT_EQ(report.emc_total, 297u);
  }
  {
    RetrievalParams params;
    params.num_queries = 12'000;
    params.num_records = 8192;
    RetrievalWorkload workload(params);
    const RunReport report = RunWorkload(workload, SimMode::kEreborFull, options);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.init_cycles, 5524826u);
    EXPECT_EQ(report.run_cycles, 31173292u);
    EXPECT_EQ(report.emc_total, 1280u);
  }
  {
    GraphParams params;
    params.num_nodes = 4000;
    params.num_edges = 24'000;
    params.iterations = 4;
    GraphWorkload workload(params);
    const RunReport report = RunWorkload(workload, SimMode::kEreborFull, options);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.init_cycles, 9022957u);
    EXPECT_EQ(report.run_cycles, 4430864u);
    EXPECT_EQ(report.emc_total, 116u);
  }
}

// Attests one client session, delivers its sealed records alternately from two
// vCPUs, and fingerprints every observable the paper's figures read: per-vCPU
// cycles, then the EMC, sandbox-op and denial counters.
std::vector<uint64_t> LockingFingerprint(bool simulate_contention) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.machine.num_cpus = 2;
  World world(config);
  EXPECT_TRUE(world.Boot().ok());

  SandboxSpec spec;
  spec.name = "neutral";
  auto env = std::make_shared<LibosEnv>(
      LibosManifest{.name = spec.name, .heap_bytes = 1 << 20},
      LibosBackend::kSandboxed);
  bool up = false;
  auto sandbox = world.LaunchSandboxProcess(
      spec.name, spec, [env, &up](SyscallContext& ctx) -> StepOutcome {
        if (!env->initialized()) {
          if (!env->Initialize(ctx).ok()) {
            return StepOutcome::kExited;
          }
          up = true;
        }
        ctx.Compute(10'000);
        return StepOutcome::kYield;
      });
  EXPECT_TRUE(sandbox.ok());
  EXPECT_TRUE(world.RunUntil([&] { return up; }, 100'000).ok());

  ClientSession session(world, (*sandbox)->id, /*seed=*/1, &world.machine().cpu(0));
  EXPECT_TRUE(session.Handshake().ok());

  EreborMonitor* monitor = world.monitor();
  monitor->SetLockContention(simulate_contention);
  LockAudit::Global().Reset();
  for (int i = 0; i < 32; ++i) {
    const Bytes payload(128, static_cast<uint8_t>(i));
    EXPECT_TRUE(monitor
                    ->ProxyDeliverBatch(world.machine().cpu(i % 2),
                                        {session.client().SealData(payload)})
                    .ok());
  }
  EXPECT_EQ(LockAudit::Global().violations(), 0u);
  EXPECT_TRUE(monitor->AuditInvariants().ok());

  std::vector<uint64_t> fingerprint;
  for (int c = 0; c < world.machine().num_cpus(); ++c) {
    fingerprint.push_back(world.machine().cpu(c).cycles().now());
  }
  const MonitorCounters& counters = monitor->counters();
  fingerprint.push_back(counters.emc_total);
  fingerprint.push_back(counters.emc_sandbox);
  fingerprint.push_back(counters.policy_denials);
  return fingerprint;
}

// Without contention simulation the lock set charges nothing; with it, vCPU 1
// waits for vCPU 0's critical sections, so the literals also pin the order in
// which a dispatch acquires and releases its locks.
TEST(EmcNeutralityTest, ShardedLockingFingerprintIsPinned) {
  EXPECT_EQ(LockingFingerprint(false),
            (std::vector<uint64_t>{91925634, 45294, 66118, 3, 0}));
  EXPECT_EQ(LockingFingerprint(true),
            (std::vector<uint64_t>{91925634, 91925826, 66118, 3, 0}));
}

}  // namespace
}  // namespace erebor
