#include <gtest/gtest.h>

#include <functional>

#include "src/common/bytes.h"
#include "src/common/trace.h"
#include "src/hw/machine.h"

namespace erebor {
namespace {

class CpuTest : public testing::Test {
 protected:
  CpuTest() : machine_(MachineConfig{.memory_frames = 2048, .num_cpus = 2}) {
    cpu_ = &machine_.cpu(0);
    // Build a small address space by hand: frame 100 = PML4.
    root_ = 100 * kPageSize;
    next_ptp_ = 101;
    cpu_->TrustedWriteCr(3, root_);
  }

  void Map(Vaddr va, FrameNum frame, Pte flags) {
    ASSERT_TRUE(MapPage(machine_.memory(), root_, va, frame, flags, writer_).ok());
  }

  Machine machine_;
  Cpu* cpu_;
  Paddr root_;
  FrameNum next_ptp_;
  // The writer only refers to its callables, so the fixture owns them.
  std::function<Status(Paddr, Pte)> write_pte_ = [this](Paddr pa, Pte value) {
    machine_.memory().Write64(pa, value);
    return OkStatus();
  };
  std::function<StatusOr<FrameNum>()> alloc_ptp_ = [this]() -> StatusOr<FrameNum> {
    return next_ptp_++;
  };
  PteWriter writer_{write_pte_, alloc_ptp_};
};

TEST_F(CpuTest, PrivilegedInstructionsFaultInUserMode) {
  cpu_->SetMode(CpuMode::kUser);
  EXPECT_FALSE(cpu_->WriteCr0(0).ok());
  EXPECT_FALSE(cpu_->WriteMsr(msr::kIa32Lstar, 1).ok());
  EXPECT_FALSE(cpu_->Stac().ok());
  EXPECT_FALSE(cpu_->Lidt(nullptr).ok());
  uint64_t args[1] = {0};
  EXPECT_FALSE(cpu_->Tdcall(0, args, 1).ok());
  EXPECT_FALSE(cpu_->ReadMsr(msr::kIa32Lstar).ok());
}

TEST_F(CpuTest, PrivilegedInstructionsWorkInSupervisorMode) {
  EXPECT_TRUE(cpu_->WriteCr0(cr::kCr0Wp).ok());
  EXPECT_TRUE(cpu_->WriteMsr(msr::kIa32Lstar, 0x1234).ok());
  EXPECT_EQ(*cpu_->ReadMsr(msr::kIa32Lstar), 0x1234u);
}

// IA32_PKRS and IA32_S_CET live in their own fields, every other MSR in the map:
// each register reads back exactly the last value stored, whichever of the
// untrusted WRMSR and the trusted gate write stored it.
TEST_F(CpuTest, MsrsReadBackWhatEitherWritePathStored) {
  const uint32_t kMsrs[] = {msr::kIa32Pkrs, msr::kIa32SCet, msr::kIa32Lstar};
  const auto expect_msrs = [&](uint64_t base) {
    for (uint32_t i = 0; i < 3; ++i) {
      const auto value = cpu_->ReadMsr(kMsrs[i]);
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(*value, base + i) << "msr 0x" << std::hex << kMsrs[i];
    }
    EXPECT_EQ(cpu_->pkrs(), base);
    EXPECT_EQ(cpu_->s_cet(), base + 1);
  };
  // Within a round the write path alternates from register to register; each
  // register's path flips between rounds, and the two passes start opposite, so
  // every register is overwritten in both orders (trusted then untrusted, and
  // untrusted then trusted).
  uint64_t base = 0x100;
  for (const bool trusted_first : {true, false}) {
    for (uint32_t round = 0; round < 2; ++round) {
      for (uint32_t i = 0; i < 3; ++i) {
        if (((i + round) % 2 == 0) == trusted_first) {
          cpu_->TrustedWriteMsr(kMsrs[i], base + i);
        } else {
          ASSERT_TRUE(cpu_->WriteMsr(kMsrs[i], base + i).ok());
        }
      }
      expect_msrs(base);
      base += 0x100;
    }
  }
}

// An untrusted PKRS or S_CET WRMSR is a serializing permission change: it records
// a TLB flush and empties the writing CPU's TLB. The trusted gate write on the
// EMC path does neither (PKS and CET checks re-run on every access).
TEST_F(CpuTest, UntrustedGateMsrWriteFlushesTlbTrustedDoesNot) {
  Map(0x3000, 300, pte::kPresent | pte::kWritable);
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  for (const uint32_t index : {msr::kIa32Pkrs, msr::kIa32SCet}) {
    ASSERT_TRUE(cpu_->Translate(0x3000, AccessType::kRead).ok());
    ASSERT_NE(cpu_->tlb().ProbeLeaf(root_, 0x3000, CpuMode::kSupervisor), nullptr);

    tracer.Reset();
    cpu_->TrustedWriteMsr(index, 0);
    EXPECT_EQ(tracer.CountKind(TraceEvent::kTlbFlush), 0u);
    EXPECT_NE(cpu_->tlb().ProbeLeaf(root_, 0x3000, CpuMode::kSupervisor), nullptr);

    ASSERT_TRUE(cpu_->WriteMsr(index, 0).ok());
    EXPECT_EQ(tracer.CountKind(TraceEvent::kTlbFlush), 1u);
    if (Tlb::Enabled()) {
      EXPECT_EQ(cpu_->tlb().ProbeLeaf(root_, 0x3000, CpuMode::kSupervisor), nullptr);
    }
  }
  tracer.Disable();
}

TEST_F(CpuTest, SensitiveFenceBlocksKernelButNotMonitor) {
  cpu_->EnableSensitiveFence();
  EXPECT_FALSE(cpu_->WriteMsr(msr::kIa32Lstar, 1).ok());
  EXPECT_FALSE(cpu_->WriteCr4(0).ok());
  cpu_->SetMonitorContext(true);
  EXPECT_TRUE(cpu_->WriteMsr(msr::kIa32Lstar, 1).ok());
  cpu_->SetMonitorContext(false);
  EXPECT_FALSE(cpu_->Stac().ok());
}

TEST_F(CpuTest, UserCannotAccessSupervisorPage) {
  Map(0x1000, 200, pte::kPresent | pte::kWritable);  // supervisor page
  cpu_->SetMode(CpuMode::kUser);
  Fault fault;
  EXPECT_FALSE(cpu_->Translate(0x1000, AccessType::kRead, &fault).ok());
  EXPECT_EQ(fault.vector, Vector::kPageFault);
  EXPECT_TRUE(fault.error_code & pf_err::kUser);
}

TEST_F(CpuTest, UserWriteToReadOnlyPageFaults) {
  Map(0x2000, 201, pte::kPresent | pte::kUser);
  cpu_->SetMode(CpuMode::kUser);
  EXPECT_TRUE(cpu_->Translate(0x2000, AccessType::kRead).ok());
  EXPECT_FALSE(cpu_->Translate(0x2000, AccessType::kWrite).ok());
}

TEST_F(CpuTest, SmapBlocksSupervisorAccessToUserPages) {
  Map(0x3000, 202, pte::kPresent | pte::kUser | pte::kWritable);
  cpu_->TrustedWriteCr(4, cr::kCr4Smap);
  EXPECT_FALSE(cpu_->Translate(0x3000, AccessType::kRead).ok());
  // stac opens the window.
  ASSERT_TRUE(cpu_->Stac().ok());
  EXPECT_TRUE(cpu_->Translate(0x3000, AccessType::kRead).ok());
  ASSERT_TRUE(cpu_->Clac().ok());
  EXPECT_FALSE(cpu_->Translate(0x3000, AccessType::kWrite).ok());
}

TEST_F(CpuTest, SmepBlocksSupervisorExecOfUserPages) {
  Map(0x4000, 203, pte::kPresent | pte::kUser);
  cpu_->TrustedWriteCr(4, cr::kCr4Smep);
  EXPECT_FALSE(cpu_->Translate(0x4000, AccessType::kExecute).ok());
  // Reads are unaffected by SMEP.
  EXPECT_TRUE(cpu_->Translate(0x4000, AccessType::kRead).ok());
}

TEST_F(CpuTest, PksAccessDisableBlocksSupervisorData) {
  Map(0x5000, 204, pte::WithPkey(pte::kPresent | pte::kWritable, 1));
  cpu_->TrustedWriteCr(4, cr::kCr4Pks);
  cpu_->TrustedWriteMsr(msr::kIa32Pkrs, pkrs::DenyAll(1));
  Fault fault;
  EXPECT_FALSE(cpu_->Translate(0x5000, AccessType::kRead, &fault).ok());
  EXPECT_TRUE(fault.error_code & pf_err::kProtectionKey);
  // Granting the key restores access.
  cpu_->TrustedWriteMsr(msr::kIa32Pkrs, 0);
  EXPECT_TRUE(cpu_->Translate(0x5000, AccessType::kRead).ok());
}

TEST_F(CpuTest, PksWriteDisableAllowsReadBlocksWrite) {
  Map(0x6000, 205, pte::WithPkey(pte::kPresent | pte::kWritable, 2));
  cpu_->TrustedWriteCr(4, cr::kCr4Pks);
  cpu_->TrustedWriteMsr(msr::kIa32Pkrs, pkrs::DenyWrite(2));
  EXPECT_TRUE(cpu_->Translate(0x6000, AccessType::kRead).ok());
  EXPECT_FALSE(cpu_->Translate(0x6000, AccessType::kWrite).ok());
}

TEST_F(CpuTest, PksDoesNotAffectInstructionFetch) {
  Map(0x7000, 206, pte::WithPkey(pte::kPresent, 1));
  cpu_->TrustedWriteCr(4, cr::kCr4Pks);
  cpu_->TrustedWriteMsr(msr::kIa32Pkrs, pkrs::DenyAll(1));
  EXPECT_TRUE(cpu_->Translate(0x7000, AccessType::kExecute).ok());
}

TEST_F(CpuTest, Cr0WpBlocksSupervisorWriteToReadOnly) {
  Map(0x8000, 207, pte::kPresent);  // read-only supervisor
  cpu_->TrustedWriteCr(0, cr::kCr0Wp);
  EXPECT_FALSE(cpu_->Translate(0x8000, AccessType::kWrite).ok());
  cpu_->TrustedWriteCr(0, 0);
  EXPECT_TRUE(cpu_->Translate(0x8000, AccessType::kWrite).ok());
}

TEST_F(CpuTest, NxBlocksExecute) {
  Map(0x9000, 208, pte::kPresent | pte::kNoExecute);
  EXPECT_FALSE(cpu_->Translate(0x9000, AccessType::kExecute).ok());
}

TEST_F(CpuTest, ShadowStackPageRejectsStores) {
  Map(0xA000, 209, pte::kPresent | pte::kDirty);  // shadow-stack encoding
  Fault fault;
  EXPECT_FALSE(cpu_->Translate(0xA000, AccessType::kWrite, &fault).ok());
  EXPECT_TRUE(fault.error_code & pf_err::kShadowStack);
  EXPECT_TRUE(cpu_->Translate(0xA000, AccessType::kRead).ok());
}

TEST_F(CpuTest, ReadWriteVirtRoundTrip) {
  Map(0xB000, 210, pte::kPresent | pte::kWritable);
  Map(0xC000, 211, pte::kPresent | pte::kWritable);
  const Bytes data = ToBytes("crosses a page boundary maybe");
  ASSERT_TRUE(cpu_->WriteVirt(0xB800, data.data(), data.size()).ok());
  Bytes back(data.size());
  ASSERT_TRUE(cpu_->ReadVirt(0xB800, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
}

TEST_F(CpuTest, IbtBlocksNonEndbrTargets) {
  const CodeLabelId gate =
      machine_.registry().Register("gate", CodeDomain::kMonitor, /*endbr=*/true);
  const CodeLabelId internal =
      machine_.registry().Register("internal", CodeDomain::kMonitor, /*endbr=*/false);
  // IBT off: anything goes.
  EXPECT_TRUE(cpu_->IndirectBranch(internal).ok());
  // IBT on: only endbr targets.
  cpu_->TrustedWriteCr(4, cr::kCr4Cet);
  cpu_->TrustedWriteMsr(msr::kIa32SCet, msr::kCetIbtEn);
  EXPECT_TRUE(cpu_->IndirectBranch(gate).ok());
  const Status blocked = cpu_->IndirectBranch(internal);
  EXPECT_EQ(blocked.code(), ErrorCode::kPermissionDenied);
  EXPECT_NE(blocked.message().find("#CP"), std::string::npos);
}

TEST_F(CpuTest, ShadowStackDetectsReturnMismatch) {
  ShadowStack stack("test");
  ASSERT_TRUE(stack.Activate(0).ok());
  cpu_->SetShadowStack(&stack);
  cpu_->TrustedWriteCr(4, cr::kCr4Cet);
  cpu_->TrustedWriteMsr(msr::kIa32SCet, msr::kCetShstkEn);
  const CodeLabelId a = machine_.registry().Register("a", CodeDomain::kKernel, false);
  const CodeLabelId b = machine_.registry().Register("b", CodeDomain::kKernel, false);
  ASSERT_TRUE(cpu_->ShadowCall(a).ok());
  EXPECT_FALSE(cpu_->ShadowReturn(b).ok());  // #CP
  ASSERT_TRUE(cpu_->ShadowCall(a).ok());
  EXPECT_TRUE(cpu_->ShadowReturn(a).ok());
}

TEST_F(CpuTest, ShadowStackTokenExclusive) {
  ShadowStack stack("excl");
  ASSERT_TRUE(stack.Activate(0).ok());
  EXPECT_FALSE(stack.Activate(1).ok());  // busy token
  stack.Deactivate();
  EXPECT_TRUE(stack.Activate(1).ok());
}

TEST_F(CpuTest, IdtDeliveryRunsBoundHandler) {
  IdtTable idt;
  const CodeLabelId label = machine_.registry().Register("pf", CodeDomain::kKernel, true);
  idt.gate[static_cast<uint8_t>(Vector::kPageFault)] = label;
  int delivered = 0;
  cpu_->BindHandler(label, [&](Cpu&, const Fault& f) {
    ++delivered;
    EXPECT_EQ(f.address, 0x1234u);
  });
  ASSERT_TRUE(cpu_->Lidt(&idt).ok());
  Fault fault;
  fault.vector = Vector::kPageFault;
  fault.address = 0x1234;
  EXPECT_TRUE(cpu_->Deliver(fault).ok());
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(cpu_->delivered_faults(), 1u);
}

TEST_F(CpuTest, DeliveryWithoutGateFails) {
  IdtTable idt;  // empty
  ASSERT_TRUE(cpu_->Lidt(&idt).ok());
  Fault fault;
  fault.vector = Vector::kTimer;
  EXPECT_FALSE(cpu_->Deliver(fault).ok());
}

TEST(InterruptControllerTest, TimerFiresOnCycleDeadline) {
  Machine machine(MachineConfig{.memory_frames = 64, .num_cpus = 1});
  machine.interrupts().SetTimerPeriod(1000);
  Cpu& cpu = machine.cpu(0);
  EXPECT_TRUE(machine.interrupts().HasPending(cpu));  // deadline 0 already passed
  ASSERT_TRUE(machine.interrupts().TakePending(cpu).ok());
  EXPECT_FALSE(machine.interrupts().HasPending(cpu));
  cpu.cycles().Charge(1500);
  EXPECT_TRUE(machine.interrupts().HasPending(cpu));
  EXPECT_EQ(*machine.interrupts().TakePending(cpu), Vector::kTimer);
}

TEST(InterruptControllerTest, InjectedInterruptsQueue) {
  Machine machine(MachineConfig{.memory_frames = 64, .num_cpus = 2});
  machine.interrupts().Inject(1, Vector::kDevice);
  machine.interrupts().Inject(1, Vector::kIpi);
  EXPECT_FALSE(machine.interrupts().HasPending(machine.cpu(0)));
  EXPECT_EQ(*machine.interrupts().TakePending(machine.cpu(1)), Vector::kDevice);
  EXPECT_EQ(*machine.interrupts().TakePending(machine.cpu(1)), Vector::kIpi);
}

TEST(DmaTest, BlocksPrivateAllowsShared) {
  Machine machine(MachineConfig{.memory_frames = 64, .num_cpus = 1});
  uint8_t buf[16] = {0};
  // All memory starts private: DMA is blocked.
  EXPECT_EQ(machine.dma().DeviceRead(0x1000, buf, sizeof(buf)).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(machine.dma().blocked_transactions(), 1u);
}

// ---- PhysMemory 8-byte access: aligned fast path vs the byte-loop fallback ----

TEST(PhysMemoryTest, Read64Write64Aligned) {
  PhysMemory memory(4);
  memory.Write64(0x1008, 0x1122334455667788ULL);
  EXPECT_EQ(memory.Read64(0x1008), 0x1122334455667788ULL);
  uint8_t bytes[8];
  ASSERT_TRUE(memory.Read(0x1008, bytes, sizeof(bytes)).ok());
  EXPECT_EQ(bytes[0], 0x88);  // little-endian in simulated memory
  EXPECT_EQ(bytes[7], 0x11);
}

TEST(PhysMemoryTest, Read64Write64Unaligned) {
  PhysMemory memory(4);
  memory.Write64(0x1003, 0xA1B2C3D4E5F60718ULL);
  EXPECT_EQ(memory.Read64(0x1003), 0xA1B2C3D4E5F60718ULL);
  // The aligned word underneath sees the shifted bytes.
  EXPECT_EQ(memory.Read64(0x1000), 0xD4E5F60718ULL << 24);
}

TEST(PhysMemoryTest, Read64Write64StraddlingAFrame) {
  PhysMemory memory(4);
  const Paddr pa = 0x1000 + 4092;  // 4 bytes in frame 1, 4 in frame 2
  memory.Write64(pa, 0x0102030405060708ULL);
  EXPECT_EQ(memory.Read64(pa), 0x0102030405060708ULL);
  EXPECT_EQ(memory.CommittedFrames(), 2u);
  EXPECT_EQ(memory.Read64(0x2000), 0x01020304ULL);
}

TEST(PhysMemoryTest, Read64Write64LastEightBytes) {
  PhysMemory memory(4);
  const Paddr last = memory.size_bytes() - 8;
  memory.Write64(last, 0xFEEDFACECAFEBEEFULL);
  EXPECT_EQ(memory.Read64(last), 0xFEEDFACECAFEBEEFULL);
}

TEST(PhysMemoryTest, Read64Write64OutOfRangeKeepsOldBehaviour) {
  PhysMemory memory(4);
  const Paddr end = memory.size_bytes();
  memory.Write64(end, 0x1234);      // dropped
  memory.Write64(end - 4, 0x1234);  // straddles the end: dropped, not truncated
  EXPECT_EQ(memory.Read64(end), 0u);
  EXPECT_EQ(memory.Read64(end - 4), 0u);
  EXPECT_EQ(memory.Read64(end - 8), 0u);
  EXPECT_EQ(memory.Read64(~Paddr{7}), 0u);  // pa + 8 wraps
  EXPECT_EQ(memory.CommittedFrames(), 0u);
}

TEST(PhysMemoryTest, Read64OfUntouchedFrameIsZeroAndCommitsNothing) {
  PhysMemory memory(4);
  EXPECT_EQ(memory.Read64(0x3000), 0u);
  EXPECT_EQ(memory.Read64(0x3FF8), 0u);
  EXPECT_EQ(memory.Read64(0x2FFC), 0u);  // straddling two untouched frames
  EXPECT_EQ(memory.CommittedFrames(), 0u);
  EXPECT_EQ(memory.FramePtrIfPresent(3), nullptr);
}

}  // namespace
}  // namespace erebor
