#include <gtest/gtest.h>

#include "src/host/vmm.h"
#include "src/monitor/frame_table.h"

namespace erebor {
namespace {

class HostVmmTest : public testing::Test {
 protected:
  HostVmmTest()
      : machine_(MachineConfig{.memory_frames = 1024, .num_cpus = 1}),
        tdx_(&machine_),
        host_(&machine_, &tdx_) {
    tdx_.SetVmcallSink(&host_);
    machine_.cpu(0).SetTdcallSink(&tdx_);
  }

  Machine machine_;
  TdxModule tdx_;
  HostVmm host_;
};

TEST_F(HostVmmTest, CpuidRequestsAreCountedAndStable) {
  GhciRequest request;
  request.reason = GhciReason::kCpuid;
  request.arg0 = 1;
  const GhciResponse a = host_.HandleVmcall(request);
  const GhciResponse b = host_.HandleVmcall(request);
  EXPECT_EQ(a.ret0, b.ret0);
  EXPECT_EQ(host_.cpuid_requests(), 2u);
}

TEST_F(HostVmmTest, MmioReadsReturnZeroForUnmappedDevices) {
  GhciRequest request;
  request.reason = GhciReason::kMmioRead;
  request.arg0 = 0xFEC00000;
  EXPECT_EQ(host_.HandleVmcall(request).ret0, 0u);
}

TEST_F(HostVmmTest, NetworkQueuesAreFifo) {
  host_.network().WorldTransmit(ToBytes("first"));
  host_.network().WorldTransmit(ToBytes("second"));
  EXPECT_TRUE(host_.network().HasForGuest());
  EXPECT_EQ(*host_.network().GuestReceive(), ToBytes("first"));
  EXPECT_EQ(*host_.network().GuestReceive(), ToBytes("second"));
  EXPECT_FALSE(host_.network().GuestReceive().ok());
}

TEST_F(HostVmmTest, HostCanSniffAllTraffic) {
  // The transport is untrusted by construction: everything the guest transmits is
  // visible to the host (which is why the channel encrypts above it).
  host_.network().GuestTransmit(ToBytes("visible to host"));
  ASSERT_EQ(host_.network().SniffToWorld().size(), 1u);
  EXPECT_EQ(host_.network().SniffToWorld().front(), ToBytes("visible to host"));
}

TEST_F(HostVmmTest, DeviceInterruptInjectionQueues) {
  host_.InjectDeviceInterrupt(0);
  EXPECT_TRUE(machine_.interrupts().HasPending(machine_.cpu(0)));
  EXPECT_EQ(*machine_.interrupts().TakePending(machine_.cpu(0)), Vector::kDevice);
}

TEST(FrameTableTest, RangeTypingAndCounting) {
  FrameTable table(256);
  ASSERT_TRUE(table.SetRange(10, 20, FrameType::kMonitor).ok());
  ASSERT_TRUE(table.SetType(50, FrameType::kPtp).ok());
  EXPECT_EQ(table.CountType(FrameType::kMonitor), 20u);
  EXPECT_EQ(table.CountType(FrameType::kPtp), 1u);
  EXPECT_EQ(table.info(15).type, FrameType::kMonitor);
  EXPECT_FALSE(table.SetRange(250, 20, FrameType::kPtp).ok());
  EXPECT_FALSE(table.SetType(999, FrameType::kPtp).ok());
}

TEST(FrameTableTest, NamesAreStable) {
  EXPECT_EQ(FrameTypeName(FrameType::kSandboxConfined), "sandbox-confined");
  EXPECT_EQ(FrameTypeName(FrameType::kKernelText), "kernel-text");
}

// Randomized Schnorr property sweep: verify never accepts mutated inputs.
class SchnorrPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SchnorrPropertyTest, SignVerifyAndRejectSweep) {
  Rng rng(GetParam());
  const GroupParams& params = GroupParams::Default();
  for (int round = 0; round < 8; ++round) {
    const KeyPair key = GenerateKeyPair(params, rng);
    Bytes message(1 + rng.NextBelow(200));
    rng.Fill(message.data(), message.size());
    const Signature sig = SchnorrSign(params, key.private_key, message, rng);
    ASSERT_TRUE(SchnorrVerify(params, key.public_key, message, sig));
    // Any single-byte mutation of the message must fail verification.
    Bytes mutated = message;
    mutated[rng.NextBelow(mutated.size())] ^= 1 + rng.NextBelow(255);
    EXPECT_FALSE(SchnorrVerify(params, key.public_key, mutated, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchnorrPropertyTest, testing::Values(11, 22, 33));

TEST(U256CrossCheckTest, PowModMatchesReferenceVector) {
  // Computed offline with python3's built-in pow: pow(0xabcdef123456789, 0x1234567, p)
  // for the simulation group modulus p.
  const GroupParams& g = GroupParams::Default();
  EXPECT_EQ(g.mod_p.PowMod(U256(0xabcdef123456789ull), U256(0x1234567)),
            U256::FromHex("72cc6cc27d5f50703a6197141655d4872153fa561bda16d8160772e78cfc27d"));
}

}  // namespace
}  // namespace erebor
