// Property-based tests: randomized sweeps over the security-critical parsers and
// policy engines, checking invariants rather than examples.
#include <gtest/gtest.h>

#include "src/client/client.h"
#include "src/kernel/image.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

// ---- Wire-format robustness: hostile bytes must never crash or false-accept ----

class PacketFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PacketFuzzTest, RandomBytesNeverCrashDeserializer) {
  Rng rng(GetParam());
  for (int round = 0; round < 500; ++round) {
    Bytes wire(rng.NextBelow(512));
    rng.Fill(wire.data(), wire.size());
    // Must either parse cleanly or return an error — never crash / overread.
    (void)Packet::Deserialize(wire);
    (void)ParseRecordWire(wire);
  }
}

TEST_P(PacketFuzzTest, TruncationsOfValidPacketsRejectOrParse) {
  Rng rng(GetParam());
  const SessionKeys keys = DeriveSessionKeys(Bytes(32, 0x31), Digest256{});
  Bytes plaintext(100);
  rng.Fill(plaintext.data(), plaintext.size());
  const Bytes wire =
      SealRecordWire(keys.client_to_server, PacketType::kDataRecord, 1, 7, plaintext);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(), wire.begin() + cut);
    // A record's length prefix must match its wire exactly, so no prefix parses
    // (and none can fabricate ciphertext bytes).
    EXPECT_FALSE(ParseRecordWire(truncated).ok()) << "cut " << cut;
    EXPECT_FALSE(Packet::Deserialize(truncated).ok()) << "cut " << cut;
  }
}

TEST_P(PacketFuzzTest, AllPacketTypesRoundTripAndSurviveMutation) {
  // Every packet type must (a) round-trip byte-exactly through its codec
  // (Serialize/Deserialize, or SealRecordWire/ParseRecordWire/OpenRecordWire for
  // records), and (b) parse-or-reject — never crash or overread — when truncated
  // at every byte offset or hit by random single-byte flips. A mutated record
  // must never open.
  Rng rng(GetParam() * 977 + 5);
  std::vector<Packet> packets;
  {
    Packet hello;
    hello.type = PacketType::kClientHello;
    hello.sandbox_id = 2;
    hello.client_public = GenerateKeyPair(GroupParams::Default(), rng).public_key;
    rng.Fill(hello.nonce.data(), hello.nonce.size());
    packets.push_back(hello);
  }
  {
    Packet server;
    server.type = PacketType::kServerHello;
    server.sandbox_id = 2;
    server.monitor_public = GenerateKeyPair(GroupParams::Default(), rng).public_key;
    rng.Fill(server.quote.report.measurements.mrtd.data(),
             server.quote.report.measurements.mrtd.size());
    for (auto& rtmr : server.quote.report.measurements.rtmr) {
      rng.Fill(rtmr.data(), rtmr.size());
    }
    rng.Fill(server.quote.report.report_data.data(),
             server.quote.report.report_data.size());
    rng.Fill(server.quote.report.mac.data(), server.quote.report.mac.size());
    server.quote.signature.commitment =
        GenerateKeyPair(GroupParams::Default(), rng).public_key;
    server.quote.signature.response =
        GenerateKeyPair(GroupParams::Default(), rng).public_key;
    packets.push_back(server);
  }
  {
    Packet fin;
    fin.type = PacketType::kFin;
    fin.sandbox_id = 4;
    packets.push_back(fin);
  }

  for (const Packet& packet : packets) {
    const Bytes wire = packet.Serialize();
    const auto back = Packet::Deserialize(wire);
    ASSERT_TRUE(back.ok()) << "type " << static_cast<int>(packet.type);
    EXPECT_EQ(back->Serialize(), wire) << "round trip not byte-exact";

    for (size_t cut = 0; cut < wire.size(); ++cut) {
      (void)Packet::Deserialize(Bytes(wire.begin(), wire.begin() + cut));
    }
    for (int round = 0; round < 200; ++round) {
      Bytes mutated = wire;
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1 + rng.NextBelow(255));
      (void)Packet::Deserialize(mutated);
    }
  }

  const SessionKeys keys = DeriveSessionKeys(Bytes(32, 0x32), Digest256{});
  for (const PacketType type : {PacketType::kDataRecord, PacketType::kResultRecord}) {
    const uint64_t seq = rng.Next();
    Bytes plaintext(1 + rng.NextBelow(300));
    rng.Fill(plaintext.data(), plaintext.size());
    const Bytes wire = SealRecordWire(keys.client_to_server, type, 11, seq, plaintext);
    const auto view = ParseRecordWire(wire);
    ASSERT_TRUE(view.ok()) << "type " << static_cast<int>(type);
    const auto opened = OpenRecordWire(keys.client_to_server, *view, seq);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, plaintext);
    EXPECT_EQ(SealRecordWire(keys.client_to_server, view->type, view->sandbox_id,
                             view->sequence, *opened),
              wire)
        << "round trip not byte-exact";
    EXPECT_FALSE(Packet::Deserialize(wire).ok());

    for (size_t cut = 0; cut < wire.size(); ++cut) {
      (void)ParseRecordWire(Bytes(wire.begin(), wire.begin() + cut));
    }
    for (int round = 0; round < 200; ++round) {
      Bytes mutated = wire;
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1 + rng.NextBelow(255));
      const auto mutated_view = ParseRecordWire(mutated);
      if (mutated_view.ok()) {
        EXPECT_FALSE(
            OpenRecordWire(keys.client_to_server, *mutated_view, mutated_view->sequence)
                .ok())
            << "mutated record opened";
      }
    }
  }
}

TEST_P(PacketFuzzTest, KelfFuzzNeverCrashesLoader) {
  Rng rng(GetParam() * 31 + 7);
  for (int round = 0; round < 200; ++round) {
    Bytes raw(rng.NextBelow(2048));
    rng.Fill(raw.data(), raw.size());
    if (raw.size() >= 4) {
      // Half the time, give it a valid magic so it digs deeper.
      if (rng.NextBelow(2) == 0) {
        raw[0] = 'K';
        raw[1] = 'E';
        raw[2] = 'L';
        raw[3] = 'F';
      }
    }
    (void)KernelImage::Deserialize(raw);
  }
}

TEST_P(PacketFuzzTest, BitflippedKelfNeverPassesVerifiedBootWithSensitiveOps) {
  // Take a valid *native* (sensitive-op-containing) image, flip random bits, and
  // check the scanner still finds at least the untouched sensitive encodings or the
  // deserializer rejects. The property: no mutation may yield an image that loads AND
  // contains an intact sensitive encoding.
  Rng rng(GetParam() * 101);
  KernelBuildOptions options;
  options.instrumented = false;
  const KernelImage image = BuildKernelImage(options);
  const Bytes original = image.Serialize();
  for (int round = 0; round < 100; ++round) {
    Bytes mutated = original;
    const size_t flips = 1 + rng.NextBelow(8);
    for (size_t i = 0; i < flips; ++i) {
      mutated[rng.NextBelow(mutated.size())] ^= 1 << rng.NextBelow(8);
    }
    const auto parsed = KernelImage::Deserialize(mutated);
    if (!parsed.ok()) {
      continue;
    }
    bool any_sensitive = false;
    for (const auto& section : parsed->sections) {
      if (section.executable && ScanForSensitiveBytes(section.data).found) {
        any_sensitive = true;
      }
    }
    // The native image has dozens of sensitive sites; a handful of bit flips cannot
    // scrub them all without breaking the container format.
    EXPECT_TRUE(any_sensitive);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzzTest, testing::Values(1, 2, 3, 4));

// ---- MMU policy invariants under random PTE values ----

class PolicyPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PolicyPropertyTest, AllowedLeafWritesPreserveInvariants) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  World world(config);
  ASSERT_TRUE(world.Boot().ok());
  MmuPolicy& policy = world.monitor()->policy();
  FrameTable& frames = world.monitor()->frame_table();
  const auto ptp = world.kernel().pool().Alloc();
  ASSERT_TRUE(ptp.ok());
  frames.info(*ptp).type = FrameType::kPtp;
  frames.info(*ptp).ptp_level = 1;

  Rng rng(GetParam());
  const uint64_t num_frames = world.machine().memory().num_frames();
  int allowed_count = 0;
  for (int round = 0; round < 3000; ++round) {
    // Random flags over a random frame.
    const FrameNum target = rng.NextBelow(num_frames);
    Pte value = pte::Make(target, rng.Next() & (pte::kPresent | pte::kWritable |
                                                pte::kUser | pte::kDirty |
                                                pte::kNoExecute | pte::kAccessed));
    if (rng.NextBelow(4) == 0) {
      value = pte::WithPkey(value, static_cast<uint8_t>(rng.NextBelow(16)));
    }
    const PolicyDecision decision =
        policy.CheckPteWrite(AddrOf(*ptp) + 8 * rng.NextBelow(512), value);
    if (!decision.allowed) {
      continue;
    }
    ++allowed_count;
    const Pte out = decision.adjusted_value;
    if (!pte::Present(out)) {
      continue;
    }
    const FrameInfo& info = frames.info(pte::Frame(out));
    // Invariant 1: no supervisor W+X mapping survives.
    if (!pte::User(out)) {
      EXPECT_FALSE(pte::Writable(out) && !pte::NoExecute(out)) << "W^X violated";
    }
    // Invariant 2: confined/shadow-stack frames are never kernel-mappable.
    EXPECT_NE(info.type, FrameType::kSandboxConfined);
    EXPECT_NE(info.type, FrameType::kShadowStack);
    // Invariant 3: monitor frames always carry the monitor key and stay supervisor.
    if (info.type == FrameType::kMonitor) {
      EXPECT_EQ(pte::Pkey(out), layout::kMonitorKey);
      EXPECT_FALSE(pte::User(out));
    }
    // Invariant 4: kernel text is never writable.
    if (info.type == FrameType::kKernelText) {
      EXPECT_FALSE(pte::Writable(out));
    }
    // Invariant 5: PTPs are never user-visible.
    if (info.type == FrameType::kPtp) {
      EXPECT_FALSE(pte::User(out));
      EXPECT_EQ(pte::Pkey(out), layout::kPtpKey);
    }
  }
  EXPECT_GT(allowed_count, 100) << "sweep should exercise the allow path too";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyPropertyTest, testing::Values(10, 20, 30));

// ---- Scanner completeness: ops at arbitrary positions in random safe filler ----

class ScannerPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ScannerPropertyTest, FindsOpsAtRandomOffsetsInRandomFiller) {
  Rng rng(GetParam());
  const auto& patterns = SensitivePatterns();
  for (int round = 0; round < 300; ++round) {
    // Filler from the builder's safe byte set.
    static const uint8_t kSafe[] = {0x90, 0x55, 0x53, 0x51, 0x50, 0x89,
                                    0xC3, 0x48, 0x31, 0xC0, 0x83, 0xE9};
    Bytes code(64 + rng.NextBelow(512));
    for (auto& byte : code) {
      byte = kSafe[rng.NextBelow(sizeof(kSafe))];
    }
    EXPECT_FALSE(ScanForSensitiveBytes(code).found);
    // Insert one sensitive pattern at a random offset.
    const auto& pattern = patterns[rng.NextBelow(patterns.size())];
    const size_t offset = rng.NextBelow(code.size() - pattern.bytes.size());
    std::copy(pattern.bytes.begin(), pattern.bytes.end(), code.begin() + offset);
    const ScanHit hit = ScanForSensitiveBytes(code);
    EXPECT_TRUE(hit.found);
    EXPECT_LE(hit.offset, offset);  // may match an earlier overlap, never later
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScannerPropertyTest, testing::Values(5, 6, 7, 8));

// ---- Channel session property: long record sequences with loss/replay attempts ----

TEST(ChannelPropertyTest, LongSessionsRejectEveryOutOfOrderRecord) {
  Rng rng(77);
  const Bytes secret(32, 0x3A);
  Digest256 transcript{};
  const SessionKeys keys = DeriveSessionKeys(secret, transcript);
  std::vector<Bytes> wires;
  for (uint64_t seq = 0; seq < 64; ++seq) {
    Bytes payload(rng.NextBelow(256) + 1);
    rng.Fill(payload.data(), payload.size());
    wires.push_back(
        SealRecordWire(keys.client_to_server, PacketType::kDataRecord, 1, seq, payload));
  }
  std::vector<RecordView> records;
  for (const Bytes& wire : wires) {
    auto view = ParseRecordWire(wire);
    ASSERT_TRUE(view.ok());
    records.push_back(*view);
  }
  uint64_t expected = 0;
  for (uint64_t seq = 0; seq < 64; ++seq) {
    // Every record except the expected one must be rejected at this point.
    for (uint64_t probe = 0; probe < 64; probe += 17) {
      if (probe == expected) {
        continue;
      }
      const RecordView& record = records[probe];
      EXPECT_FALSE(OpenRecordWire(keys.client_to_server, record, expected).ok());
      // Past the sequence check, the tag itself binds the sequence.
      Bytes out(record.ciphertext_len);
      EXPECT_FALSE(AeadOpenInto(keys.client_to_server, record.Aad(), expected,
                                record.ciphertext, record.ciphertext_len, record.tag,
                                out.data())
                       .ok());
    }
    EXPECT_TRUE(OpenRecordWire(keys.client_to_server, records[expected], expected).ok());
    ++expected;
  }
}

// ---- Kernel image byte-identity after load ----

TEST(LoadedKernelTest, TextBytesMatchImageInKernelTextFrames) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  World world(config);
  ASSERT_TRUE(world.Boot().ok());
  KernelBuildOptions options;
  options.instrumented = true;
  const KernelImage image = BuildKernelImage(options);
  const KernelSection* text = image.FindSection(".text");
  ASSERT_NE(text, nullptr);
  Bytes loaded(text->data.size());
  ASSERT_TRUE(world.machine()
                  .memory()
                  .Read(AddrOf(layout::kKernelTextFirstFrame), loaded.data(),
                        loaded.size())
                  .ok());
  EXPECT_EQ(loaded, text->data);
  // And the loaded region is typed kernel-text in the monitor's frame table.
  EXPECT_EQ(world.monitor()->frame_table().info(layout::kKernelTextFirstFrame).type,
            FrameType::kKernelText);
}

TEST(LoadedKernelTest, InstrumentedImageHasEmcCallSites) {
  KernelBuildOptions options;
  options.instrumented = true;
  const KernelImage image = BuildKernelImage(options);
  const KernelSection* text = image.FindSection(".text");
  ASSERT_NE(text, nullptr);
  // Count EMC call markers (E8 + "EMC" displacement).
  const Bytes marker = EncodeEmcCall();
  int sites = 0;
  for (size_t i = 0; i + marker.size() <= text->data.size(); ++i) {
    if (std::equal(marker.begin(), marker.end(), text->data.begin() + i)) {
      ++sites;
    }
  }
  // The function manifest instruments 13 sensitive sites (2+1+1+1+2+2+1+1+1+1).
  EXPECT_EQ(sites, 13);
}

}  // namespace
}  // namespace erebor
