#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "src/common/backoff.h"
#include "src/common/bytes.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/sha256.h"

namespace erebor {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = PermissionDeniedError("no entry");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(s.message(), "no entry");
  EXPECT_EQ(s.ToString(), "PERMISSION_DENIED: no entry");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), ErrorCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(ResourceExhaustedError("x").code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(UnimplementedError("x").code(), ErrorCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), ErrorCode::kInternal);
  EXPECT_EQ(UnavailableError("x").code(), ErrorCode::kUnavailable);
  EXPECT_EQ(AbortedError("x").code(), ErrorCode::kAborted);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Status UseHalf(int x, int* out) {
  EREBOR_ASSIGN_OR_RETURN(*out, Half(x));
  return OkStatus();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(7, &out).code(), ErrorCode::kInvalidArgument);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

class RngBoundTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RngBoundTest, NextBelowStaysInBounds) {
  Rng rng(GetParam());
  for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST_P(RngBoundTest, ZipfStaysInBounds) {
  Rng rng(GetParam());
  for (uint64_t n : {2ull, 16ull, 1000ull, 1000000ull}) {
    for (double s : {0.5, 0.8, 1.0, 1.2}) {
      for (int i = 0; i < 100; ++i) {
        EXPECT_LT(rng.NextZipf(n, s), n);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngBoundTest, testing::Values(1, 42, 999, 123456789));

TEST(RngTest, ZipfIsSkewed) {
  // Low ranks must be much more frequent than high ranks.
  Rng rng(7);
  uint64_t low = 0, high = 0;
  const uint64_t n = 10000;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t r = rng.NextZipf(n, 1.0);
    if (r < n / 100) {
      ++low;
    }
    if (r >= n / 2) {
      ++high;
    }
  }
  EXPECT_GT(low, high * 2);
}

TEST(RngTest, FillCoversBuffer) {
  Rng rng(5);
  uint8_t buf[37];
  std::memset(buf, 0, sizeof(buf));
  rng.Fill(buf, sizeof(buf));
  int nonzero = 0;
  for (uint8_t b : buf) {
    nonzero += b != 0;
  }
  EXPECT_GT(nonzero, 20);
}

// The byte stream Fill produces is part of every workload's synthetic input, so
// it is pinned: each draw lands little-endian, and a partial tail consumes a
// whole draw.
TEST(RngTest, FillByteStreamIsPinned) {
  Rng rng(0x5EED);
  const std::pair<size_t, const char*> expected[] = {
      {0, ""},
      {1, "74"},
      {7, "1b05b52f1191f5"},
      {8, "3a8614026405abd8"},
      {9, "037b89fbf2e185f908"},
      {48,
       "9eff46073a8ef286ac8c28be1dcb1a4e165715a325fd136cfc0c13a4bb9683c6"
       "1a72675eb1adc9bb06917058beaebc2c"},
      {61,
       "38282e14e9dbaeac0c1b002c2aea758a0109ae5039d55d4f52bcb3a57088d19b"
       "75574909e9134c3f65bd36fae87a6d8f7f9c5034a6c348835c52a9c10f"},
  };
  for (const auto& [len, hex] : expected) {
    uint8_t buf[64] = {};
    rng.Fill(buf, len);
    EXPECT_EQ(HexEncode(buf, len), hex) << "len " << len;
  }
}

// Known answers from an independent xoshiro256** model (python3): every length
// 0..17 in sequence (whole draws, the 8-byte boundary, and tails of every size),
// then a 4096-byte run (pinned by its SHA-256 and its end bytes), then one Next()
// that must continue the stream exactly where Fill left it.
TEST(RngTest, FillKnownAnswersAndStreamContinuation) {
  Rng rng(0xF111);
  const char* const expected[] = {
      "",
      "ed",
      "bb27",
      "2b491c",
      "0e230563",
      "dbdcac2f56",
      "5b847b2f2557",
      "bdcb2e3a865bfa",
      "df2458932f6b61f9",
      "658c527a03d73e8a7c",
      "092305a21e77ecc54976",
      "0337e12a4dd50f3fdb440a",
      "022cddd4aa304842b949da3d",
      "a96e9e84477238271a2a12aac6",
      "9f3722b76e0236ffcba8337a3fc6",
      "ebcb7beeb84834b09b6ec5eff075db",
      "e318efe677630eaa932e9600f1b2ba68",
      "bea35468022cafb5d19b77d52e827c1a27",
  };
  for (size_t len = 0; len < std::size(expected); ++len) {
    uint8_t buf[17] = {};
    rng.Fill(buf, len);
    EXPECT_EQ(HexEncode(buf, len), expected[len]) << "len " << len;
  }
  Bytes page(4096);
  rng.Fill(page.data(), page.size());
  EXPECT_EQ(HexEncode(page.data(), 16), "f5d4d1f01f10eb43a1a975103ca12faa");
  EXPECT_EQ(HexEncode(page.data() + 4080, 16), "841d4f3bd48210ad230206e4f062ea46");
  EXPECT_EQ(HexEncode(Sha256::Hash(page).data(), 32),
            "5df4c815d8a2cbd6a867e9f352997b8ded434c24d9cf61226b38da53ad3cc435");
  EXPECT_EQ(rng.Next(), 0x5a062c22cdad5c4bULL);
}

TEST(GraphGenTest, PowerLawGraphShape) {
  const EdgeList g = GeneratePowerLawGraph(1000, 5000, 3);
  EXPECT_EQ(g.num_nodes, 1000u);
  EXPECT_EQ(g.edges.size(), 5000u);
  std::vector<int> in_degree(1000, 0);
  for (const auto& [src, dst] : g.edges) {
    EXPECT_LT(src, 1000u);
    EXPECT_LT(dst, 1000u);
    ++in_degree[dst];
  }
  // Hubs exist: max in-degree far above average (5).
  EXPECT_GT(*std::max_element(in_degree.begin(), in_degree.end()), 50);
}

TEST(BytesTest, HexEncode) {
  const Bytes b = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(HexEncode(b), "0001abff");
}

TEST(BytesTest, LittleEndianRoundTrip) {
  uint8_t buf[8];
  StoreLe64(buf, 0x1122334455667788ULL);
  EXPECT_EQ(LoadLe64(buf), 0x1122334455667788ULL);
  StoreLe32(buf, 0xDEADBEEF);
  EXPECT_EQ(LoadLe32(buf), 0xDEADBEEFu);
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
}

TEST(BytesTest, SecureZero) {
  Bytes b = {9, 9, 9, 9};
  SecureZero(b);
  for (uint8_t v : b) {
    EXPECT_EQ(v, 0);
  }
}

// ---- Jittered exponential backoff (src/common/backoff.h) ----

TEST(BackoffTest, ZeroJitterReproducesLegacyFixedDoubling) {
  // jitter_pct=0 must be bit-compatible with the old EagainBackoff sequence
  // (base << attempt, capped) — the fig9 golden cycle counts depend on it.
  BackoffPolicy policy;
  policy.base_wait = 1'000;
  policy.max_wait = 64'000;
  policy.jitter_pct = 0;
  for (uint64_t seed : {0ull, 7ull, 123456789ull}) {
    uint64_t expected = policy.base_wait;
    for (uint64_t attempt = 0; attempt < 20; ++attempt) {
      EXPECT_EQ(JitteredBackoffWait(policy, seed, attempt),
                std::min(expected, policy.max_wait))
          << "seed " << seed << " attempt " << attempt;
      if (expected < policy.max_wait) {
        expected *= 2;
      }
    }
  }
}

TEST(BackoffTest, JitterStaysWithinTheConfiguredBandAndBelowTheCeiling) {
  BackoffPolicy policy;
  policy.base_wait = 1'000;
  policy.max_wait = 64'000;
  policy.jitter_pct = 50;
  for (uint64_t attempt = 0; attempt < 24; ++attempt) {
    const uint64_t ceiling =
        std::min(policy.base_wait << std::min<uint64_t>(attempt, 10), policy.max_wait);
    const uint64_t wait = JitteredBackoffWait(policy, /*seed=*/99, attempt);
    EXPECT_LE(wait, ceiling) << attempt;
    EXPECT_GE(wait, ceiling - ceiling / 2) << attempt;  // 50% band
  }
  // Never exceeds max_wait even at absurd attempt counts (shift overflow).
  EXPECT_LE(JitteredBackoffWait(policy, 1, 63), policy.max_wait);
  EXPECT_LE(JitteredBackoffWait(policy, 1, 1'000'000), policy.max_wait);
}

TEST(BackoffTest, DifferentSeedsDesynchronize) {
  // The point of the jitter: a fleet of clients that time out together must not
  // retransmit in lockstep. Two seeds must diverge somewhere in the schedule,
  // while each seed's own schedule stays deterministic.
  BackoffPolicy policy;
  policy.jitter_pct = 50;
  bool diverged = false;
  for (uint64_t attempt = 0; attempt < 16; ++attempt) {
    const uint64_t a = JitteredBackoffWait(policy, /*seed=*/1, attempt);
    const uint64_t b = JitteredBackoffWait(policy, /*seed=*/2, attempt);
    EXPECT_EQ(a, JitteredBackoffWait(policy, 1, attempt));  // deterministic
    diverged |= a != b;
  }
  EXPECT_TRUE(diverged);
}

TEST(BackoffTest, BudgetExhaustsAfterMaxAttemptsAndResets) {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  JitteredBackoff backoff(policy, /*seed=*/5);
  uint64_t wait = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(backoff.NextWait(&wait)) << i;
    EXPECT_GT(wait, 0u);
  }
  EXPECT_FALSE(backoff.NextWait(&wait));
  EXPECT_TRUE(backoff.exhausted());
  backoff.Reset();
  EXPECT_FALSE(backoff.exhausted());
  EXPECT_TRUE(backoff.NextWait(&wait));
}

// ---- Fixed-bucket latency histogram (src/common/metrics.h) ----

TEST(LatencyHistogramTest, PercentilesReportBucketUpperEdges) {
  LatencyHistogram hist(/*bucket_width=*/100, /*num_buckets=*/64);
  for (uint64_t v = 0; v < 100; ++v) {
    hist.Observe(v * 10);  // 0..990: buckets 0..9, 10 observations each
  }
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.Percentile(0.50), 500u);   // 50th obs lands in bucket [400,500)
  EXPECT_EQ(hist.Percentile(0.99), 1000u);  // 99th in [900,1000)
  EXPECT_EQ(hist.Percentile(1.0), 1000u);
  EXPECT_EQ(hist.max(), 990u);
}

TEST(LatencyHistogramTest, OverflowBucketReportsObservedMax) {
  LatencyHistogram hist(/*bucket_width=*/10, /*num_buckets=*/4);
  hist.Observe(5);
  hist.Observe(1'000'000);  // far past the last bucket
  EXPECT_EQ(hist.Percentile(0.25), 10u);
  EXPECT_EQ(hist.Percentile(1.0), 1'000'000u);  // overflow -> max, not an edge
}

TEST(LatencyHistogramTest, EmptyAndResetAreZero) {
  LatencyHistogram hist(100, 8);
  EXPECT_EQ(hist.Percentile(0.99), 0u);
  hist.Observe(250);
  EXPECT_GT(hist.count(), 0u);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.Percentile(0.5), 0u);
  EXPECT_EQ(hist.max(), 0u);
}

TEST(LatencyHistogramTest, RegistryCreatesOnFirstUseWithStableShape) {
  MetricsRegistry registry;
  LatencyHistogram* a = registry.GetLatencyHistogram("t", 100, 16);
  LatencyHistogram* b = registry.GetLatencyHistogram("t", 999, 2);  // ignored
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->bucket_width(), 100u);
}

}  // namespace
}  // namespace erebor
