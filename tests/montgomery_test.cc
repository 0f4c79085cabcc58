// MontgomeryContext against the reference it replaced: schoolbook 256x256-bit
// products reduced by bit-serial binary long division, kept here as the oracle.
// Covers the group moduli p and q with full-range operands (including operands
// >= the modulus) and edge exponents, and random odd 64/128/256-bit moduli.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/crypto/group.h"
#include "src/crypto/u256.h"

namespace erebor {
namespace {

// ---- Reference: 512-bit product + binary long division ----

struct U512 {
  uint64_t limb[8] = {0, 0, 0, 0, 0, 0, 0, 0};

  bool Bit(int i) const { return (limb[i / 64] >> (i % 64)) & 1; }

  int BitLength() const {
    for (int i = 7; i >= 0; --i) {
      if (limb[i] != 0) {
        return 64 * i + 64 - __builtin_clzll(limb[i]);
      }
    }
    return 0;
  }
};

U512 MulFull(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const __uint128_t cur = static_cast<__uint128_t>(a.limb(i)) * b.limb(j) +
                              out.limb[i + j] + carry;
      out.limb[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out.limb[i + 4] = carry;
  }
  return out;
}

// Reduce a 512-bit value modulo a 256-bit modulus via binary long division.
U256 LongDivisionReduce(const U512& value, const U256& mod) {
  // Remainder held in 320 bits (mod < 2^256, so remainder fits in 257 bits; use 5 limbs).
  uint64_t rem[5] = {0, 0, 0, 0, 0};
  const int nbits = value.BitLength();
  for (int i = nbits - 1; i >= 0; --i) {
    // rem = (rem << 1) | bit.
    uint64_t carry = value.Bit(i) ? 1u : 0u;
    for (int l = 0; l < 5; ++l) {
      const uint64_t next_carry = rem[l] >> 63;
      rem[l] = (rem[l] << 1) | carry;
      carry = next_carry;
    }
    // If rem >= mod, subtract.
    bool ge = rem[4] != 0;
    if (!ge) {
      int cmp = 0;
      for (int l = 3; l >= 0; --l) {
        if (rem[l] != mod.limb(l)) {
          cmp = rem[l] > mod.limb(l) ? 1 : -1;
          break;
        }
      }
      ge = cmp >= 0;
    }
    if (ge) {
      uint64_t borrow = 0;
      for (int l = 0; l < 5; ++l) {
        const uint64_t m = (l < 4) ? mod.limb(l) : 0;
        const __uint128_t rhs = static_cast<__uint128_t>(m) + borrow;
        if (static_cast<__uint128_t>(rem[l]) >= rhs) {
          rem[l] = static_cast<uint64_t>(rem[l] - rhs);
          borrow = 0;
        } else {
          rem[l] =
              static_cast<uint64_t>((static_cast<__uint128_t>(1) << 64) + rem[l] - rhs);
          borrow = 1;
        }
      }
    }
  }
  return U256(rem[0], rem[1], rem[2], rem[3]);
}

U256 RefMulMod(const U256& a, const U256& b, const U256& mod) {
  return LongDivisionReduce(MulFull(a, b), mod);
}

U256 RefMod(const U256& a, const U256& mod) { return RefMulMod(a, U256(1), mod); }

U256 RefPowMod(const U256& base, const U256& exp, const U256& mod) {
  U256 result(1);
  U256 acc = RefMod(base, mod);
  for (int i = 0; i < exp.BitLength(); ++i) {
    if (exp.Bit(i)) {
      result = RefMulMod(result, acc, mod);
    }
    acc = RefMulMod(acc, acc, mod);
  }
  return result;
}

// ---- Inputs ----

constexpr U256 kMax(~0ULL, ~0ULL, ~0ULL, ~0ULL);  // 2^256 - 1

U256 RandomU256(Rng& rng) { return U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()); }

// 0, 1, m - 1, m, m + 1 (0 when m = 2^256 - 1), 2^256 - 1.
std::vector<U256> EdgeOperands(const U256& m) {
  return {U256(0), U256(1), U256::Sub(m, U256(1)), m, U256::Add(m, U256(1)), kMax};
}

// Reduce and MulMod over every edge pair and `rounds` random full-range pairs.
void ExpectMatchesReference(const MontgomeryContext& ctx, Rng& rng, int rounds) {
  const U256& m = ctx.modulus();
  std::vector<U256> operands = EdgeOperands(m);
  for (int i = 0; i < 2; ++i) {
    operands.push_back(RandomU256(rng));
  }
  for (const U256& a : operands) {
    EXPECT_EQ(ctx.Reduce(a), RefMod(a, m)) << "m=" << m.ToHex() << " a=" << a.ToHex();
    for (const U256& b : operands) {
      EXPECT_EQ(ctx.MulMod(a, b), RefMulMod(a, b, m))
          << "m=" << m.ToHex() << " a=" << a.ToHex() << " b=" << b.ToHex();
    }
  }
  for (int i = 0; i < rounds; ++i) {
    const U256 a = RandomU256(rng);
    const U256 b = RandomU256(rng);
    EXPECT_EQ(ctx.Reduce(a), RefMod(a, m)) << "m=" << m.ToHex() << " a=" << a.ToHex();
    EXPECT_EQ(ctx.MulMod(a, b), RefMulMod(a, b, m))
        << "m=" << m.ToHex() << " a=" << a.ToHex() << " b=" << b.ToHex();
  }
}

// ---- Group moduli ----

TEST(MontgomeryTest, GroupModuliMulModMatchesLongDivision) {
  const GroupParams& params = GroupParams::Default();
  Rng rng(1);
  ExpectMatchesReference(params.mod_p, rng, 200);
  ExpectMatchesReference(params.mod_q, rng, 200);
}

TEST(MontgomeryTest, GroupModuliPowModEdgeExponentsMatchLongDivision) {
  const GroupParams& params = GroupParams::Default();
  Rng rng(2);
  const std::vector<U256> exponents = {U256(0), U256(1), U256::Sub(params.q, U256(1)),
                                       params.q, kMax};
  for (const MontgomeryContext* ctx : {&params.mod_p, &params.mod_q}) {
    std::vector<U256> bases = EdgeOperands(ctx->modulus());
    bases.push_back(params.g);
    bases.push_back(RandomU256(rng));
    for (const U256& base : bases) {
      for (const U256& exp : exponents) {
        EXPECT_EQ(ctx->PowMod(base, exp), RefPowMod(base, exp, ctx->modulus()))
            << "m=" << ctx->modulus().ToHex() << " base=" << base.ToHex()
            << " exp=" << exp.ToHex();
      }
    }
  }
}

TEST(MontgomeryTest, GroupModuliPowModRandomMatchesLongDivision) {
  const GroupParams& params = GroupParams::Default();
  Rng rng(3);
  for (const MontgomeryContext* ctx : {&params.mod_p, &params.mod_q}) {
    for (int i = 0; i < 12; ++i) {
      const U256 base = RandomU256(rng);
      const U256 exp = RandomU256(rng);
      EXPECT_EQ(ctx->PowMod(base, exp), RefPowMod(base, exp, ctx->modulus()))
          << "m=" << ctx->modulus().ToHex() << " base=" << base.ToHex()
          << " exp=" << exp.ToHex();
    }
  }
}

// ---- Random odd moduli of a given width ----

class MontgomeryOddModulusTest : public testing::TestWithParam<int> {};

TEST_P(MontgomeryOddModulusTest, MatchesLongDivision) {
  const int bits = GetParam();
  Rng rng(static_cast<uint64_t>(bits));
  for (int trial = 0; trial < 8; ++trial) {
    // Exactly `bits` wide: top bit set, everything above cleared, odd.
    uint64_t limbs[4] = {rng.Next(), rng.Next(), rng.Next(), rng.Next()};
    const int top = (bits - 1) / 64;
    for (int l = top + 1; l < 4; ++l) {
      limbs[l] = 0;
    }
    const int shift = (bits - 1) % 64;
    if (shift < 63) {
      limbs[top] &= (uint64_t{1} << (shift + 1)) - 1;
    }
    limbs[top] |= uint64_t{1} << shift;
    limbs[0] |= 1;
    const U256 m(limbs[0], limbs[1], limbs[2], limbs[3]);
    ASSERT_EQ(m.BitLength(), bits);

    const MontgomeryContext ctx(m);
    ExpectMatchesReference(ctx, rng, 32);
    for (int i = 0; i < 3; ++i) {
      const U256 base = RandomU256(rng);
      const U256 exp = RandomU256(rng);
      EXPECT_EQ(ctx.PowMod(base, exp), RefPowMod(base, exp, m))
          << "m=" << m.ToHex() << " base=" << base.ToHex() << " exp=" << exp.ToHex();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MontgomeryOddModulusTest, testing::Values(64, 128, 256));

}  // namespace
}  // namespace erebor
