#include "src/crypto/u256.h"

#include <cassert>

namespace erebor {

namespace {

// -m^-1 mod 2^64 for odd m. Newton's step x <- x * (2 - m * x) doubles the
// number of correct low bits; x = m is already correct to 3 (m * m == 1 mod 8).
uint64_t NegInverse64(uint64_t m) {
  uint64_t inv = m;
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - m * inv;
  }
  return 0 - inv;
}

}  // namespace

U256 U256::FromBytesBe(const uint8_t* data, size_t len) {
  U256 out;
  if (len > 32) {
    len = 32;
  }
  for (size_t i = 0; i < len; ++i) {
    const size_t bit_index = (len - 1 - i) * 8;
    out.limb_[bit_index / 64] |= static_cast<uint64_t>(data[i]) << (bit_index % 64);
  }
  return out;
}

U256 U256::FromHex(const std::string& hex) {
  U256 out;
  for (char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A' + 10);
    } else {
      continue;
    }
    // out = out * 16 + digit.
    uint64_t carry = digit;
    for (int l = 0; l < 4; ++l) {
      const __uint128_t cur = (static_cast<__uint128_t>(out.limb_[l]) << 4) | carry;
      out.limb_[l] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
  }
  return out;
}

Bytes U256::ToBytesBe() const {
  Bytes out(32);
  for (int i = 0; i < 32; ++i) {
    const int bit_index = (31 - i) * 8;
    out[i] = static_cast<uint8_t>(limb_[bit_index / 64] >> (bit_index % 64));
  }
  return out;
}

std::string U256::ToHex() const { return HexEncode(ToBytesBe()); }

int U256::BitLength() const {
  for (int i = 3; i >= 0; --i) {
    if (limb_[i] != 0) {
      return 64 * i + 64 - __builtin_clzll(limb_[i]);
    }
  }
  return 0;
}

int U256::Compare(const U256& other) const {
  for (int i = 3; i >= 0; --i) {
    if (limb_[i] != other.limb_[i]) {
      return limb_[i] > other.limb_[i] ? 1 : -1;
    }
  }
  return 0;
}

U256 U256::Add(const U256& a, const U256& b, uint64_t* carry_out) {
  U256 out;
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    const __uint128_t cur = static_cast<__uint128_t>(a.limb_[i]) + b.limb_[i] + carry;
    out.limb_[i] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
  if (carry_out != nullptr) {
    *carry_out = carry;
  }
  return out;
}

U256 U256::Sub(const U256& a, const U256& b, uint64_t* borrow_out) {
  U256 out;
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const __uint128_t rhs = static_cast<__uint128_t>(b.limb_[i]) + borrow;
    if (static_cast<__uint128_t>(a.limb_[i]) >= rhs) {
      out.limb_[i] = static_cast<uint64_t>(a.limb_[i] - rhs);
      borrow = 0;
    } else {
      out.limb_[i] =
          static_cast<uint64_t>((static_cast<__uint128_t>(1) << 64) + a.limb_[i] - rhs);
      borrow = 1;
    }
  }
  if (borrow_out != nullptr) {
    *borrow_out = borrow;
  }
  return out;
}

U256 U256::AddMod(const U256& a, const U256& b, const U256& mod) {
  uint64_t carry = 0;
  U256 sum = Add(a, b, &carry);
  if (carry != 0 || sum.Compare(mod) >= 0) {
    sum = Sub(sum, mod);
  }
  return sum;
}

U256 U256::SubMod(const U256& a, const U256& b, const U256& mod) {
  if (a.Compare(b) >= 0) {
    return Sub(a, b);
  }
  return Sub(Add(a, mod), b);
}

MontgomeryContext::MontgomeryContext(const U256& modulus)
    : m_(modulus), neg_inv_(NegInverse64(modulus.limb(0))) {
  assert(modulus.Bit(0) && modulus.BitLength() > 1);
  // R mod m and R^2 mod m: double 1 modulo m, 256 and 512 times.
  U256 x(1);
  for (int i = 1; i <= 512; ++i) {
    uint64_t carry = 0;
    x = U256::Add(x, x, &carry);
    if (carry != 0 || x >= m_) {
      x = U256::Sub(x, m_);
    }
    if (i == 256) {
      r_ = x;
    }
  }
  r2_ = x;
}

U256 MontgomeryContext::Mul(const U256& a, const U256& b) const {
  // CIOS: per limb of b, t += a * b[i], then t = (t + u * m) / 2^64 with u
  // chosen so the low limb cancels. a * b < R * m keeps the result t < 2m,
  // which needs one limb above the four (t[4]); t[5] takes its carry.
  uint64_t t[6] = {0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const __uint128_t cur =
          static_cast<__uint128_t>(a.limb(j)) * b.limb(i) + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    __uint128_t cur = static_cast<__uint128_t>(t[4]) + carry;
    t[4] = static_cast<uint64_t>(cur);
    t[5] = static_cast<uint64_t>(cur >> 64);

    const uint64_t u = t[0] * neg_inv_;
    cur = static_cast<__uint128_t>(u) * m_.limb(0) + t[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (int j = 1; j < 4; ++j) {
      cur = static_cast<__uint128_t>(u) * m_.limb(j) + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    cur = static_cast<__uint128_t>(t[4]) + carry;
    t[3] = static_cast<uint64_t>(cur);
    t[4] = t[5] + static_cast<uint64_t>(cur >> 64);
  }
  U256 out(t[0], t[1], t[2], t[3]);
  if (t[4] != 0 || out >= m_) {
    out = U256::Sub(out, m_);
  }
  return out;
}

// Any a < R times r2_ < m meets Mul's bound, so every operand first enters
// Montgomery form that way; multiplying by 1 leaves it.
U256 MontgomeryContext::Reduce(const U256& a) const { return Mul(Mul(a, r2_), U256(1)); }

U256 MontgomeryContext::MulMod(const U256& a, const U256& b) const {
  return Mul(Mul(a, r2_), b);
}

U256 MontgomeryContext::PowMod(const U256& base, const U256& exp) const {
  const U256 x = Mul(base, r2_);
  U256 acc = r_;
  for (int i = exp.BitLength() - 1; i >= 0; --i) {
    acc = Mul(acc, acc);
    if (exp.Bit(i)) {
      acc = Mul(acc, x);
    }
  }
  return Mul(acc, U256(1));
}

}  // namespace erebor
