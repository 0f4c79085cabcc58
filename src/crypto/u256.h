// Fixed-width 256-bit unsigned integer with modular arithmetic, from scratch.
// Backs the Diffie-Hellman key exchange and Schnorr quote signatures used by the
// simulated attestation stack. Not constant-time and not production-grade parameters;
// this is a protocol-faithful simulation substrate (see DESIGN.md).
#ifndef EREBOR_SRC_CRYPTO_U256_H_
#define EREBOR_SRC_CRYPTO_U256_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/bytes.h"

namespace erebor {

class U256 {
 public:
  // Little-endian limbs: limb_[0] is least significant.
  constexpr U256() : limb_{0, 0, 0, 0} {}
  constexpr explicit U256(uint64_t v) : limb_{v, 0, 0, 0} {}
  constexpr U256(uint64_t l0, uint64_t l1, uint64_t l2, uint64_t l3) : limb_{l0, l1, l2, l3} {}

  static U256 FromBytesBe(const uint8_t* data, size_t len);  // len <= 32
  static U256 FromHex(const std::string& hex);

  Bytes ToBytesBe() const;  // 32 bytes, big-endian
  std::string ToHex() const;

  bool IsZero() const { return (limb_[0] | limb_[1] | limb_[2] | limb_[3]) == 0; }
  bool Bit(int i) const { return (limb_[i / 64] >> (i % 64)) & 1; }
  int BitLength() const;

  uint64_t limb(int i) const { return limb_[i]; }

  // Comparison.
  int Compare(const U256& other) const;
  bool operator==(const U256& o) const { return Compare(o) == 0; }
  bool operator!=(const U256& o) const { return Compare(o) != 0; }
  bool operator<(const U256& o) const { return Compare(o) < 0; }
  bool operator>=(const U256& o) const { return Compare(o) >= 0; }

  // Plain arithmetic (wrapping); carry/borrow returned where useful.
  static U256 Add(const U256& a, const U256& b, uint64_t* carry_out = nullptr);
  static U256 Sub(const U256& a, const U256& b, uint64_t* borrow_out = nullptr);

  // Modular addition/subtraction; both operands must already be < mod.
  static U256 AddMod(const U256& a, const U256& b, const U256& mod);
  static U256 SubMod(const U256& a, const U256& b, const U256& mod);

 private:
  std::array<uint64_t, 4> limb_;
};

// Multiplicative arithmetic modulo one fixed odd modulus m > 1, by 4-limb
// Montgomery (CIOS) multiplication with R = 2^256. -m^-1 mod 2^64, R mod m and
// R^2 mod m are computed once, at construction. Operands may be any 256-bit
// value, including values >= m; every result is fully reduced (< m).
class MontgomeryContext {
 public:
  explicit MontgomeryContext(const U256& modulus);  // modulus odd and > 1

  const U256& modulus() const { return m_; }

  U256 Reduce(const U256& a) const;                      // a mod m
  U256 MulMod(const U256& a, const U256& b) const;       // a * b mod m
  U256 PowMod(const U256& base, const U256& exp) const;  // base^exp mod m

 private:
  // Montgomery product a * b * R^-1 mod m; requires a * b < R * m.
  U256 Mul(const U256& a, const U256& b) const;

  U256 m_;
  uint64_t neg_inv_;  // -m^-1 mod 2^64
  U256 r_;            // R mod m: 1 in Montgomery form
  U256 r2_;           // R^2 mod m: multiplying by it enters Montgomery form
};

}  // namespace erebor

#endif  // EREBOR_SRC_CRYPTO_U256_H_
