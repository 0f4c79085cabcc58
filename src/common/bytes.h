// Small byte-buffer helpers shared across modules.
#ifndef EREBOR_SRC_COMMON_BYTES_H_
#define EREBOR_SRC_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace erebor {

using Bytes = std::vector<uint8_t>;

inline Bytes ToBytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

inline std::string ToString(const Bytes& b) { return std::string(b.begin(), b.end()); }

std::string HexEncode(const uint8_t* data, size_t len);
inline std::string HexEncode(const Bytes& b) { return HexEncode(b.data(), b.size()); }

// Little-endian scalar store/load helpers: one unaligned move each (GCC does not
// merge a portable byte loop at -O2), so the host must be little-endian.
static_assert(std::endian::native == std::endian::little, "little-endian host required");

inline void StoreLe64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreLe32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Constant-time comparison (crypto paths must not early-exit on mismatch).
bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t len);
inline bool ConstantTimeEqual(const Bytes& a, const Bytes& b) {
  return a.size() == b.size() && ConstantTimeEqual(a.data(), b.data(), a.size());
}

// Securely zero a buffer (not optimized away).
void SecureZero(uint8_t* data, size_t len);
inline void SecureZero(Bytes& b) { SecureZero(b.data(), b.size()); }

}  // namespace erebor

#endif  // EREBOR_SRC_COMMON_BYTES_H_
