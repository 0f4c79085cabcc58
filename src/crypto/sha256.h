// SHA-256, implemented from scratch (FIPS 180-4). Used for boot measurements,
// HMAC/HKDF, transcript hashing and Schnorr challenges in the attestation protocol.
// Compression runs on SHA-NI when the host has it (see ProcessBlocks); Finish
// pads the final one or two blocks at once and compresses them in one call.
#ifndef EREBOR_SRC_CRYPTO_SHA256_H_
#define EREBOR_SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "src/common/bytes.h"

namespace erebor {

using Digest256 = std::array<uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  Digest256 Finish();

  static Digest256 Hash(const uint8_t* data, size_t len);
  static Digest256 Hash(const Bytes& data) { return Hash(data.data(), data.size()); }
  static Digest256 Hash(std::string_view s) {
    return Hash(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

 private:
  // Compresses `block_count` consecutive 64-byte blocks. Dispatches to the
  // SHA-NI path when available and accel::Enabled(), else the portable one.
  void ProcessBlocks(const uint8_t* data, size_t block_count);

  uint32_t h_[8];
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

}  // namespace erebor

#endif  // EREBOR_SRC_CRYPTO_SHA256_H_
