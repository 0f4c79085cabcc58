// HMAC-SHA256 and HKDF (RFC 2104 / RFC 5869), from scratch. Used for TDREPORT MAC
// integrity, channel key derivation, and AEAD tags.
#ifndef EREBOR_SRC_CRYPTO_HMAC_H_
#define EREBOR_SRC_CRYPTO_HMAC_H_

#include <string_view>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/sha256.h"

namespace erebor {

class HmacSha256 {
 public:
  HmacSha256(const uint8_t* key, size_t key_len);
  explicit HmacSha256(const Bytes& key) : HmacSha256(key.data(), key.size()) {}

  void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
  void Update(const Bytes& data) { inner_.Update(data); }
  void Update(std::string_view s) { inner_.Update(s); }

  Digest256 Finish();

  static Digest256 Mac(const Bytes& key, const Bytes& message);

 private:
  Sha256 inner_;
  uint8_t opad_key_[64];
};

// HKDF-Extract + Expand, SHA-256 based. Expand refuses out_len above
// 255 * 32 bytes with InvalidArgument: its one-byte block counter would wrap.
Digest256 HkdfExtract(const Bytes& salt, const Bytes& ikm);
StatusOr<Bytes> HkdfExpand(const Digest256& prk, std::string_view info, size_t out_len);

}  // namespace erebor

#endif  // EREBOR_SRC_CRYPTO_HMAC_H_
