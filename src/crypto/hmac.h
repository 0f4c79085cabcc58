// HMAC-SHA256 and HKDF (RFC 2104 / RFC 5869), from scratch. Used for TDREPORT MAC
// integrity, channel key derivation, and AEAD tags. A key that MACs many messages
// is scheduled once into an HmacSha256Key (the AEAD holds one per direction);
// every HmacSha256 then starts from copies of its two keyed SHA-256 states.
#ifndef EREBOR_SRC_CRYPTO_HMAC_H_
#define EREBOR_SRC_CRYPTO_HMAC_H_

#include <string_view>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/sha256.h"

namespace erebor {

// An HMAC-SHA256 key schedule: the SHA-256 states after absorbing the ipad and
// the opad key block. Building one costs two compressions (plus a hash of keys
// longer than 64 bytes); an HmacSha256 started from it only copies the states.
class HmacSha256Key {
 public:
  HmacSha256Key() = default;
  HmacSha256Key(const uint8_t* key, size_t key_len);
  explicit HmacSha256Key(const Bytes& key) : HmacSha256Key(key.data(), key.size()) {}

 private:
  friend class HmacSha256;
  Sha256 inner_;
  Sha256 outer_;
};

class HmacSha256 {
 public:
  explicit HmacSha256(const HmacSha256Key& key) : inner_(key.inner_), outer_(key.outer_) {}
  HmacSha256(const uint8_t* key, size_t key_len) : HmacSha256(HmacSha256Key(key, key_len)) {}
  explicit HmacSha256(const Bytes& key) : HmacSha256(key.data(), key.size()) {}

  void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
  void Update(const Bytes& data) { inner_.Update(data); }
  void Update(std::string_view s) { inner_.Update(s); }

  Digest256 Finish();

  static Digest256 Mac(const Bytes& key, const Bytes& message);

 private:
  Sha256 inner_;
  Sha256 outer_;
};

// HKDF-Extract + Expand, SHA-256 based. Expand refuses out_len above
// 255 * 32 bytes with InvalidArgument: its one-byte block counter would wrap.
Digest256 HkdfExtract(const Bytes& salt, const Bytes& ikm);
StatusOr<Bytes> HkdfExpand(const Digest256& prk, std::string_view info, size_t out_len);

}  // namespace erebor

#endif  // EREBOR_SRC_CRYPTO_HMAC_H_
