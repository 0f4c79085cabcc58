#include "src/crypto/hmac.h"

#include <cstring>

namespace erebor {

HmacSha256::HmacSha256(const uint8_t* key, size_t key_len) {
  uint8_t block_key[64];
  std::memset(block_key, 0, sizeof(block_key));
  if (key_len > 64) {
    const Digest256 digest = Sha256::Hash(key, key_len);
    std::memcpy(block_key, digest.data(), digest.size());
  } else {
    std::memcpy(block_key, key, key_len);
  }

  uint8_t ipad_key[64];
  for (int i = 0; i < 64; ++i) {
    ipad_key[i] = block_key[i] ^ 0x36;
    opad_key_[i] = block_key[i] ^ 0x5c;
  }
  inner_.Update(ipad_key, sizeof(ipad_key));
  SecureZero(block_key, sizeof(block_key));
  SecureZero(ipad_key, sizeof(ipad_key));
}

Digest256 HmacSha256::Finish() {
  const Digest256 inner_digest = inner_.Finish();
  Sha256 outer;
  outer.Update(opad_key_, sizeof(opad_key_));
  outer.Update(inner_digest.data(), inner_digest.size());
  SecureZero(opad_key_, sizeof(opad_key_));
  return outer.Finish();
}

Digest256 HmacSha256::Mac(const Bytes& key, const Bytes& message) {
  HmacSha256 mac(key);
  mac.Update(message);
  return mac.Finish();
}

Digest256 HkdfExtract(const Bytes& salt, const Bytes& ikm) {
  HmacSha256 mac(salt);
  mac.Update(ikm);
  return mac.Finish();
}

StatusOr<Bytes> HkdfExpand(const Digest256& prk, std::string_view info, size_t out_len) {
  // RFC 5869 section 2.3: L <= 255 * HashLen.
  if (out_len > 255 * sizeof(Digest256)) {
    return InvalidArgumentError("HKDF-Expand output longer than 255 hash blocks");
  }
  Bytes out;
  out.reserve(out_len);
  Bytes prk_bytes(prk.begin(), prk.end());
  Digest256 t{};
  size_t t_len = 0;
  uint8_t counter = 1;
  while (out.size() < out_len) {
    HmacSha256 mac(prk_bytes);
    mac.Update(t.data(), t_len);
    mac.Update(info);
    mac.Update(&counter, 1);
    t = mac.Finish();
    t_len = t.size();
    const size_t take = std::min(out_len - out.size(), t.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
    ++counter;
  }
  return out;
}

}  // namespace erebor
