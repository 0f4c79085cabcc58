#include "src/crypto/aead.h"

#include <cstring>

namespace erebor {

namespace {

ChaChaNonce NonceFromSequence(uint64_t sequence) {
  ChaChaNonce nonce{};
  StoreLe64(nonce.data() + 4, sequence);
  return nonce;
}

AeadKeys KeysFromMaterial(const Bytes& material) {
  AeadKeys keys;
  std::memcpy(keys.cipher_key.data(), material.data(), 32);
  keys.mac_key.assign(material.begin() + 32, material.begin() + 64);
  return keys;
}

// MAC input is aad.type || aad.sandbox_id (LE32) || sequence (LE64) || ciphertext.
Digest256 ComputeTag(const AeadKeys& keys, const RecordAad& aad, uint64_t sequence,
                     const uint8_t* ciphertext, size_t len) {
  HmacSha256 mac(keys.mac_key);
  // Header-as-AAD: the routing fields precede the sequence so the MAC covers the
  // exact bytes an attacker can rewrite on the wire.
  uint8_t header[1 + 4 + 8];
  header[0] = aad.type;
  StoreLe32(header + 1, static_cast<uint32_t>(aad.sandbox_id));
  StoreLe64(header + 5, sequence);
  mac.Update(header, sizeof(header));
  mac.Update(ciphertext, len);
  return mac.Finish();
}

}  // namespace

SessionKeys DeriveSessionKeys(const Bytes& shared_secret, const Digest256& transcript_hash) {
  const Bytes salt(transcript_hash.begin(), transcript_hash.end());
  const Digest256 prk = HkdfExtract(salt, shared_secret);
  // 64 bytes is two hash blocks, far inside HKDF-Expand's bound: cannot fail.
  const Bytes c2s = *HkdfExpand(prk, "erebor channel c2s", 64);
  const Bytes s2c = *HkdfExpand(prk, "erebor channel s2c", 64);
  SessionKeys keys;
  keys.client_to_server = KeysFromMaterial(c2s);
  keys.server_to_client = KeysFromMaterial(s2c);
  return keys;
}

Digest256 AeadSealInto(const AeadKeys& keys, const RecordAad& aad, uint64_t sequence,
                       const uint8_t* plaintext, size_t len, uint8_t* out) {
  ChaCha20XorTo(keys.cipher_key, NonceFromSequence(sequence), 1, plaintext, out, len);
  return ComputeTag(keys, aad, sequence, out, len);
}

Status AeadOpenInto(const AeadKeys& keys, const RecordAad& aad, uint64_t sequence,
                    const uint8_t* ciphertext, size_t len, const Digest256& tag,
                    uint8_t* out) {
  const Digest256 expected_tag = ComputeTag(keys, aad, sequence, ciphertext, len);
  if (!ConstantTimeEqual(expected_tag.data(), tag.data(), expected_tag.size())) {
    return PermissionDeniedError("AEAD tag verification failed");
  }
  ChaCha20XorTo(keys.cipher_key, NonceFromSequence(sequence), 1, ciphertext, out, len);
  return OkStatus();
}

}  // namespace erebor
