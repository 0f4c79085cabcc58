// Authenticated encryption: ChaCha20 + HMAC-SHA256 encrypt-then-MAC with the
// record header (type, sandbox id) and sequence number as associated data. This
// is the record layer of the monitor<->client secure channel (paper section 6.3):
// the header bytes an attacker can rewrite on the wire are exactly the bytes the
// MAC covers, so relabeled or re-routed records fail authentication. The MAC key
// is scheduled once per direction (AeadKeys::mac): each record's tag starts from
// copies of its keyed SHA-256 states rather than re-hashing the pad blocks.
#ifndef EREBOR_SRC_CRYPTO_AEAD_H_
#define EREBOR_SRC_CRYPTO_AEAD_H_

#include "src/common/status.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/hmac.h"

namespace erebor {

struct AeadKeys {
  AeadKeys() = default;
  AeadKeys(const ChaChaKey& cipher, const Bytes& mac_key_bytes)
      : cipher_key(cipher), mac_key(mac_key_bytes), mac(mac_key_bytes) {}

  ChaChaKey cipher_key{};
  Bytes mac_key;       // 32 bytes
  HmacSha256Key mac;   // mac_key's schedule; what every record tag starts from
};

// Derives directional AEAD keys from a DH shared secret and a transcript hash.
struct SessionKeys {
  AeadKeys client_to_server;
  AeadKeys server_to_client;
};

SessionKeys DeriveSessionKeys(const Bytes& shared_secret, const Digest256& transcript_hash);

// Associated data bound into every record tag: the wire header fields that
// routing decisions are made from. Mirrors the packet header byte-for-byte
// (type as one byte, sandbox_id little-endian 32-bit).
struct RecordAad {
  uint8_t type = 0;
  int32_t sandbox_id = -1;
};

// The record AEAD. The nonce is derived from `sequence`; the 32-byte tag is an
// HMAC over aad.type || aad.sandbox_id (LE32) || sequence (LE64) || ciphertext.
// Both calls accept `out` aliasing the input exactly (in-place); partial overlap
// is not supported.
//
// Encrypts plaintext[0..len) into out and returns the tag over the ciphertext.
Digest256 AeadSealInto(const AeadKeys& keys, const RecordAad& aad, uint64_t sequence,
                       const uint8_t* plaintext, size_t len, uint8_t* out);

// Authenticates first, then decrypts into out. kPermissionDenied on a tag
// mismatch, which covers any ciphertext, sequence or header tampering; on failure
// `out` is untouched.
Status AeadOpenInto(const AeadKeys& keys, const RecordAad& aad, uint64_t sequence,
                    const uint8_t* ciphertext, size_t len, const Digest256& tag,
                    uint8_t* out);

}  // namespace erebor

#endif  // EREBOR_SRC_CRYPTO_AEAD_H_
