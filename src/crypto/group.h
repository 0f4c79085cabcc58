// A 256-bit prime-order multiplicative group with Diffie-Hellman key agreement and
// Schnorr signatures. This stands in for the ECDSA-signed TDX quote chain and the
// TLS-style authenticated key exchange of the paper (see DESIGN.md substitutions).
#ifndef EREBOR_SRC_CRYPTO_GROUP_H_
#define EREBOR_SRC_CRYPTO_GROUP_H_

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/crypto/u256.h"

namespace erebor {

// Group parameters: p a safe prime (p = 2q + 1), g a generator of the order-q subgroup,
// with the Montgomery contexts for arithmetic mod p and mod q precomputed.
struct GroupParams {
  GroupParams(const U256& modulus, const U256& order, const U256& generator);

  U256 p;  // modulus
  U256 q;  // subgroup order
  U256 g;  // generator
  MontgomeryContext mod_p;
  MontgomeryContext mod_q;

  // The fixed simulation-wide group (a 256-bit safe prime).
  static const GroupParams& Default();
};

struct KeyPair {
  U256 private_key;  // scalar in [1, q)
  U256 public_key;   // g^private mod p
};

KeyPair GenerateKeyPair(const GroupParams& params, Rng& rng);

// Diffie-Hellman shared secret: peer_public^private mod p, serialized big-endian.
Bytes DhSharedSecret(const GroupParams& params, const U256& private_key,
                     const U256& peer_public);

// Schnorr signature (Fiat-Shamir with SHA-256 challenge).
struct Signature {
  U256 commitment;  // R = g^k mod p
  U256 response;    // s = k + e * x mod q
};

Signature SchnorrSign(const GroupParams& params, const U256& private_key,
                      const Bytes& message, Rng& rng);

bool SchnorrVerify(const GroupParams& params, const U256& public_key, const Bytes& message,
                   const Signature& sig);

}  // namespace erebor

#endif  // EREBOR_SRC_CRYPTO_GROUP_H_
