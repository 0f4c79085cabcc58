#include "src/crypto/group.h"

namespace erebor {

namespace {

// Challenge e = H(R || public || message) interpreted mod q.
U256 Challenge(const GroupParams& params, const U256& commitment, const U256& public_key,
               const Bytes& message) {
  Sha256 hasher;
  const Bytes r_bytes = commitment.ToBytesBe();
  const Bytes pk_bytes = public_key.ToBytesBe();
  hasher.Update(r_bytes);
  hasher.Update(pk_bytes);
  hasher.Update(message);
  const Digest256 digest = hasher.Finish();
  return params.mod_q.Reduce(U256::FromBytesBe(digest.data(), digest.size()));
}

U256 RandomScalar(const GroupParams& params, Rng& rng) {
  // Rejection-free: draw 256 bits and reduce mod q; add 1 to avoid zero.
  uint8_t buf[32];
  rng.Fill(buf, sizeof(buf));
  U256 v = params.mod_q.Reduce(U256::FromBytesBe(buf, sizeof(buf)));
  if (v.IsZero()) {
    v = U256(1);
  }
  return v;
}

}  // namespace

GroupParams::GroupParams(const U256& modulus, const U256& order, const U256& generator)
    : p(modulus), q(order), g(generator), mod_p(modulus), mod_q(order) {}

const GroupParams& GroupParams::Default() {
  // Generated offline: p = 2*q + 1 with p, q prime (Miller-Rabin, 40 rounds); g = 4 is a
  // quadratic residue and therefore generates the order-q subgroup.
  static const GroupParams kParams(
      U256::FromHex("b7e9f735f74bf461eb409d67747a627534f17ded4ba95a60790f978549c8c24f"),
      U256::FromHex("5bf4fb9afba5fa30f5a04eb3ba3d313a9a78bef6a5d4ad303c87cbc2a4e46127"),
      U256(4));
  return kParams;
}

KeyPair GenerateKeyPair(const GroupParams& params, Rng& rng) {
  KeyPair kp;
  kp.private_key = RandomScalar(params, rng);
  kp.public_key = params.mod_p.PowMod(params.g, kp.private_key);
  return kp;
}

Bytes DhSharedSecret(const GroupParams& params, const U256& private_key,
                     const U256& peer_public) {
  return params.mod_p.PowMod(peer_public, private_key).ToBytesBe();
}

Signature SchnorrSign(const GroupParams& params, const U256& private_key,
                      const Bytes& message, Rng& rng) {
  const U256 public_key = params.mod_p.PowMod(params.g, private_key);
  Signature sig;
  const U256 k = RandomScalar(params, rng);
  sig.commitment = params.mod_p.PowMod(params.g, k);
  const U256 e = Challenge(params, sig.commitment, public_key, message);
  // s = k + e * x mod q.
  sig.response = U256::AddMod(k, params.mod_q.MulMod(e, private_key), params.q);
  return sig;
}

bool SchnorrVerify(const GroupParams& params, const U256& public_key, const Bytes& message,
                   const Signature& sig) {
  const U256 e = Challenge(params, sig.commitment, public_key, message);
  // Check g^s == R * y^e mod p.
  const U256 lhs = params.mod_p.PowMod(params.g, sig.response);
  const U256 rhs = params.mod_p.MulMod(sig.commitment, params.mod_p.PowMod(public_key, e));
  return lhs == rhs;
}

}  // namespace erebor
