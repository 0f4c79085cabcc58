// ChaCha20 stream cipher (RFC 8439 block function), from scratch. Used as the bulk
// cipher of the monitor<->client secure channel. With AVX-512F the hot path
// hashes 16 blocks per step (1 KiB of keystream XORed per step), and a
// row-layout kernel of four or eight blocks per step finishes the run below
// 1 KiB, partial last block included. Hosts without AVX-512F, AVX2-only ones
// included, run the portable 4-lane code for everything. Keystream is XORed
// word-at-a-time; ChaCha20XorScalar keeps the original byte-wise code as the
// reference the crypto tests cross-check against.
#ifndef EREBOR_SRC_CRYPTO_CHACHA20_H_
#define EREBOR_SRC_CRYPTO_CHACHA20_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace erebor {

using ChaChaKey = std::array<uint8_t, 32>;
using ChaChaNonce = std::array<uint8_t, 12>;

// XOR-encrypt/decrypt `data` in place with the keystream starting at block `counter`.
void ChaCha20Xor(const ChaChaKey& key, const ChaChaNonce& nonce, uint32_t counter,
                 uint8_t* data, size_t len);

// Fused variant: dst[i] = src[i] ^ keystream[i]. `dst` may alias `src` exactly
// (in-place); partial overlap is not supported. This is the zero-copy entry the
// AEAD layer uses to decrypt straight into a caller-provided buffer.
void ChaCha20XorTo(const ChaChaKey& key, const ChaChaNonce& nonce, uint32_t counter,
                   const uint8_t* src, uint8_t* dst, size_t len);

// Reference implementation: one block at a time, byte-wise XOR. Kept verbatim from
// the original scalar path so tests can assert the optimized paths are
// bit-identical.
void ChaCha20XorScalar(const ChaChaKey& key, const ChaChaNonce& nonce, uint32_t counter,
                       uint8_t* data, size_t len);

}  // namespace erebor

#endif  // EREBOR_SRC_CRYPTO_CHACHA20_H_
