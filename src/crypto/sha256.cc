#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/accel.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define EREBOR_SHA256_X86 1
#endif

namespace erebor {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// Portable FIPS 180-4 compression, one block at a time.
void ProcessBlocksScalar(uint32_t h[8], const uint8_t* data, size_t block_count) {
  for (size_t blk = 0; blk < block_count; ++blk, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = hh + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      hh = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
  }
}

#ifdef EREBOR_SHA256_X86

// Rounds 4j..4j+3 of SHA-NI compression on the schedule words in `cur`
// (W[4j..4j+3]). The schedule runs ahead of the rounds, exactly as in Intel's
// reference flow: `next` (W[4j+4..]) gets its sha256msg2 finish from `cur` and
// `prev` (W[4j-4..]) via one PALIGNR, and `prev` gets its sha256msg1 start
// towards W[4j+12..]. J is a template parameter so each of the 16 call sites
// inlines with fixed register roles and no branch.
template <int J>
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void ShaNiRounds(
    __m128i& state0, __m128i& state1, const __m128i& cur, __m128i& next, __m128i& prev) {
  __m128i m =
      _mm_add_epi32(cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * J])));
  state1 = _mm_sha256rnds2_epu32(state1, state0, m);
  if constexpr (J >= 3 && J < 15) {
    next = _mm_sha256msg2_epu32(_mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur);
  }
  m = _mm_shuffle_epi32(m, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, m);
  if constexpr (J >= 1 && J <= 12) {
    prev = _mm_sha256msg1_epu32(prev, cur);
  }
}

// SHA-NI compression. The SHA256RNDS2 instruction consumes the state as two
// packed registers in ABEF/CDGH order, so the plain {a..h} words are permuted on
// entry and exit. The four message-schedule registers m0..m3 each hold four
// schedule words and rotate roles every four rounds; the rounds are fully
// unrolled so the schedule stays in registers.
__attribute__((target("sha,sse4.1,ssse3")))
void ProcessBlocksShaNi(uint32_t h[8], const uint8_t* data, size_t block_count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);     // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);          // CDGH

  for (size_t blk = 0; blk < block_count; ++blk, data += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    const __m128i* in = reinterpret_cast<const __m128i*>(data);
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in), kByteSwap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), kByteSwap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), kByteSwap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), kByteSwap);

    ShaNiRounds<0>(state0, state1, m0, m1, m3);
    ShaNiRounds<1>(state0, state1, m1, m2, m0);
    ShaNiRounds<2>(state0, state1, m2, m3, m1);
    ShaNiRounds<3>(state0, state1, m3, m0, m2);
    ShaNiRounds<4>(state0, state1, m0, m1, m3);
    ShaNiRounds<5>(state0, state1, m1, m2, m0);
    ShaNiRounds<6>(state0, state1, m2, m3, m1);
    ShaNiRounds<7>(state0, state1, m3, m0, m2);
    ShaNiRounds<8>(state0, state1, m0, m1, m3);
    ShaNiRounds<9>(state0, state1, m1, m2, m0);
    ShaNiRounds<10>(state0, state1, m2, m3, m1);
    ShaNiRounds<11>(state0, state1, m3, m0, m2);
    ShaNiRounds<12>(state0, state1, m0, m1, m3);
    ShaNiRounds<13>(state0, state1, m1, m2, m0);
    ShaNiRounds<14>(state0, state1, m2, m3, m1);
    ShaNiRounds<15>(state0, state1, m3, m0, m2);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);        // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[4]), state1);
}

#endif  // EREBOR_SHA256_X86

}  // namespace

Sha256::Sha256() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t block_count) {
#ifdef EREBOR_SHA256_X86
  if (accel::Enabled() && accel::HasShaNi()) {
    ProcessBlocksShaNi(h_, data, block_count);
    return;
  }
#endif
  ProcessBlocksScalar(h_, data, block_count);
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;  // also keeps memcpy away from a null `data`
  }
  total_len_ += len;
  // Top up a partially filled block first.
  if (buffer_len_ != 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      ProcessBlocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  // Bulk data is compressed straight from the caller's buffer, many blocks per
  // dispatch, without staging through buffer_.
  const size_t whole_blocks = len / 64;
  if (whole_blocks != 0) {
    ProcessBlocks(data, whole_blocks);
    data += whole_blocks * 64;
    len -= whole_blocks * 64;
  }
  if (len != 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Digest256 Sha256::Finish() {
  // The final one or two blocks, compressed in one call: the staged tail, 0x80,
  // zeros, and the message length in bits as a big-endian 64-bit word. A tail of
  // 56 bytes or more leaves no room for the length, so it spills into a second
  // block.
  uint8_t last[128];
  const size_t len_at = buffer_len_ < 56 ? 56 : 120;
  std::memcpy(last, buffer_, buffer_len_);
  last[buffer_len_] = 0x80;
  std::memset(last + buffer_len_ + 1, 0, len_at - buffer_len_ - 1);
  const uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    last[len_at + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ProcessBlocks(last, (len_at + 8) / 64);

  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Digest256 Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 hasher;
  hasher.Update(data, len);
  return hasher.Finish();
}

}  // namespace erebor
