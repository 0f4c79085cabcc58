#include "src/crypto/chacha20.h"

#include <cstring>

#include "src/common/bytes.h"
#include "src/crypto/accel.h"

#if defined(__x86_64__) || defined(__i386__)
#define EREBOR_CHACHA_X86 1
#include <immintrin.h>
#endif

namespace erebor {

namespace {

inline uint32_t Rotl32(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d = Rotl32(d ^ a, 16);
  c += d;
  b = Rotl32(b ^ c, 12);
  a += b;
  d = Rotl32(d ^ a, 8);
  c += d;
  b = Rotl32(b ^ c, 7);
}

void Block(const uint32_t state[16], uint8_t out[64]) {
  uint32_t x[16];
  for (int i = 0; i < 16; ++i) {
    x[i] = state[i];
  }
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const uint32_t v = x[i] + state[i];
    out[4 * i] = static_cast<uint8_t>(v);
    out[4 * i + 1] = static_cast<uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<uint8_t>(v >> 24);
  }
}

void InitState(uint32_t state[16], const ChaChaKey& key, const ChaChaNonce& nonce,
               uint32_t counter) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = LoadLe32(key.data() + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = LoadLe32(nonce.data() + 4 * i);
  }
}

// dst[i] = src[i] ^ mask[i] in 64-bit words; len must be a multiple of 8.
inline void XorWords(const uint8_t* src, const uint8_t* mask, uint8_t* dst, size_t len) {
  for (size_t i = 0; i < len; i += 8) {
    uint64_t v;
    uint64_t m;
    std::memcpy(&v, src + i, 8);
    std::memcpy(&m, mask + i, 8);
    v ^= m;
    std::memcpy(dst + i, &v, 8);
  }
}

// One round step applied across kLanes independent blocks; the lane loop is what
// the vectorizer turns into packed 32-bit ops (4 lanes -> one XMM op).
#define EREBOR_CHACHA_QR(a, b, c, d)           \
  for (int l = 0; l < kLanes; ++l) {           \
    x[a][l] += x[b][l];                        \
    x[d][l] = Rotl32(x[d][l] ^ x[a][l], 16);   \
    x[c][l] += x[d][l];                        \
    x[b][l] = Rotl32(x[b][l] ^ x[c][l], 12);   \
    x[a][l] += x[b][l];                        \
    x[d][l] = Rotl32(x[d][l] ^ x[a][l], 8);    \
    x[c][l] += x[d][l];                        \
    x[b][l] = Rotl32(x[b][l] ^ x[c][l], 7);    \
  }

// Hashes kLanes consecutive blocks (counters state[12] .. state[12]+kLanes-1)
// into keystream[64 * kLanes]. always_inline so the lane loops fold into each
// caller.
template <int kLanes>
[[gnu::always_inline]] inline void HashLanes(const uint32_t state[16],
                                             uint8_t* keystream) {
  uint32_t x[16][kLanes];
  for (int i = 0; i < 16; ++i) {
    for (int l = 0; l < kLanes; ++l) {
      x[i][l] = state[i] + (i == 12 ? static_cast<uint32_t>(l) : 0);
    }
  }
  for (int round = 0; round < 10; ++round) {
    EREBOR_CHACHA_QR(0, 4, 8, 12)
    EREBOR_CHACHA_QR(1, 5, 9, 13)
    EREBOR_CHACHA_QR(2, 6, 10, 14)
    EREBOR_CHACHA_QR(3, 7, 11, 15)
    EREBOR_CHACHA_QR(0, 5, 10, 15)
    EREBOR_CHACHA_QR(1, 6, 11, 12)
    EREBOR_CHACHA_QR(2, 7, 8, 13)
    EREBOR_CHACHA_QR(3, 4, 9, 14)
  }
  for (int l = 0; l < kLanes; ++l) {
    for (int i = 0; i < 16; ++i) {
      const uint32_t v =
          x[i][l] + state[i] + (i == 12 ? static_cast<uint32_t>(l) : 0);
      StoreLe32(keystream + 64 * l + 4 * i, v);
    }
  }
}

#undef EREBOR_CHACHA_QR

// Consumes whole groups of kLanes blocks, advancing src/dst/remaining.
template <int kLanes>
[[gnu::always_inline]] inline void XorLanesRun(uint32_t state[16], const uint8_t*& src,
                                               uint8_t*& dst, size_t& remaining) {
  uint8_t keystream[64 * kLanes];
  while (remaining >= sizeof(keystream)) {
    HashLanes<kLanes>(state, keystream);
    state[12] += kLanes;
    XorWords(src, keystream, dst, sizeof(keystream));
    src += sizeof(keystream);
    dst += sizeof(keystream);
    remaining -= sizeof(keystream);
  }
}

#ifdef EREBOR_CHACHA_X86

// GCC 12's _mm512_rol_epi32 and _mm512_shuffle_i32x4 pass a self-initialized
// _mm512_undefined_epi32() as the (fully overwritten) merge source, which
// -Wmaybe-uninitialized flags once they are inlined here. The kernel has no
// uninitialized state, so silence that one warning for this kernel only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// AVX-512 has a native 32-bit rotate (vprold), so every rotation is one op.
#define EREBOR_VQR(a, b, c, d)                           \
  a = _mm512_add_epi32(a, b);                            \
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);      \
  c = _mm512_add_epi32(c, d);                            \
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);      \
  a = _mm512_add_epi32(a, b);                            \
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);       \
  c = _mm512_add_epi32(c, d);                            \
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);

// 4x4 transpose of 32-bit elements inside each 128-bit lane of rows r0..r3:
// afterwards lane k of r<j> holds words 0..3 of the input rows' column 4k + j.
#define EREBOR_TRANSPOSE4(r0, r1, r2, r3)                \
  {                                                      \
    const __m512i t0 = _mm512_unpacklo_epi32(r0, r1);    \
    const __m512i t1 = _mm512_unpackhi_epi32(r0, r1);    \
    const __m512i t2 = _mm512_unpacklo_epi32(r2, r3);    \
    const __m512i t3 = _mm512_unpackhi_epi32(r2, r3);    \
    r0 = _mm512_unpacklo_epi64(t0, t2);                  \
    r1 = _mm512_unpackhi_epi64(t0, t2);                  \
    r2 = _mm512_unpacklo_epi64(t1, t3);                  \
    r3 = _mm512_unpackhi_epi64(t1, t3);                  \
  }

// 4x4 transpose of 128-bit lanes across a0..a3: afterwards lane g of a<k> is
// lane k of the input a<g>.
#define EREBOR_TRANSPOSE_LANES(a0, a1, a2, a3)               \
  {                                                          \
    const __m512i p0 = _mm512_shuffle_i32x4(a0, a1, 0x44);   \
    const __m512i p1 = _mm512_shuffle_i32x4(a0, a1, 0xEE);   \
    const __m512i p2 = _mm512_shuffle_i32x4(a2, a3, 0x44);   \
    const __m512i p3 = _mm512_shuffle_i32x4(a2, a3, 0xEE);   \
    a0 = _mm512_shuffle_i32x4(p0, p2, 0x88);                 \
    a1 = _mm512_shuffle_i32x4(p0, p2, 0xDD);                 \
    a2 = _mm512_shuffle_i32x4(p1, p3, 0x88);                 \
    a3 = _mm512_shuffle_i32x4(p1, p3, 0xDD);                 \
  }

// Sixteen blocks per iteration: lane l of v[i] is word i of block l. After the
// rounds a 16x16 transpose (4x4 inside each 128-bit lane, then 4x4 across the
// lanes) turns the registers back into contiguous 64-byte keystream blocks.
// x86 is little-endian, so the packed words already have wire order.
__attribute__((target("avx512f")))
void XorRunAvx512(uint32_t state[16], const uint8_t*& src, uint8_t*& dst,
                  size_t& remaining) {
  const __m512i lane_counters =
      _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  while (remaining >= 1024) {
    __m512i v[16];
    for (int i = 0; i < 16; ++i) {
      v[i] = _mm512_set1_epi32(static_cast<int>(state[i]));
    }
    v[12] = _mm512_add_epi32(v[12], lane_counters);
    const __m512i counters = v[12];
    for (int round = 0; round < 10; ++round) {
      EREBOR_VQR(v[0], v[4], v[8], v[12])
      EREBOR_VQR(v[1], v[5], v[9], v[13])
      EREBOR_VQR(v[2], v[6], v[10], v[14])
      EREBOR_VQR(v[3], v[7], v[11], v[15])
      EREBOR_VQR(v[0], v[5], v[10], v[15])
      EREBOR_VQR(v[1], v[6], v[11], v[12])
      EREBOR_VQR(v[2], v[7], v[8], v[13])
      EREBOR_VQR(v[3], v[4], v[9], v[14])
    }
    for (int i = 0; i < 16; ++i) {
      v[i] = _mm512_add_epi32(
          v[i], i == 12 ? counters : _mm512_set1_epi32(static_cast<int>(state[i])));
    }
    // Rows 4g..4g+3: lane k of v[4g + j] becomes words 4g..4g+3 of block 4k + j.
    EREBOR_TRANSPOSE4(v[0], v[1], v[2], v[3])
    EREBOR_TRANSPOSE4(v[4], v[5], v[6], v[7])
    EREBOR_TRANSPOSE4(v[8], v[9], v[10], v[11])
    EREBOR_TRANSPOSE4(v[12], v[13], v[14], v[15])
    // Column j: v[4k + j] becomes all of block 4k + j.
    EREBOR_TRANSPOSE_LANES(v[0], v[4], v[8], v[12])
    EREBOR_TRANSPOSE_LANES(v[1], v[5], v[9], v[13])
    EREBOR_TRANSPOSE_LANES(v[2], v[6], v[10], v[14])
    EREBOR_TRANSPOSE_LANES(v[3], v[7], v[11], v[15])
    for (int l = 0; l < 16; ++l) {
      const __m512i in = _mm512_loadu_si512(src + 64 * l);
      _mm512_storeu_si512(dst + 64 * l, _mm512_xor_si512(v[l], in));
    }
    state[12] += 16;
    src += 1024;
    dst += 1024;
    remaining -= 1024;
  }
}

// dst = src ^ keystream over the first len < 64 bytes of one block. AVX-512F
// masks whole dwords only (byte masks are AVX-512BW), so the last len % 4 bytes
// take their keystream from a spilled copy.
__attribute__((target("avx512f"))) inline void XorPartialBlock(__m512i keystream,
                                                               const uint8_t* src,
                                                               uint8_t* dst, size_t len) {
  const __mmask16 words = static_cast<__mmask16>((1u << (len / 4)) - 1);
  const __m512i in = _mm512_maskz_loadu_epi32(words, src);
  _mm512_mask_storeu_epi32(dst, words, _mm512_xor_si512(in, keystream));
  alignas(64) uint8_t bytes[64];
  _mm512_store_si512(bytes, keystream);
  for (size_t i = len & ~size_t{3}; i < len; ++i) {
    dst[i] = static_cast<uint8_t>(src[i] ^ bytes[i]);
  }
}

// One step of the row-layout kernel for runs shorter than 1 KiB. Each register
// holds one 4-word state row of four consecutive blocks, one block per 128-bit
// lane, so a column round is four packed quarter rounds and the diagonal round
// only rotates rows b, c and d inside their lanes. kGroups register sets run
// interleaved, whose independent chains hide the rotate latency that bounds a
// single set. XORs up to 4 * kGroups blocks and stops at the end of the run.
// rows[0..2] are the first three state rows in every lane; `counters` is row 3
// of the step's first four blocks and advances past the step's blocks.
template <int kGroups>
__attribute__((target("avx512f"), always_inline)) inline void XorRowStep(
    const __m512i rows[4], __m512i& counters, const uint8_t*& src, uint8_t*& dst,
    size_t& remaining) {
  const __m512i four = _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4);
  __m512i a[kGroups], b[kGroups], c[kGroups], d[kGroups], d_in[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    a[g] = rows[0];
    b[g] = rows[1];
    c[g] = rows[2];
    d[g] = d_in[g] = counters;
    counters = _mm512_add_epi32(counters, four);
  }
  for (int round = 0; round < 10; ++round) {
    for (int g = 0; g < kGroups; ++g) {
      EREBOR_VQR(a[g], b[g], c[g], d[g])
      // Diagonals: word i of each lane of b, c, d takes word i+1, i+2, i+3.
      b[g] = _mm512_shuffle_epi32(b[g], _MM_PERM_ADCB);
      c[g] = _mm512_shuffle_epi32(c[g], _MM_PERM_BADC);
      d[g] = _mm512_shuffle_epi32(d[g], _MM_PERM_CBAD);
      EREBOR_VQR(a[g], b[g], c[g], d[g])
      b[g] = _mm512_shuffle_epi32(b[g], _MM_PERM_CBAD);
      c[g] = _mm512_shuffle_epi32(c[g], _MM_PERM_BADC);
      d[g] = _mm512_shuffle_epi32(d[g], _MM_PERM_ADCB);
    }
  }
  __m512i blocks[4 * kGroups];
  for (int g = 0; g < kGroups; ++g) {
    a[g] = _mm512_add_epi32(a[g], rows[0]);
    b[g] = _mm512_add_epi32(b[g], rows[1]);
    c[g] = _mm512_add_epi32(c[g], rows[2]);
    d[g] = _mm512_add_epi32(d[g], d_in[g]);
    // Lane k of a, b, c, d holds the rows of block 4g + k; gather each block.
    EREBOR_TRANSPOSE_LANES(a[g], b[g], c[g], d[g])
    blocks[4 * g] = a[g];
    blocks[4 * g + 1] = b[g];
    blocks[4 * g + 2] = c[g];
    blocks[4 * g + 3] = d[g];
  }
  for (int l = 0; l < 4 * kGroups && remaining != 0; ++l) {
    if (remaining < 64) {
      XorPartialBlock(blocks[l], src, dst, remaining);
      remaining = 0;
      return;
    }
    _mm512_storeu_si512(dst, _mm512_xor_si512(blocks[l], _mm512_loadu_si512(src)));
    src += 64;
    dst += 64;
    remaining -= 64;
  }
}

// Finishes a run shorter than 1 KiB (1 to 16 blocks, the last one possibly
// partial). Two interleaved register sets cost little more than one, so runs
// past four blocks take eight per step; a run of four or fewer takes one set.
__attribute__((target("avx512f")))
void XorTailAvx512(const uint32_t state[16], const uint8_t* src, uint8_t* dst,
                   size_t remaining) {
  __m512i rows[4];
  for (int r = 0; r < 4; ++r) {
    rows[r] = _mm512_set4_epi32(static_cast<int>(state[4 * r + 3]),
                                static_cast<int>(state[4 * r + 2]),
                                static_cast<int>(state[4 * r + 1]),
                                static_cast<int>(state[4 * r]));
  }
  // Lane k starts at block counter state[12] + k.
  __m512i counters = _mm512_add_epi32(
      rows[3], _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0));
  while (remaining > 256) {
    XorRowStep<2>(rows, counters, src, dst, remaining);
  }
  if (remaining != 0) {
    XorRowStep<1>(rows, counters, src, dst, remaining);
  }
}

#undef EREBOR_TRANSPOSE_LANES
#undef EREBOR_TRANSPOSE4
#undef EREBOR_VQR
#pragma GCC diagnostic pop

#endif

void XorRunPortable(uint32_t state[16], const uint8_t*& src, uint8_t*& dst,
                    size_t& remaining) {
  XorLanesRun<4>(state, src, dst, remaining);
}

}  // namespace

void ChaCha20XorTo(const ChaChaKey& key, const ChaChaNonce& nonce, uint32_t counter,
                   const uint8_t* src, uint8_t* dst, size_t len) {
  uint32_t state[16];
  InitState(state, key, nonce, counter);
  size_t remaining = len;
#ifdef EREBOR_CHACHA_X86
  if (accel::Enabled() && accel::HasAvx512()) {
    XorRunAvx512(state, src, dst, remaining);
    XorTailAvx512(state, src, dst, remaining);
    return;
  }
#endif
  XorRunPortable(state, src, dst, remaining);

  uint8_t keystream[64];
  while (remaining >= 64) {
    HashLanes<1>(state, keystream);
    state[12]++;
    XorWords(src, keystream, dst, 64);
    src += 64;
    dst += 64;
    remaining -= 64;
  }
  if (remaining != 0) {
    HashLanes<1>(state, keystream);
    state[12]++;
    for (size_t i = 0; i < remaining; ++i) {
      dst[i] = static_cast<uint8_t>(src[i] ^ keystream[i]);
    }
  }
}

void ChaCha20Xor(const ChaChaKey& key, const ChaChaNonce& nonce, uint32_t counter,
                 uint8_t* data, size_t len) {
  ChaCha20XorTo(key, nonce, counter, data, data, len);
}

void ChaCha20XorScalar(const ChaChaKey& key, const ChaChaNonce& nonce, uint32_t counter,
                       uint8_t* data, size_t len) {
  uint32_t state[16];
  InitState(state, key, nonce, counter);

  uint8_t keystream[64];
  size_t offset = 0;
  while (offset < len) {
    Block(state, keystream);
    state[12]++;
    const size_t take = std::min<size_t>(64, len - offset);
    for (size_t i = 0; i < take; ++i) {
      data[offset + i] ^= keystream[i];
    }
    offset += take;
  }
}

}  // namespace erebor
