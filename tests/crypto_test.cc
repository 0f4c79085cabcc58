#include <gtest/gtest.h>

#include <vector>

#include "src/crypto/accel.h"
#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/group.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/u256.h"

namespace erebor {
namespace {

// ---- SHA-256 (FIPS 180-4 / NIST vectors) ----

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256::Hash("").data(), 32),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Sha256::Hash("abc").data(), 32),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HexEncode(
                Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").data(),
                32),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk);
  }
  EXPECT_EQ(HexEncode(hasher.Finish().data(), 32),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog multiple times";
  Sha256 hasher;
  for (char c : msg) {
    hasher.Update(std::string_view(&c, 1));
  }
  EXPECT_EQ(hasher.Finish(), Sha256::Hash(msg));
}

// ---- HMAC-SHA256 (RFC 4231) ----

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  HmacSha256 mac(key);
  mac.Update("Hi There");
  EXPECT_EQ(HexEncode(mac.Finish().data(), 32),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = ToBytes("Jefe");
  HmacSha256 mac(key);
  mac.Update("what do ya want for nothing?");
  EXPECT_EQ(HexEncode(mac.Finish().data(), 32),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3LongKeyData) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, data).data(), 32),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, KeyLongerThanBlockIsHashed) {
  const Bytes key(131, 0xaa);
  HmacSha256 mac(key);
  mac.Update("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(HexEncode(mac.Finish().data(), 32),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---- HKDF (RFC 5869 test case 1) ----

TEST(HkdfTest, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  Bytes salt(13);
  for (int i = 0; i < 13; ++i) {
    salt[i] = static_cast<uint8_t>(i);
  }
  const Digest256 prk = HkdfExtract(salt, ikm);
  EXPECT_EQ(HexEncode(prk.data(), 32),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Bytes info(10);
  for (int i = 0; i < 10; ++i) {
    info[i] = static_cast<uint8_t>(0xf0 + i);
  }
  const auto okm =
      HkdfExpand(prk, std::string_view(reinterpret_cast<char*>(info.data()), info.size()), 42);
  ASSERT_TRUE(okm.ok()) << okm.status();
  EXPECT_EQ(HexEncode(*okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, ExpandStopsAt255Blocks) {
  // RFC 5869 caps L at 255 * HashLen: the one-byte block counter runs 1..255 and
  // must not wrap to 0. The longest output is pinned by python3's hmac module.
  const Digest256 prk = HkdfExtract(Bytes{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
                                    Bytes(22, 0x0b));
  const auto longest = HkdfExpand(prk, "erebor hkdf bound", 255 * 32);
  ASSERT_TRUE(longest.ok()) << longest.status();
  ASSERT_EQ(longest->size(), 8160u);
  EXPECT_EQ(HexEncode(Sha256::Hash(*longest).data(), 32),
            "93088076fe9b1bcd0ea61d60c552c1529c4976f1ef1ecacbf4608f51584c972c");
  const auto too_long = HkdfExpand(prk, "erebor hkdf bound", 255 * 32 + 1);
  ASSERT_FALSE(too_long.ok());
  EXPECT_EQ(too_long.status().code(), ErrorCode::kInvalidArgument);
}

// ---- U256 ----

TEST(U256Test, HexRoundTrip) {
  const std::string hex = "b7e9f735f74bf461eb409d67747a627534f17ded4ba95a60790f978549c8c24f";
  EXPECT_EQ(U256::FromHex(hex).ToHex(), hex);
}

TEST(U256Test, BytesRoundTrip) {
  const U256 v(0x1122334455667788ULL, 0x99AABBCCDDEEFF00ULL, 1, 2);
  const Bytes be = v.ToBytesBe();
  EXPECT_EQ(U256::FromBytesBe(be.data(), be.size()), v);
}

TEST(U256Test, AddSubInverse) {
  const U256 a = U256::FromHex("ffffffffffffffffffffffffffffffff");
  const U256 b(12345);
  EXPECT_EQ(U256::Sub(U256::Add(a, b), b), a);
}

TEST(U256Test, CompareOrdering) {
  EXPECT_LT(U256(1), U256(2));
  EXPECT_LT(U256(0xFFFFFFFFFFFFFFFFULL), U256(0, 1, 0, 0));
  EXPECT_EQ(U256(7).Compare(U256(7)), 0);
}

TEST(U256Test, BitLength) {
  EXPECT_EQ(U256().BitLength(), 0);
  EXPECT_EQ(U256(1).BitLength(), 1);
  EXPECT_EQ(U256(0xFF).BitLength(), 8);
  EXPECT_EQ(U256(0, 0, 0, 1ULL << 63).BitLength(), 256);
}

class U256ModTest : public testing::TestWithParam<uint64_t> {};

TEST_P(U256ModTest, ModularIdentitiesAgainstSmallModel) {
  // Property check against native __int128 arithmetic for 64-bit operands.
  Rng rng(GetParam());
  const uint64_t m64 = (rng.Next() | (1ULL << 62)) | 1;  // large odd modulus
  const U256 mod(m64);
  const MontgomeryContext ctx(mod);
  for (int i = 0; i < 64; ++i) {
    const uint64_t a64 = rng.Next() % m64;
    const uint64_t b64 = rng.Next() % m64;
    const U256 a(a64), b(b64);
    EXPECT_EQ(U256::AddMod(a, b, mod).limb(0),
              static_cast<uint64_t>((static_cast<__uint128_t>(a64) + b64) % m64));
    EXPECT_EQ(U256::SubMod(a, b, mod).limb(0),
              a64 >= b64 ? a64 - b64 : m64 - (b64 - a64));
    EXPECT_EQ(ctx.MulMod(a, b).limb(0),
              static_cast<uint64_t>(static_cast<__uint128_t>(a64) * b64 % m64));
    // Unreduced operands (possibly >= m) reduce first.
    const uint64_t x64 = rng.Next(), y64 = rng.Next();
    EXPECT_EQ(ctx.Reduce(U256(x64)).limb(0), x64 % m64);
    EXPECT_EQ(ctx.MulMod(U256(x64), U256(y64)).limb(0),
              static_cast<uint64_t>(static_cast<__uint128_t>(x64) * y64 % m64));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, U256ModTest, testing::Values(11, 22, 33, 44));

TEST(U256Test, PowModSmall) {
  // 3^10 = 59049; mod 100001 stays as-is.
  EXPECT_EQ(MontgomeryContext(U256(100001)).PowMod(U256(3), U256(10)).limb(0), 59049u);
  // Fermat: a^(p-1) = 1 mod p for prime p = 1000003.
  EXPECT_EQ(MontgomeryContext(U256(1000003)).PowMod(U256(7), U256(1000002)).limb(0), 1u);
}

TEST(U256Test, PowModLargeGroupOrder) {
  // g^q == 1 mod p for the simulation group (g generates the order-q subgroup).
  const GroupParams& g = GroupParams::Default();
  EXPECT_EQ(g.mod_p.PowMod(g.g, g.q), U256(1));
}

// ---- DH + Schnorr ----

TEST(GroupTest, DhCommutes) {
  Rng rng(99);
  const GroupParams& params = GroupParams::Default();
  const KeyPair alice = GenerateKeyPair(params, rng);
  const KeyPair bob = GenerateKeyPair(params, rng);
  EXPECT_EQ(DhSharedSecret(params, alice.private_key, bob.public_key),
            DhSharedSecret(params, bob.private_key, alice.public_key));
}

TEST(GroupTest, DhDiffersForDifferentPeers) {
  Rng rng(100);
  const GroupParams& params = GroupParams::Default();
  const KeyPair alice = GenerateKeyPair(params, rng);
  const KeyPair bob = GenerateKeyPair(params, rng);
  const KeyPair carol = GenerateKeyPair(params, rng);
  EXPECT_NE(DhSharedSecret(params, alice.private_key, bob.public_key),
            DhSharedSecret(params, alice.private_key, carol.public_key));
}

TEST(GroupTest, SchnorrSignVerify) {
  Rng rng(7);
  const GroupParams& params = GroupParams::Default();
  const KeyPair key = GenerateKeyPair(params, rng);
  const Bytes msg = ToBytes("attestation quote contents");
  const Signature sig = SchnorrSign(params, key.private_key, msg, rng);
  EXPECT_TRUE(SchnorrVerify(params, key.public_key, msg, sig));
}

TEST(GroupTest, SchnorrRejectsTamperedMessage) {
  Rng rng(8);
  const GroupParams& params = GroupParams::Default();
  const KeyPair key = GenerateKeyPair(params, rng);
  const Signature sig = SchnorrSign(params, key.private_key, ToBytes("original"), rng);
  EXPECT_FALSE(SchnorrVerify(params, key.public_key, ToBytes("tampered"), sig));
}

TEST(GroupTest, SchnorrRejectsWrongKey) {
  Rng rng(9);
  const GroupParams& params = GroupParams::Default();
  const KeyPair key = GenerateKeyPair(params, rng);
  const KeyPair other = GenerateKeyPair(params, rng);
  const Bytes msg = ToBytes("message");
  const Signature sig = SchnorrSign(params, key.private_key, msg, rng);
  EXPECT_FALSE(SchnorrVerify(params, other.public_key, msg, sig));
}

TEST(GroupTest, SchnorrRejectsForgedSignature) {
  Rng rng(10);
  const GroupParams& params = GroupParams::Default();
  const KeyPair key = GenerateKeyPair(params, rng);
  const Bytes msg = ToBytes("message");
  Signature sig = SchnorrSign(params, key.private_key, msg, rng);
  sig.response = U256::AddMod(sig.response, U256(1), params.q);
  EXPECT_FALSE(SchnorrVerify(params, key.public_key, msg, sig));
}

// ---- ChaCha20 (RFC 8439 section 2.4.2) ----

TEST(ChaCha20Test, Rfc8439Vector) {
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes data = ToBytes(plaintext);
  ChaCha20Xor(key, nonce, 1, data.data(), data.size());
  EXPECT_EQ(HexEncode(data.data(), 16), "6e2e359a2568f98041ba0728dd0d6981");
}

TEST(ChaCha20Test, XorIsInvolution) {
  ChaChaKey key{};
  key[0] = 0x42;
  ChaChaNonce nonce{};
  Bytes data = ToBytes("round trip payload with some length to cross a block !!");
  const Bytes original = data;
  ChaCha20Xor(key, nonce, 1, data.data(), data.size());
  EXPECT_NE(data, original);
  ChaCha20Xor(key, nonce, 1, data.data(), data.size());
  EXPECT_EQ(data, original);
}

TEST(ChaCha20Test, MultiBlockPathsMatchScalarReference) {
  // The wide paths (AVX-512 16-block and row-layout tail, portable 4-block,
  // single-block word XOR) must produce exactly the reference byte-at-a-time
  // keystream at every length up to 1100 (every sub-KiB run, partial last block
  // included, and short tails after one 1 KiB group), a 1 KiB group plus the
  // tails 1, 255, 608 and 1023, and longer runs: 3583 = three 1 KiB groups + one
  // 4-block group + three single blocks + a 63-byte tail. Each case runs in
  // place and out of place on exact-length heap buffers, so a sanitizer build
  // flags any access past the end of the run.
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  ChaChaNonce nonce{};
  nonce[3] = 0x9C;
  Rng rng(4242);
  struct Case {
    uint32_t counter;
    size_t len;
  };
  std::vector<Case> cases;
  for (size_t len = 0; len <= 1100; ++len) {
    cases.push_back({1, len});
  }
  for (const size_t len :
       {size_t{1279}, size_t{1632}, size_t{2047}, size_t{2049},
        size_t{3583}, size_t{4096}, size_t{65536}, size_t{100001}}) {
    cases.push_back({1, len});
  }
  // The last full 16-block group before the 32-bit block counter wraps, a run
  // whose counter wraps to 0 after that group, and a sub-KiB run whose counter
  // wraps between its second and third block.
  cases.push_back({0xFFFFFFF0u, 1024});
  cases.push_back({0xFFFFFFF0u, 3583});
  cases.push_back({0xFFFFFFFEu, 300});
  for (const bool accelerated : {true, false}) {
    accel::ScopedEnable scoped(accelerated);
    for (const Case& c : cases) {
      Bytes in_place(c.len);
      rng.Fill(in_place.data(), in_place.size());
      Bytes reference = in_place;
      ChaCha20XorScalar(key, nonce, c.counter, reference.data(), reference.size());
      Bytes out_of_place(c.len);
      ChaCha20XorTo(key, nonce, c.counter, in_place.data(), out_of_place.data(),
                    c.len);
      ASSERT_EQ(out_of_place, reference)
          << "out of place len=" << c.len << " counter=" << c.counter
          << " accel=" << accelerated;
      ChaCha20Xor(key, nonce, c.counter, in_place.data(), in_place.size());
      ASSERT_EQ(in_place, reference)
          << "in place len=" << c.len << " counter=" << c.counter
          << " accel=" << accelerated;
    }
  }
}

TEST(Sha256Test, PaddingKnownAnswerEveryTailLength) {
  // Messages of 0..256 bytes leave every staged tail length 0..63 at Finish,
  // across both the one-block (tail <= 55) and two-block (tail >= 56) final pad.
  // The SHA-256 of their concatenated digests is pinned from python3 hashlib.
  // Each message is also fed as two Update calls split at every offset, with
  // the SHA-NI dispatch on and off (both paths share Finish).
  Bytes pattern(256);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  for (const bool accelerated : {true, false}) {
    accel::ScopedEnable scoped(accelerated);
    Sha256 digests;
    for (size_t len = 0; len <= pattern.size(); ++len) {
      const Digest256 one_shot = Sha256::Hash(pattern.data(), len);
      digests.Update(one_shot.data(), one_shot.size());
      for (size_t split = 0; split <= len; ++split) {
        Sha256 two_calls;
        two_calls.Update(pattern.data(), split);
        two_calls.Update(pattern.data() + split, len - split);
        ASSERT_EQ(two_calls.Finish(), one_shot)
            << "len=" << len << " split=" << split << " accel=" << accelerated;
      }
    }
    EXPECT_EQ(HexEncode(digests.Finish().data(), 32),
              "d6915386d0c2bcf87c8cee4343d3fd93f32a04f6d3dde8614209148addbf57d1")
        << "accel=" << accelerated;
  }
}

TEST(Sha256Test, AcceleratedMatchesPortable) {
  // Same digests with the SHA-NI dispatch forced off, across lengths that hit
  // every partial-block top-up / whole-block / tail combination in Update().
  Rng rng(7);
  for (size_t len = 0; len < 300; len += 13) {
    Bytes message(len);
    rng.Fill(message.data(), message.size());
    accel::ScopedEnable on(true);
    const Digest256 fast = Sha256::Hash(message);
    accel::ScopedEnable off(false);
    EXPECT_EQ(Sha256::Hash(message), fast) << "len=" << len;
  }
  Bytes big(1 << 18);
  rng.Fill(big.data(), big.size());
  accel::ScopedEnable on(true);
  const Digest256 fast = Sha256::Hash(big);
  accel::ScopedEnable off(false);
  EXPECT_EQ(Sha256::Hash(big), fast);
}

// ---- AEAD records ----

AeadKeys TestKeys() {
  AeadKeys keys;
  for (int i = 0; i < 32; ++i) {
    keys.cipher_key[i] = static_cast<uint8_t>(i * 3);
  }
  keys.mac_key = Bytes(32, 0x5A);
  return keys;
}

// A representative record header (data record for sandbox 7).
constexpr RecordAad kTestAad{3, 7};

// A sealed record as the *Into API leaves it: ciphertext plus tag.
struct Sealed {
  Bytes ciphertext;
  Digest256 tag{};
};

Sealed Seal(const AeadKeys& keys, const RecordAad& aad, uint64_t seq,
            const Bytes& plaintext) {
  Sealed sealed;
  sealed.ciphertext.resize(plaintext.size());
  sealed.tag = AeadSealInto(keys, aad, seq, plaintext.data(), plaintext.size(),
                            sealed.ciphertext.data());
  return sealed;
}

StatusOr<Bytes> Open(const AeadKeys& keys, const RecordAad& aad, uint64_t seq,
                     const Sealed& sealed) {
  Bytes plaintext(sealed.ciphertext.size());
  EREBOR_RETURN_IF_ERROR(AeadOpenInto(keys, aad, seq, sealed.ciphertext.data(),
                                      sealed.ciphertext.size(), sealed.tag,
                                      plaintext.data()));
  return plaintext;
}

TEST(AeadTest, SealOpenRoundTrip) {
  const AeadKeys keys = TestKeys();
  const Bytes plaintext = ToBytes("sensitive client data");
  const Sealed record = Seal(keys, kTestAad, 0, plaintext);
  EXPECT_NE(record.ciphertext, plaintext);
  const auto opened = Open(keys, kTestAad, 0, record);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plaintext);
}

TEST(AeadTest, RejectsTamperedCiphertext) {
  const AeadKeys keys = TestKeys();
  Sealed record = Seal(keys, kTestAad, 0, ToBytes("data"));
  record.ciphertext[0] ^= 1;
  EXPECT_EQ(Open(keys, kTestAad, 0, record).status().code(),
            ErrorCode::kPermissionDenied);
}

TEST(AeadTest, RejectsReplayedSequence) {
  const AeadKeys keys = TestKeys();
  const Sealed record = Seal(keys, kTestAad, 3, ToBytes("data"));
  EXPECT_TRUE(Open(keys, kTestAad, 3, record).ok());
  EXPECT_EQ(Open(keys, kTestAad, 4, record).status().code(),
            ErrorCode::kPermissionDenied);
}

TEST(AeadTest, HeaderIsBoundIntoTheTag) {
  // The tag must cover the rewritable header fields: the same record presented
  // under a relabeled type or re-routed sandbox id fails authentication.
  const AeadKeys keys = TestKeys();
  const Sealed record = Seal(keys, kTestAad, 0, ToBytes("data"));
  ASSERT_TRUE(Open(keys, kTestAad, 0, record).ok());
  const RecordAad relabeled{4, kTestAad.sandbox_id};  // kDataRecord -> kResultRecord
  EXPECT_EQ(Open(keys, relabeled, 0, record).status().code(),
            ErrorCode::kPermissionDenied);
  const RecordAad rerouted{kTestAad.type, kTestAad.sandbox_id + 1};
  EXPECT_EQ(Open(keys, rerouted, 0, record).status().code(),
            ErrorCode::kPermissionDenied);
}

TEST(AeadTest, IncrementalSealOpenAliasesInPlace) {
  // The zero-copy pipeline encrypts and decrypts in place (dst == src); the
  // result must match separate input and output buffers exactly.
  const AeadKeys keys = TestKeys();
  Rng rng(31);
  Bytes plaintext(5000);
  rng.Fill(plaintext.data(), plaintext.size());
  const Sealed reference = Seal(keys, kTestAad, 12, plaintext);

  Bytes buffer = plaintext;
  const Digest256 tag =
      AeadSealInto(keys, kTestAad, 12, buffer.data(), buffer.size(), buffer.data());
  EXPECT_EQ(buffer, reference.ciphertext);
  EXPECT_EQ(tag, reference.tag);

  ASSERT_TRUE(AeadOpenInto(keys, kTestAad, 12, buffer.data(), buffer.size(), tag,
                           buffer.data())
                  .ok());
  EXPECT_EQ(buffer, plaintext);
}

TEST(AeadTest, OpenIntoAuthenticatesBeforeDecrypting) {
  // On a bad tag the output buffer must be untouched: the API authenticates
  // first, so unverified plaintext never materializes anywhere.
  const AeadKeys keys = TestKeys();
  const Bytes plaintext = ToBytes("never release unverified bytes");
  Bytes ciphertext(plaintext.size());
  Digest256 tag = AeadSealInto(keys, kTestAad, 0, plaintext.data(), plaintext.size(),
                               ciphertext.data());
  tag[0] ^= 1;
  Bytes out(plaintext.size(), 0xCC);
  const Bytes untouched = out;
  EXPECT_EQ(AeadOpenInto(keys, kTestAad, 0, ciphertext.data(), ciphertext.size(), tag,
                         out.data())
                .code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(out, untouched);
}

TEST(AeadTest, SessionKeysAreDirectional) {
  const Bytes secret(32, 0x11);
  Digest256 transcript{};
  const SessionKeys keys = DeriveSessionKeys(secret, transcript);
  EXPECT_NE(keys.client_to_server.mac_key, keys.server_to_client.mac_key);
  EXPECT_FALSE(ConstantTimeEqual(keys.client_to_server.cipher_key.data(),
                                 keys.server_to_client.cipher_key.data(), 32));
}

class AeadSizeTest : public testing::TestWithParam<size_t> {};

TEST_P(AeadSizeTest, RoundTripsAllSizes) {
  const AeadKeys keys = TestKeys();
  Rng rng(GetParam());
  Bytes plaintext(GetParam());
  rng.Fill(plaintext.data(), plaintext.size());
  const Sealed record = Seal(keys, kTestAad, 9, plaintext);
  const auto opened = Open(keys, kTestAad, 9, record);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plaintext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadSizeTest,
                         testing::Values(0, 1, 63, 64, 65, 4096, 100000));

}  // namespace
}  // namespace erebor
