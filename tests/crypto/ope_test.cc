#include "crypto/ope.h"

#include <gtest/gtest.h>

#include "crypto/csprng.h"
#include "crypto/keys.h"

namespace dpe::crypto {
namespace {

class OpeTest : public ::testing::Test {
 protected:
  static BoldyrevaOpe SmallOpe() {
    BoldyrevaOpe::Options opts;
    opts.domain_bits = 16;
    opts.range_bits = 32;
    return BoldyrevaOpe::Create(KeyManager("ope-test").Derive("k"), opts).value();
  }
};

TEST_F(OpeTest, DeterministicEncryption) {
  BoldyrevaOpe ope = SmallOpe();
  for (uint64_t x : {0ULL, 1ULL, 1000ULL, 65535ULL}) {
    EXPECT_EQ(ope.Encrypt(x), ope.Encrypt(x));
  }
}

TEST_F(OpeTest, StrictlyMonotoneOnRandomPairs) {
  BoldyrevaOpe ope = SmallOpe();
  Csprng rng = Csprng::FromSeed("pairs");
  for (int i = 0; i < 300; ++i) {
    uint64_t a = rng.NextBelow(1ULL << 16);
    uint64_t b = rng.NextBelow(1ULL << 16);
    Bigint ca = ope.Encrypt(a);
    Bigint cb = ope.Encrypt(b);
    EXPECT_EQ(a < b, ca < cb) << a << " " << b;
    EXPECT_EQ(a == b, ca == cb);
  }
}

TEST_F(OpeTest, MonotoneOnAdjacentValues) {
  BoldyrevaOpe ope = SmallOpe();
  Bigint prev = ope.Encrypt(0);
  for (uint64_t x = 1; x < 200; ++x) {
    Bigint cur = ope.Encrypt(x);
    EXPECT_LT(prev, cur) << x;
    prev = cur;
  }
}

TEST_F(OpeTest, DomainEndpoints) {
  BoldyrevaOpe ope = SmallOpe();
  Bigint lo = ope.Encrypt(0);
  Bigint hi = ope.Encrypt((1ULL << 16) - 1);
  EXPECT_LT(lo, hi);
  EXPECT_FALSE(lo.IsNegative());
  EXPECT_LE(hi.BitLength(), 32u);
}

TEST_F(OpeTest, DecryptInvertsEncrypt) {
  BoldyrevaOpe ope = SmallOpe();
  Csprng rng = Csprng::FromSeed("dec");
  for (int i = 0; i < 100; ++i) {
    uint64_t x = rng.NextBelow(1ULL << 16);
    EXPECT_EQ(ope.Decrypt(ope.Encrypt(x)).value(), x);
  }
}

TEST_F(OpeTest, DecryptRejectsNonCiphertexts) {
  BoldyrevaOpe ope = SmallOpe();
  // Scan a few values around a real ciphertext; non-image points must fail.
  Bigint ct = ope.Encrypt(1234);
  size_t rejected = 0;
  for (int delta = 1; delta <= 5; ++delta) {
    if (!ope.Decrypt(ct + Bigint(delta)).ok()) ++rejected;
    if (!ope.Decrypt(ct - Bigint(delta)).ok()) ++rejected;
  }
  EXPECT_GT(rejected, 0u);  // with 16->32 bit expansion most points are gaps
  EXPECT_FALSE(ope.Decrypt(Bigint(-1)).ok());
}

TEST_F(OpeTest, DifferentKeysDifferentMappings) {
  BoldyrevaOpe::Options opts;
  opts.domain_bits = 16;
  opts.range_bits = 32;
  KeyManager keys("ope-test");
  auto o1 = BoldyrevaOpe::Create(keys.Derive("a"), opts).value();
  auto o2 = BoldyrevaOpe::Create(keys.Derive("b"), opts).value();
  int same = 0;
  for (uint64_t x = 0; x < 50; ++x) {
    if (o1.Encrypt(x) == o2.Encrypt(x)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST_F(OpeTest, HexEncodingPreservesOrderLexicographically) {
  BoldyrevaOpe ope = SmallOpe();
  Csprng rng = Csprng::FromSeed("hex");
  std::string prev_hex;
  for (uint64_t x = 0; x < 300; x += 3) {
    std::string hex = ope.EncryptToHex(x);
    EXPECT_EQ(hex.size(), static_cast<size_t>(ope.hex_width()));
    if (!prev_hex.empty()) EXPECT_LT(prev_hex, hex);
    prev_hex = hex;
  }
}

TEST_F(OpeTest, FullDomainBitsWork) {
  BoldyrevaOpe::Options opts;  // 64 -> 96 default
  auto ope = BoldyrevaOpe::Create(KeyManager("ope-test").Derive("full"), opts)
                 .value();
  uint64_t xs[] = {0, 1, 1ULL << 32, (1ULL << 63) + 5, ~0ULL};
  Bigint prev(-1);
  for (uint64_t x : xs) {
    Bigint c = ope.Encrypt(x);
    EXPECT_LT(prev, c);
    EXPECT_EQ(ope.Decrypt(c).value(), x);
    prev = c;
  }
}

TEST_F(OpeTest, RejectsBadOptions) {
  KeyManager keys("ope-test");
  BoldyrevaOpe::Options bad;
  bad.domain_bits = 64;
  bad.range_bits = 64;  // must exceed domain
  EXPECT_FALSE(BoldyrevaOpe::Create(keys.Derive("k"), bad).ok());
  bad.domain_bits = 0;
  bad.range_bits = 32;
  EXPECT_FALSE(BoldyrevaOpe::Create(keys.Derive("k"), bad).ok());
  EXPECT_FALSE(BoldyrevaOpe::Create("short-key").ok());
}

// Ciphertexts pinned for every (domain, range) width in use: (32, 48) in the
// security and taxonomy probes, (64, 80) in the search and integration
// tests, (64, 96) for the owner and perfbench. A faster OPE must reproduce
// them byte for byte.
struct OpeGolden {
  int domain_bits;
  int range_bits;
  uint64_t x;
  const char* hex;
};

constexpr OpeGolden kOpeGoldens[] = {
    {32, 48, 0, "00000003dc91"},
    {32, 48, 1, "0000000493b8"},
    {32, 48, 0xFFFFFFFFULL, "fffffd7f983a"},
    {32, 48, 1000, "000006161a7a"},
    {32, 48, 1001, "000006161b76"},
    {32, 48, 1002, "000006161df4"},
    {32, 48, 1003, "000006162ac9"},
    {32, 48, 0x12345678ULL, "016e9b92b6f5"},
    {32, 48, 0xDEADBEEFULL, "900a0a6a2e24"},
    {64, 80, 0, "000000000001a76edd0a"},
    {64, 80, 1, "000000000001ba2d4858"},
    {64, 80, ~0ULL, "fffffffffffffbf6969f"},
    {64, 80, 1000, "000000000485bfbf5f95"},
    {64, 80, 1001, "000000000485d0593096"},
    {64, 80, 1002, "000000000485fe4ca13f"},
    {64, 80, 1003, "00000000048617d5e95f"},
    {64, 80, 0x0123456789ABCDEFULL, "048da4c1a3530560799d"},
    {64, 80, 0xFEDCBA9876543210ULL, "e941b8bfdf73b9f89b49"},
    {64, 96, 0, "0000000000878f2c7aa1663b"},
    {64, 96, 1, "000000000087a77e7169254a"},
    {64, 96, ~0ULL, "fffffffffff49489c74249ea"},
    {64, 96, 1000, "000000002352b3bff9f7289a"},
    {64, 96, 1001, "000000002352c953d9a213ea"},
    {64, 96, 1002, "00000000235354f106b8a49a"},
    {64, 96, 1003, "0000000023535a1e9e7da444"},
    {64, 96, 0x0123456789ABCDEFULL, "07074f0321fde3925f0d088f"},
    {64, 96, 0xFEDCBA9876543210ULL, "e010d2d8a7248d50be271e0c"},
};

TEST(OpeGoldenTest, CiphertextsArePinnedAndDecrypt) {
  const Bytes key = KeyManager("ope-golden").Derive("k");
  for (const OpeGolden& g : kOpeGoldens) {
    BoldyrevaOpe::Options opts;
    opts.domain_bits = g.domain_bits;
    opts.range_bits = g.range_bits;
    BoldyrevaOpe ope = BoldyrevaOpe::Create(key, opts).value();
    const std::string hex = ope.EncryptToHex(g.x);
    EXPECT_EQ(hex, g.hex) << "(" << g.domain_bits << ", " << g.range_bits
                          << ") x = " << g.x;
    Result<Bigint> ct = Bigint::FromString("0x" + hex);
    ASSERT_TRUE(ct.ok()) << hex;
    EXPECT_EQ(ope.Decrypt(*ct).value(), g.x);
  }
}

TEST(DictionaryOpeTest, BuildAndEncryptPreservesOrder) {
  auto ope = DictionaryOpe::Create(KeyManager("dope").Derive("k")).value();
  std::vector<Bytes> domain = {"delta", "alpha", "charlie", "bravo", "alpha"};
  ASSERT_TRUE(ope.BuildFromDomain(domain).ok());
  EXPECT_EQ(ope.size(), 4u);  // deduplicated
  uint64_t a = ope.Encrypt("alpha").value();
  uint64_t b = ope.Encrypt("bravo").value();
  uint64_t c = ope.Encrypt("charlie").value();
  uint64_t d = ope.Encrypt("delta").value();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
}

TEST(DictionaryOpeTest, DecryptInverts) {
  auto ope = DictionaryOpe::Create(KeyManager("dope").Derive("k")).value();
  ASSERT_TRUE(ope.BuildFromDomain({"x", "y", "z"}).ok());
  for (const char* v : {"x", "y", "z"}) {
    EXPECT_EQ(ope.Decrypt(ope.Encrypt(v).value()).value(), v);
  }
  EXPECT_FALSE(ope.Decrypt(123456789).ok());
}

TEST(DictionaryOpeTest, UnknownValueFails) {
  auto ope = DictionaryOpe::Create(KeyManager("dope").Derive("k")).value();
  ASSERT_TRUE(ope.BuildFromDomain({"a"}).ok());
  EXPECT_FALSE(ope.Encrypt("missing").ok());
}

TEST(DictionaryOpeTest, DynamicInsertKeepsOrder) {
  auto ope = DictionaryOpe::Create(KeyManager("dope").Derive("k")).value();
  ASSERT_TRUE(ope.BuildFromDomain({"apple", "orange"}).ok());
  ASSERT_TRUE(ope.Insert("banana").ok());
  ASSERT_TRUE(ope.Insert("zebra").ok());
  uint64_t apple = ope.Encrypt("apple").value();
  uint64_t banana = ope.Encrypt("banana").value();
  uint64_t orange = ope.Encrypt("orange").value();
  uint64_t zebra = ope.Encrypt("zebra").value();
  EXPECT_LT(apple, banana);
  EXPECT_LT(banana, orange);
  EXPECT_LT(orange, zebra);
}

TEST(DictionaryOpeTest, InsertExistingIsNoop) {
  auto ope = DictionaryOpe::Create(KeyManager("dope").Derive("k")).value();
  ASSERT_TRUE(ope.BuildFromDomain({"a", "b"}).ok());
  uint64_t before = ope.Encrypt("a").value();
  ASSERT_TRUE(ope.Insert("a").ok());
  EXPECT_EQ(ope.Encrypt("a").value(), before);
  EXPECT_EQ(ope.size(), 2u);
}

TEST(DictionaryOpeTest, DeterministicAcrossInstances) {
  KeyManager keys("dope");
  auto o1 = DictionaryOpe::Create(keys.Derive("k")).value();
  auto o2 = DictionaryOpe::Create(keys.Derive("k")).value();
  std::vector<Bytes> domain = {"m", "n", "o", "p"};
  ASSERT_TRUE(o1.BuildFromDomain(domain).ok());
  ASSERT_TRUE(o2.BuildFromDomain(domain).ok());
  for (const auto& v : domain) {
    EXPECT_EQ(o1.Encrypt(v).value(), o2.Encrypt(v).value());
  }
}

}  // namespace
}  // namespace dpe::crypto
