// CryptDB-style onion encryption layout (Popa et al., SOSP'11 — [8] in the
// paper): every plaintext column materializes the onions its query workload
// needs.
//
//   EQ  onion: DET  — equality predicates, GROUP BY, projections      "e<hex>"
//   ORD onion: OPE  — range predicates, ORDER BY, MIN/MAX             "o<hex>"
//   ADD onion: HOM  — SUM/AVG via Paillier                            "h<hex>"
//   RND      : PROB — columns carried but never computed on           "p<hex>"
//
// Onion columns are ordinary string columns of an ordinary db::Database; the
// cell prefix identifies the onion and the fixed-width OPE hex keeps string
// order equal to numeric order, so the untrusted provider runs the plain
// executor unmodified (plus an aggregate hook for Paillier sums).

#ifndef DPE_CRYPTDB_ONION_H_
#define DPE_CRYPTDB_ONION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "crypto/csprng.h"
#include "crypto/det.h"
#include "crypto/keys.h"
#include "crypto/ope.h"
#include "crypto/paillier.h"
#include "crypto/prob.h"
#include "db/value.h"

namespace dpe::cryptdb {

/// Which onions a column materializes. When none is set the column is
/// carried under RND (PROB) only.
struct ColumnOnionConfig {
  bool eq = false;
  bool ord = false;
  bool add = false;

  bool rnd_only() const { return !eq && !ord && !add; }
};

/// The owner-chosen layout: per-column onion configs (keyed "rel.attr") plus
/// join groups (columns sharing one EQ key so equi-joins work — the JOIN
/// usage mode of Fig. 1).
struct OnionLayout {
  std::map<std::string, ColumnOnionConfig> columns;
  /// column key -> join group name; absent means column-scoped key.
  std::map<std::string, std::string> join_group_of;

  /// When true, ALL columns share one EQ key and one ORD key (a global JOIN
  /// usage mode). Required for exact *distance* preservation of the result
  /// measure: per-column keys satisfy Def. 4 (item-wise result equivalence)
  /// but not Def. 1 — plaintext result tuples can coincide across different
  /// attributes (cid = 17 vs age = 17), which per-column ciphertexts never
  /// do. bench_ablation (A1b) measures both settings;
  /// CryptDbTest.SharedValueKeysLinkEqualValuesAcrossColumns pins this one.
  bool shared_value_keys = false;

  ColumnOnionConfig ConfigFor(const std::string& column_key) const {
    auto it = columns.find(column_key);
    return it == columns.end() ? ColumnOnionConfig{} : it->second;
  }
};

/// Onion column-name suffixes.
inline constexpr char kEqSuffix[] = "__eq";
inline constexpr char kOrdSuffix[] = "__ord";
inline constexpr char kAddSuffix[] = "__add";
inline constexpr char kRndSuffix[] = "__rnd";

/// Owner-side cryptographic material: name encryptors, per-column onion
/// encryptors, and the database-wide Paillier key pair.
class OnionCrypto {
 public:
  struct Options {
    /// Paillier modulus size; >= 512 outside unit tests.
    int paillier_bits = 768;
    /// OPE ciphertext width (bits); must exceed 64.
    int ope_range_bits = 96;
  };

  static Result<OnionCrypto> Create(const crypto::KeyManager& keys,
                                    OnionLayout layout, const Options& options,
                                    crypto::Csprng rng);

  const OnionLayout& layout() const { return layout_; }

  // -- Identifier encryption (EncRel / EncAttr of the high-level scheme) --

  /// DET-encrypted, identifier-safe relation name ("e" + hex).
  std::string EncryptRelName(const std::string& name) const;
  /// DET-encrypted, identifier-safe attribute name.
  std::string EncryptAttrName(const std::string& name) const;
  Result<std::string> DecryptRelName(const std::string& enc_name) const;
  Result<std::string> DecryptAttrName(const std::string& enc_name) const;

  // -- Cell / constant encryption --

  /// EQ onion: DET of the value's canonical bytes -> "e<hex>".
  Result<db::Value> EncryptEq(const std::string& column_key,
                              const db::Value& v) const;
  /// ORD onion: order-preserving -> "o<fixed-width hex>". Numeric only.
  Result<db::Value> EncryptOrd(const std::string& column_key,
                               const db::Value& v) const;
  /// ADD onion: Paillier of the signed int value -> "h<hex>". Int only.
  Result<db::Value> EncryptAdd(const std::string& column_key,
                               const db::Value& v);
  /// RND: PROB -> "p<hex>". Any value.
  Result<db::Value> EncryptRnd(const std::string& column_key,
                               const db::Value& v);

  /// Inverts any onion cell (dispatch on prefix). `type` is the plaintext
  /// column type (needed to decode ORD cells).
  Result<db::Value> DecryptCell(const std::string& column_key,
                                db::ColumnType type, const db::Value& cell) const;

  const crypto::Paillier::PublicKey& paillier_pub() const { return paillier_.pub; }
  const crypto::Paillier::PrivateKey& paillier_priv() const {
    return paillier_.priv;
  }

  /// Paillier sum decode: "h<hex>" cell -> signed int.
  Result<int64_t> DecryptPaillierSum(const db::Value& cell) const;

 private:
  OnionCrypto(const crypto::KeyManager& keys, OnionLayout layout,
              const Options& options, crypto::Csprng rng,
              crypto::Paillier::KeyPair paillier);

  Result<crypto::DetEncryptor> EqEncryptorFor(const std::string& column_key) const;
  Result<crypto::BoldyrevaOpe> OrdEncryptorFor(const std::string& column_key) const;

  const crypto::KeyManager* keys_;
  OnionLayout layout_;
  Options options_;
  mutable crypto::Csprng rng_;
  crypto::Paillier::KeyPair paillier_;
};

/// Order-preserving uint64 image of a numeric value (ints via offset binary,
/// doubles via the IEEE-754 monotone map, mapped below/above so that the
/// per-column type homogeneity keeps order consistent).
Result<uint64_t> OrderPreservingU64(const db::Value& v);

/// Inverse for a known column type.
Result<db::Value> ValueFromOrderPreservingU64(uint64_t u, db::ColumnType type);

}  // namespace dpe::cryptdb

#endif  // DPE_CRYPTDB_ONION_H_
