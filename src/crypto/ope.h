// Order-preserving encryption (class OPE of Fig. 1): deterministic and
// monotone, so x < y  =>  Enc(x) < Enc(y).
//
// Two instances with different trade-offs (benchmarked as ablation A1b):
//
//  * BoldyrevaOpe — stateless. The classic recursive binary range-split of
//    Boldyreva/Chenette/Lee/O'Neill (CRYPTO'11 [13] of the paper), with PRF
//    coins per recursion node. Deviation from the original: the per-node
//    split is sampled uniformly from the feasible window instead of from the
//    exact hypergeometric distribution. This affects only the POPF security
//    equivalence, never order preservation or determinism (both checked by
//    tests/crypto/ope_property_test.cc).
//
//  * DictionaryOpe — stateful and exactly order-preserving over a known
//    domain (the paper's access-area measure already requires sharing the
//    attribute Domains, so materializing a code book is within the model).

#ifndef DPE_CRYPTO_OPE_H_
#define DPE_CRYPTO_OPE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/scheme.h"

namespace dpe::crypto {

/// Stateless OPE on the uint64 domain with a `range_bits`-wide range.
class BoldyrevaOpe {
 public:
  struct Options {
    /// Plaintext domain is [0, 2^domain_bits).
    int domain_bits = 64;
    /// Ciphertext range is [0, 2^range_bits); must exceed domain_bits.
    int range_bits = 96;
  };

  /// `key` must be 32 bytes.
  static Result<BoldyrevaOpe> Create(std::string_view key);
  static Result<BoldyrevaOpe> Create(std::string_view key,
                                     const Options& options);

  /// Deterministic, strictly monotone encryption of `x`.
  Bigint Encrypt(uint64_t x) const;

  /// Inverts Encrypt; fails for values not produced by Encrypt.
  Result<uint64_t> Decrypt(const Bigint& ciphertext) const;

  /// Ciphertext as fixed-width lowercase hex. Because the width is fixed,
  /// lexicographic order on these strings equals numeric ciphertext order —
  /// this is how OPE atoms embed into rewritten SQL and the encrypted DB.
  std::string EncryptToHex(uint64_t x) const;

  /// Fixed hex width: two hex chars per ciphertext byte.
  int hex_width() const { return 2 * ((options_.range_bits + 7) / 8); }

  const Options& options() const { return options_; }

 private:
  BoldyrevaOpe(Bytes key, const Options& options);

  /// Samples the number of domain points assigned to the left half of the
  /// current range node, uniformly from the feasible window, with coins
  /// derived deterministically from the node bounds (never from x).
  Bigint SampleSplit(const Bigint& dlo, const Bigint& dhi, const Bigint& rlo,
                     const Bigint& rhi) const;

  Bytes key_;
  Options options_;
};

/// Stateful, exactly order-preserving dictionary ("code book") OPE.
///
/// Build it from the (sorted) attribute domain; ciphertexts are uint64 with
/// PRF-randomized gaps. Dynamic insertion picks the midpoint of the gap
/// between neighbours and fails only when a gap is exhausted (mutable-OPE
/// rebalancing is out of scope; gaps start at 2^20).
class DictionaryOpe {
 public:
  /// `key` must be 32 bytes (drives the gap PRF).
  static Result<DictionaryOpe> Create(std::string_view key);

  /// Builds the code book. `domain` need not be sorted or unique.
  Status BuildFromDomain(std::vector<Bytes> domain);

  /// Ciphertext for a known value; fails for values outside the code book.
  Result<uint64_t> Encrypt(std::string_view value) const;

  /// Adds a new value between its neighbours; no-op if already present.
  Status Insert(const Bytes& value);

  Result<Bytes> Decrypt(uint64_t ciphertext) const;

  size_t size() const { return code_.size(); }

 private:
  explicit DictionaryOpe(Bytes key) : key_(std::move(key)) {}

  static constexpr uint64_t kGap = 1ULL << 20;

  Bytes key_;
  std::map<Bytes, uint64_t> code_;
  std::map<uint64_t, Bytes> reverse_;
};

}  // namespace dpe::crypto

#endif  // DPE_CRYPTO_OPE_H_
