// c-equivalence checkers (paper Definition 2): for a characteristic c and an
// encryption scheme Enc, verify  Enc(c(x)) == c(Enc(x))  for every query x
// of a log.
//
//   token equivalence        c = tokens          (Def. 3 context)
//   structural equivalence   c = features        (§IV-B-2)
//   result equivalence       c = result_tuples   (Def. 4)
//   access-area equivalence  c = access_A        (§IV-B-4)
//
// Result equivalence has two modes, because Paillier (HOM) aggregates are
// probabilistic: kCiphertext compares byte-wise at the onion layer (exact
// for aggregate-free queries), kDecrypted compares after owner-side
// decryption (the CryptDB proxy view; covers aggregate queries).

#ifndef DPE_CORE_EQUIVALENCE_H_
#define DPE_CORE_EQUIVALENCE_H_

#include <string>
#include <vector>

#include "core/log_encryptor.h"

namespace dpe::core {

struct EquivalenceReport {
  std::string notion;
  size_t checked = 0;
  size_t failed = 0;
  size_t skipped = 0;  ///< e.g. aggregate queries in kCiphertext mode
  std::string first_failure;

  bool ok() const { return failed == 0; }
};

/// Token equivalence: Enc(tokens(q)) == tokens(Enc(q)).
Result<EquivalenceReport> CheckTokenEquivalence(
    const LogEncryptor& enc, const std::vector<sql::SelectQuery>& log);

/// Structural equivalence: Enc(features(q)) == features(Enc(q)).
Result<EquivalenceReport> CheckStructuralEquivalence(
    const LogEncryptor& enc, const std::vector<sql::SelectQuery>& log);

enum class ResultEquivalenceMode { kCiphertext, kDecrypted };

/// Result equivalence: Enc(result_tuples(q)) == result_tuples(Enc(q)).
/// Requires an encryptor in CryptDB mode.
Result<EquivalenceReport> CheckResultEquivalence(
    const LogEncryptor& enc, const std::vector<sql::SelectQuery>& log,
    ResultEquivalenceMode mode);

/// Access-area equivalence: Enc(access_A(q)) == access_A(Enc(q)) for every
/// accessed attribute A.
Result<EquivalenceReport> CheckAccessAreaEquivalence(
    const LogEncryptor& enc, const std::vector<sql::SelectQuery>& log,
    const db::DomainRegistry& plain_domains);

/// Dispatches to the notion belonging to `kind`.
Result<EquivalenceReport> CheckEquivalence(MeasureKind kind,
                                           const LogEncryptor& enc,
                                           const std::vector<sql::SelectQuery>& log,
                                           const db::DomainRegistry& plain_domains);

}  // namespace dpe::core

#endif  // DPE_CORE_EQUIVALENCE_H_
