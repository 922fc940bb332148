// JOIN / JOIN-OPE usage modes (Fig. 1): "a special usage mode of a DET or
// OPE scheme, allowing to compute joins over encrypted data".
//
// Columns assigned to the same join group share one derived key, so equal
// plaintexts in different columns of a group produce equal ciphertexts and
// equi-joins execute unmodified over the encrypted database. This mirrors
// the effect of CryptDB's JOIN-ADJ *after* adjustment, in place of its
// pairing-based construction: cross-column equality shows from the start.

#ifndef DPE_CRYPTO_JOIN_H_
#define DPE_CRYPTO_JOIN_H_

#include <map>
#include <optional>
#include <string>

#include "crypto/det.h"
#include "crypto/keys.h"
#include "crypto/scheme.h"

namespace dpe::crypto {

/// Assigns columns ("rel.attr") to join groups and hands out the group- or
/// column-scoped DET encryptors accordingly.
class JoinKeyRegistry {
 public:
  explicit JoinKeyRegistry(const KeyManager& keys) : keys_(&keys) {}

  /// Puts `column` into `group`. A column may belong to at most one group.
  Status AddToGroup(const std::string& group, const std::string& column);

  /// True if the column participates in some join group.
  bool IsJoinColumn(const std::string& column) const;

  /// The group of a column, if any.
  std::optional<std::string> GroupOf(const std::string& column) const;

  /// DET encryptor for the column: keyed by the join group when the column
  /// is grouped (JOIN mode), by the column itself otherwise (plain DET).
  Result<DetEncryptor> EncryptorFor(const std::string& column) const;

  /// kJoin for grouped columns, kDet otherwise.
  PpeClass ClassFor(const std::string& column) const;

 private:
  const KeyManager* keys_;
  std::map<std::string, std::string> column_to_group_;
};

}  // namespace dpe::crypto

#endif  // DPE_CRYPTO_JOIN_H_
