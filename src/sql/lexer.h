// Hand-written SQL lexer for the grammar subset of sql/ast.h.

#ifndef DPE_SQL_LEXER_H_
#define DPE_SQL_LEXER_H_

#include <set>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/token.h"

namespace dpe::sql {

/// Tokenizes `text`. Keywords are upper-cased, identifiers lower-cased,
/// numeric and string literals keep a canonical lexeme. The terminating
/// kEnd token is NOT included.
Result<std::vector<Token>> Lex(std::string_view text);

/// The token-set characteristic of Def. 3: the set of lexemes of `text`.
/// Fails if the text does not lex.
Result<std::set<std::string>> TokenSet(std::string_view text);

}  // namespace dpe::sql

#endif  // DPE_SQL_LEXER_H_
