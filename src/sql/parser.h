// Recursive-descent parser for the SQL subset of sql/ast.h;
// tests/sql/parser_test.cc pins each construct it accepts or rejects.

#ifndef DPE_SQL_PARSER_H_
#define DPE_SQL_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace dpe::sql {

/// Parses one SELECT statement; the whole input must be consumed.
Result<SelectQuery> Parse(std::string_view text);

/// The constant a literal token denotes: an integer token must fit int64_t,
/// and a string token loses its quotes and its '' escapes. ParseError for an
/// integer out of range and for any token that is not a literal. The one
/// reader of literal tokens: predicates, LIMIT and the token-equivalence
/// checker all go through it.
Result<Literal> LiteralFromToken(const Token& token);

}  // namespace dpe::sql

#endif  // DPE_SQL_PARSER_H_
