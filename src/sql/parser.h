// Recursive-descent parser for the SQL subset of sql/ast.h;
// tests/sql/parser_test.cc pins each construct it accepts or rejects.

#ifndef DPE_SQL_PARSER_H_
#define DPE_SQL_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "sql/ast.h"

namespace dpe::sql {

/// Parses one SELECT statement; the whole input must be consumed.
Result<SelectQuery> Parse(std::string_view text);

}  // namespace dpe::sql

#endif  // DPE_SQL_PARSER_H_
