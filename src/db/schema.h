// Relation schemas and the schema catalog: the one place a column's type is
// looked up.

#ifndef DPE_DB_SCHEMA_H_
#define DPE_DB_SCHEMA_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/value.h"

namespace dpe::db {

struct ColumnDef {
  std::string name;
  ColumnType type;

  bool operator==(const ColumnDef& other) const {
    return name == other.name && type == other.type;
  }
};

/// Ordered list of typed columns.
class TableSchema {
 public:
  TableSchema() = default;
  explicit TableSchema(std::vector<ColumnDef> columns)
      : columns_(std::move(columns)) {}

  const std::vector<ColumnDef>& columns() const { return columns_; }
  size_t size() const { return columns_.size(); }

  /// Index of `name`, or nullopt.
  std::optional<size_t> Find(const std::string& name) const;

  /// Type check: does `v` fit column `idx`? NULL always fits.
  bool Accepts(size_t idx, const Value& v) const;

  bool operator==(const TableSchema& other) const {
    return columns_ == other.columns_;
  }

 private:
  std::vector<ColumnDef> columns_;
};

/// Schema catalog: relation name -> schema.
using SchemaMap = std::map<std::string, TableSchema>;

/// Type of `relation`.`attribute`; NotFound for an unknown relation or
/// column.
Result<ColumnType> ColumnTypeOf(const SchemaMap& schemas,
                                const std::string& relation,
                                const std::string& attribute);

}  // namespace dpe::db

#endif  // DPE_DB_SCHEMA_H_
