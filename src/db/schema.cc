#include "db/schema.h"

namespace dpe::db {

std::optional<size_t> TableSchema::Find(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return std::nullopt;
}

bool TableSchema::Accepts(size_t idx, const Value& v) const {
  if (idx >= columns_.size()) return false;
  if (v.is_null()) return true;
  switch (columns_[idx].type) {
    case ColumnType::kInt:
      return v.is_int();
    case ColumnType::kDouble:
      return v.is_double() || v.is_int();
    case ColumnType::kString:
      return v.is_string();
  }
  return false;
}

Result<ColumnType> ColumnTypeOf(const SchemaMap& schemas,
                                const std::string& relation,
                                const std::string& attribute) {
  auto it = schemas.find(relation);
  if (it == schemas.end()) {
    return Status::NotFound("unknown relation " + relation);
  }
  std::optional<size_t> idx = it->second.Find(attribute);
  if (!idx.has_value()) {
    return Status::NotFound("unknown column " + relation + "." + attribute);
  }
  return it->second.columns()[*idx].type;
}

}  // namespace dpe::db
