#ifndef PROBKB_RELATIONAL_SCHEMA_H_
#define PROBKB_RELATIONAL_SCHEMA_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/value.h"
#include "util/result.h"
#include "util/status.h"

namespace probkb {

/// \brief A named, typed column.
struct Field {
  std::string name;
  ColumnType type = ColumnType::kInt64;
};

/// \brief Ordered list of fields with name lookup. Immutable once built,
/// so copies share one representation: copying a schema (every Table
/// holds one) costs a reference count, not a rebuilt name index.
class Schema {
 public:
  Schema();
  explicit Schema(std::vector<Field> fields);
  Schema(std::initializer_list<Field> fields)
      : Schema(std::vector<Field>(fields)) {}

  int num_fields() const { return static_cast<int>(rep_->fields.size()); }
  const Field& field(int i) const {
    return rep_->fields[static_cast<size_t>(i)];
  }
  const std::vector<Field>& fields() const { return rep_->fields; }

  /// \brief Index of the field named `name`, or -1 if absent.
  int GetFieldIndex(const std::string& name) const;

  /// \brief Like GetFieldIndex but returns an error Status when absent.
  Result<int> GetFieldIndexChecked(const std::string& name) const;

  bool Equals(const Schema& other) const;

  /// \brief "(I INT64, R INT64, w FLOAT64)".
  std::string ToString() const;

 private:
  struct Rep {
    std::vector<Field> fields;
    std::unordered_map<std::string, int> index;
  };
  std::shared_ptr<const Rep> rep_;
};

}  // namespace probkb

#endif  // PROBKB_RELATIONAL_SCHEMA_H_
