#include "relational/schema.h"

namespace probkb {

Schema::Schema() {
  static const std::shared_ptr<const Rep> empty = std::make_shared<Rep>();
  rep_ = empty;
}

Schema::Schema(std::vector<Field> fields) {
  auto rep = std::make_shared<Rep>();
  rep->fields = std::move(fields);
  for (size_t i = 0; i < rep->fields.size(); ++i) {
    rep->index.emplace(rep->fields[i].name, static_cast<int>(i));
  }
  rep_ = std::move(rep);
}

int Schema::GetFieldIndex(const std::string& name) const {
  auto it = rep_->index.find(name);
  return it == rep_->index.end() ? -1 : it->second;
}

Result<int> Schema::GetFieldIndexChecked(const std::string& name) const {
  int idx = GetFieldIndex(name);
  if (idx < 0) {
    return Status::NotFound("no field named '" + name + "' in schema " +
                            ToString());
  }
  return idx;
}

bool Schema::Equals(const Schema& other) const {
  const std::vector<Field>& fields = rep_->fields;
  const std::vector<Field>& others = other.rep_->fields;
  if (fields.size() != others.size()) return false;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].name != others[i].name ||
        fields[i].type != others[i].type) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < rep_->fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += rep_->fields[i].name;
    out += " ";
    out += ColumnTypeToString(rep_->fields[i].type);
  }
  out += ")";
  return out;
}

}  // namespace probkb
