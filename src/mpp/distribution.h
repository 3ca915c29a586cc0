#ifndef PROBKB_MPP_DISTRIBUTION_H_
#define PROBKB_MPP_DISTRIBUTION_H_

#include <span>
#include <string>
#include <vector>

namespace probkb {

/// \brief How a distributed table's rows are placed on segments.
///
/// Mirrors Greenplum's DISTRIBUTED BY (hash), DISTRIBUTED REPLICATED, and
/// DISTRIBUTED RANDOMLY policies.
struct Distribution {
  enum class Kind { kHash, kReplicated, kRandom };

  Kind kind = Kind::kRandom;
  std::vector<int> key_cols;  // only for kHash

  static Distribution Hash(std::vector<int> key_cols) {
    return {Kind::kHash, std::move(key_cols)};
  }
  static Distribution Replicated() { return {Kind::kReplicated, {}}; }
  static Distribution Random() { return {Kind::kRandom, {}}; }

  bool is_hash() const { return kind == Kind::kHash; }
  bool is_replicated() const { return kind == Kind::kReplicated; }

  /// \brief True if this is a hash distribution on exactly `cols`
  /// (positionally — Greenplum collocation also requires key order to line
  /// up with the join condition).
  bool IsHashOn(std::span<const int> cols) const {
    if (kind != Kind::kHash || key_cols.size() != cols.size()) return false;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (key_cols[i] != cols[i]) return false;
    }
    return true;
  }

  std::string ToString() const;
};

}  // namespace probkb

#endif  // PROBKB_MPP_DISTRIBUTION_H_
