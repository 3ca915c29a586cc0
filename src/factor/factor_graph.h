#ifndef PROBKB_FACTOR_FACTOR_GRAPH_H_
#define PROBKB_FACTOR_FACTOR_GRAPH_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "kb/relational_model.h"
#include "relational/table.h"
#include "util/result.h"

namespace probkb {

/// \brief One ground factor: a weighted ground Horn clause
/// head <- body1 [, body2], or a singleton (head only) for an extracted
/// fact's prior weight.
///
/// Semantics (Section 2.2): the factor's value is 1 when the ground clause
/// is violated (all body atoms true, head false) and e^w otherwise; a
/// singleton factor is e^w when the atom is true and 1 otherwise.
struct GroundFactor {
  int32_t head = -1;
  int32_t body1 = -1;  // -1 if absent
  int32_t body2 = -1;  // -1 if absent
  double weight = 0.0;

  int size() const { return 1 + (body1 >= 0 ? 1 : 0) + (body2 >= 0 ? 1 : 0); }

  /// \brief log of the factor value under `assignment` (indexed by
  /// variable): w if the clause is satisfied, 0 otherwise.
  double LogValue(const std::vector<uint8_t>& assignment) const {
    if (body1 < 0) {  // singleton: formula is the atom itself
      return assignment[static_cast<size_t>(head)] ? weight : 0.0;
    }
    bool body_true = assignment[static_cast<size_t>(body1)] &&
                     (body2 < 0 || assignment[static_cast<size_t>(body2)]);
    bool violated = body_true && !assignment[static_cast<size_t>(head)];
    return violated ? 0.0 : weight;
  }
};

/// \brief How a variable occurs in one of its factors. The low bit marks
/// roles whose clause x_v = 0 can violate, the next bit roles whose clause
/// x_v = 1 can violate.
enum class IncidenceRole : uint8_t {
  /// The head also appears in the body: the clause holds either way.
  kSelfLoop = 0,
  /// Head of a clause with a body.
  kHead = 1,
  /// A body atom. When both body atoms are this variable, its twin is the
  /// true slot.
  kBody = 2,
  /// A singleton prior: the head of a clause whose body is the true slot.
  kSingleton = 5,
};

/// \brief The two log-factor values a variable's conditional compares.
struct FlipValues {
  double v1;  // log phi with x_v = 1
  double v0;  // log phi with x_v = 0
};

/// \brief One (variable, incident factor) pair of the compiled graph.
/// `o1`/`o2` are the factor's other atoms, already resolved to variable
/// indices; the graph's true slot stands in for an absent body atom and
/// for a second occurrence of the variable itself. For kHead they are
/// (body1, body2), for kBody (head, the other body atom). The factor's
/// weight is copied in so that a conditional reads only its variable's
/// records and the assignment.
struct Incidence {
  double weight;
  int32_t factor;
  int32_t o1;
  int32_t o2;
  IncidenceRole role;

  /// \brief Both values of the factor as x_v flips, under `a`, which is
  /// indexed by variable and ends with the true slot. Bit-identical to
  /// GroundFactor::LogValue with a[v] set to 1 and to 0, and free of
  /// branches.
  FlipValues LogValues(const uint8_t* a) const {
    const unsigned x1 = a[o1];
    const unsigned x2 = a[o2];
    const unsigned bits = static_cast<unsigned>(role);
    // x_v = 0 violates a head's clause when its body holds; x_v = 1
    // violates a body atom's clause when the rest of the body holds and
    // the head (o1) does not.
    const unsigned violated0 = bits & x1 & x2 & 1u;
    const unsigned violated1 = (bits >> 1) & x2 & ~x1 & 1u;
    const uint64_t wbits = std::bit_cast<uint64_t>(weight);
    // A violated clause contributes +0.0, exactly as LogValue returns.
    return {std::bit_cast<double>(wbits & (uint64_t{violated1} - 1)),
            std::bit_cast<double>(wbits & (uint64_t{violated0} - 1))};
  }
};

/// \brief The ground factor graph produced by grounding (Definition 7),
/// compiled for inference: each variable's incident factors are one
/// contiguous run of Incidence records (CSR), in factor order with one
/// record per occurrence.
///
/// Variables are numbered color-major: a greedy coloring of the
/// variable-interaction graph (variables sharing a factor get different
/// colors) assigns each variable a color, and the variables of color c
/// are the index range [color_ranges()[c], color_ranges()[c + 1]), in TPi
/// row order within a color. Same-color variables are conditionally
/// independent, so the chromatic Gibbs sampler updates a color's range in
/// any order, on any number of threads.
class FactorGraph {
 public:
  /// \brief Builds a graph from the relational outputs: variables are the
  /// distinct fact ids of `t_pi` (compactly renumbered); factors come from
  /// `t_phi` rows (I1, I2, I3, w).
  static Result<FactorGraph> FromTables(const Table& t_pi,
                                        const Table& t_phi);

  int num_variables() const { return static_cast<int>(fact_ids_.size()); }
  int64_t num_factors() const {
    return static_cast<int64_t>(factors_.size());
  }

  const std::vector<GroundFactor>& factors() const { return factors_; }

  /// \brief Incidence records of variable `v`, in factor order.
  std::span<const Incidence> IncidencesOf(int32_t v) const {
    const size_t begin = static_cast<size_t>(offsets_[static_cast<size_t>(v)]);
    const size_t end =
        static_cast<size_t>(offsets_[static_cast<size_t>(v) + 1]);
    return {incidences_.data() + begin, end - begin};
  }

  /// \brief Records of the variables before `v` (0 <= v <=
  /// num_variables()): the CSR's prefix sum, which prices a range of
  /// variables for splitting it between threads.
  int32_t incidence_offset(int32_t v) const {
    return offsets_[static_cast<size_t>(v)];
  }

  /// \brief Index of the slot that kernels read as always true: an
  /// assignment passed to Incidence::LogValues has num_variables() + 1
  /// entries, the last one 1.
  int32_t true_slot() const { return num_variables(); }

  /// \brief The original TPi fact id of variable `v`.
  FactId fact_id(int32_t v) const {
    return fact_ids_[static_cast<size_t>(v)];
  }
  /// \brief Maps a TPi fact id back to its variable index (-1 if unknown).
  int32_t VariableOf(FactId id) const;

  /// \brief Unnormalized log-probability of an assignment: sum of
  /// satisfied-clause weights, Eq. (4).
  double LogScore(const std::vector<uint8_t>& assignment) const;

  /// \brief Color boundaries: color c is the variable range
  /// [color_ranges()[c], color_ranges()[c + 1]). num_colors() + 1 entries.
  const std::vector<int32_t>& color_ranges() const { return color_ranges_; }
  int num_colors() const {
    return static_cast<int>(color_ranges_.size()) - 1;
  }

  /// \brief Factors whose head is `v` and that have a body — i.e. the
  /// derivations of v. The factor table "contains the entire lineage and
  /// can be queried" (Section 4.2.3).
  std::vector<int32_t> DerivationsOf(int32_t v) const;

  /// \brief Pretty-printed derivation tree of variable `v` down to
  /// `max_depth`, with atom names resolved by `describe(fact_id)`.
  std::string ExplainLineage(
      int32_t v, int max_depth,
      const std::function<std::string(FactId)>& describe) const;

 private:
  std::vector<FactId> fact_ids_;
  /// Variables sorted by fact id; VariableOf binary-searches it.
  std::vector<int32_t> by_fact_id_;
  std::vector<GroundFactor> factors_;
  /// incidences_[offsets_[v], offsets_[v + 1]) are v's records.
  std::vector<int32_t> offsets_;
  std::vector<Incidence> incidences_;
  std::vector<int32_t> color_ranges_{0};
};

}  // namespace probkb

#endif  // PROBKB_FACTOR_FACTOR_GRAPH_H_
