#ifndef PROBKB_KB_RELATIONAL_MODEL_H_
#define PROBKB_KB_RELATIONAL_MODEL_H_

#include <array>
#include <vector>

#include "kb/knowledge_base.h"
#include "relational/table.h"
#include "util/result.h"

namespace probkb {

/// Column positions of the facts table TPi (Definition 4):
/// (I, R, x, C1, y, C2, w).
namespace tpi {
inline constexpr int kI = 0;
inline constexpr int kR = 1;
inline constexpr int kX = 2;
inline constexpr int kC1 = 3;
inline constexpr int kY = 4;
inline constexpr int kC2 = 5;
inline constexpr int kW = 6;
inline constexpr int kWidth = 7;
}  // namespace tpi

/// Column positions of the length-2 MLN tables M1, M2:
/// (R1, R2, C1, C2, w).
namespace mlen2 {
inline constexpr int kR1 = 0;
inline constexpr int kR2 = 1;
inline constexpr int kC1 = 2;
inline constexpr int kC2 = 3;
inline constexpr int kW = 4;
}  // namespace mlen2

/// Column positions of the length-3 MLN tables M3..M6:
/// (R1, R2, R3, C1, C2, C3, w).
namespace mlen3 {
inline constexpr int kR1 = 0;
inline constexpr int kR2 = 1;
inline constexpr int kR3 = 2;
inline constexpr int kC1 = 3;
inline constexpr int kC2 = 4;
inline constexpr int kC3 = 5;
inline constexpr int kW = 6;
}  // namespace mlen3

/// Column positions of the constraints table TOmega (Definition 11):
/// (R, arg, deg).
namespace tomega {
inline constexpr int kR = 0;
inline constexpr int kArg = 1;
inline constexpr int kDeg = 2;
}  // namespace tomega

/// Column positions of the factors table TPhi (Definition 7):
/// (I1, I2, I3, w). I2/I3 are NULL for factors of size 1 or 2.
namespace tphi {
inline constexpr int kI1 = 0;
inline constexpr int kI2 = 1;
inline constexpr int kI3 = 2;
inline constexpr int kW = 3;
}  // namespace tphi

Schema TPiSchema();
Schema MLen2Schema();
Schema MLen3Schema();
Schema TOmegaSchema();
Schema TPhiSchema();
Schema TCSchema();  // (C, e), Definition 2
Schema TRSchema();  // (R, C1, C2), Definition 3

/// \brief The relational encoding of a probabilistic KB (Section 4.2): one
/// facts table, six MLN partition tables, one constraint table, plus the
/// class-membership and relation-signature tables.
struct RelationalKB {
  TablePtr t_pi;
  std::array<TablePtr, kNumRuleStructures> m;  // m[0] = M1, ..., m[5] = M6
  TablePtr t_omega;
  TablePtr t_c;
  TablePtr t_r;
  /// First unused fact id; the grounder assigns ids from here.
  FactId next_fact_id = 0;
};

/// \brief Encodes `kb` into relational form with `rules` in place of
/// kb.rules() (rule cleaning passes the rules it keeps, so the KB is not
/// copied). Facts receive ids 0..n-1 in order; rules are routed to their
/// partition table by structure.
RelationalKB BuildRelationalModel(const KnowledgeBase& kb,
                                  const std::vector<HornRule>& rules);

/// \brief Encodes `kb` with its own rules.
RelationalKB BuildRelationalModel(const KnowledgeBase& kb);

/// \brief Decodes one TPi row into a Fact.
Fact FactFromRow(const RowView& row);

/// \brief Appends `fact` to a TPi table under id `id`.
void AppendFactRow(Table* t_pi, FactId id, const Fact& fact);

}  // namespace probkb

#endif  // PROBKB_KB_RELATIONAL_MODEL_H_
