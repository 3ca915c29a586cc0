#ifndef PROBKB_KB_KB_QUERY_H_
#define PROBKB_KB_KB_QUERY_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kb/knowledge_base.h"
#include "kb/relational_model.h"
#include "relational/table.h"
#include "util/result.h"

namespace probkb {

/// \brief One parsed serve-mode query: a fact pattern `relation(x, y)`
/// with `*` (or `?`) wildcards, or a bare entity name meaning "all facts
/// mentioning this entity".
struct QueryPattern {
  /// Empty for entity queries.
  std::string relation;
  /// Unset components are wildcards.
  std::optional<std::string> x;
  std::optional<std::string> y;
  /// Set for entity queries only.
  std::string entity;

  bool is_entity_query() const { return relation.empty(); }
  std::string ToString() const;
};

/// \brief Parses the textual query forms the serve CLI accepts:
/// "rel(x, y)", "rel(x, *)", "rel(*, *)", or a bare "Entity". Whitespace
/// around tokens is ignored; empty input or an unbalanced pattern is an
/// InvalidArgument error (name resolution happens later, against the KB
/// dictionaries — unknown names are empty answers, not errors).
Result<QueryPattern> ParseQueryPattern(std::string_view text);

/// \brief Read-side API over an expanded knowledge base.
///
/// After grounding + marginal write-back, the expanded TPi answers fact
/// lookups directly — the "avoiding query-time computation, improving
/// system responsivity" design point of Section 2.2. The view indexes the
/// facts by relation and by entity at construction; lookups are by name
/// (resolved through the KB dictionaries).
class KbQuery {
 public:
  /// `kb` provides the dictionaries; `t_pi` the (expanded) facts. Both
  /// must outlive the view, and `t_pi` must not be mutated afterwards.
  /// `first_inferred_id` marks where inferred fact ids start (the
  /// RelationalKB's next_fact_id before grounding); facts with ids >= it
  /// are flagged inferred. Pass -1 to fall back to the NULL-weight
  /// heuristic (correct before marginal write-back only).
  KbQuery(const KnowledgeBase* kb, TablePtr t_pi,
          FactId first_inferred_id = -1);

  struct ScoredFact {
    Fact fact;
    /// w column: extraction weight for base facts, marginal probability
    /// for inferred facts after WriteMarginalsToTPi (NaN before).
    double score = 0.0;
    bool inferred = false;
  };

  /// \brief Facts matching the pattern relation(x, y); empty optionals are
  /// wildcards. Unknown names yield an empty result, not an error. Results
  /// are sorted by descending score.
  std::vector<ScoredFact> Find(std::string_view relation,
                               std::optional<std::string_view> x,
                               std::optional<std::string_view> y,
                               double min_score = 0.0) const;

  /// \brief All facts mentioning `entity` (as subject or object), sorted
  /// by descending score.
  std::vector<ScoredFact> FactsAbout(std::string_view entity,
                                     double min_score = 0.0) const;

  /// \brief TPi row indices matching `pattern`, in ascending row order —
  /// the seed set the serve path grounds backward from. Unknown names
  /// yield an empty result.
  std::vector<int64_t> SeedRows(const QueryPattern& pattern) const;

  /// \brief Renders a scored fact ("0.87 live_in(Ann, Paris) [inferred]").
  std::string ToString(const ScoredFact& fact) const;

  int64_t NumFacts() const { return t_pi_->NumRows(); }

 private:
  /// TPi rows grouped by a dictionary id, in CSR form: the rows of id k
  /// are rows[offsets[k] .. offsets[k + 1]), ascending.
  struct RowGroups {
    std::vector<int64_t> offsets;
    std::vector<int64_t> rows;
    std::span<const int64_t> Of(int64_t id) const;
  };
  /// Groups TPi's rows by the ids in `cols`, filing a row once under each
  /// distinct id it holds there.
  RowGroups GroupRows(const std::vector<int>& cols) const;

  ScoredFact MakeScored(const RowView& row) const;
  void CollectSorted(std::span<const int64_t> rows,
                     double min_score,
                     const std::function<bool(const RowView&)>& filter,
                     std::vector<ScoredFact>* out) const;

  const KnowledgeBase* kb_;
  TablePtr t_pi_;
  FactId first_inferred_id_;
  RowGroups by_relation_;
  RowGroups by_entity_;
};

}  // namespace probkb

#endif  // PROBKB_KB_KB_QUERY_H_
