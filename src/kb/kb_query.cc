#include "kb/kb_query.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace probkb {

std::string QueryPattern::ToString() const {
  if (is_entity_query()) return entity;
  return relation + "(" + (x.has_value() ? *x : std::string("*")) + ", " +
         (y.has_value() ? *y : std::string("*")) + ")";
}

namespace {

/// `*` and `?` both mean "any"; everything else is a name to resolve.
std::optional<std::string> ParseArgToken(std::string_view token) {
  if (token == "*" || token == "?") return std::nullopt;
  return std::string(token);
}

}  // namespace

Result<QueryPattern> ParseQueryPattern(std::string_view text) {
  std::string trimmed(StripWhitespace(text));
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty query");
  }
  QueryPattern pattern;
  const size_t open = trimmed.find('(');
  if (open == std::string::npos) {
    if (trimmed.find(')') != std::string::npos ||
        trimmed.find(',') != std::string::npos) {
      return Status::InvalidArgument("malformed query '" + trimmed +
                                     "': expected rel(x, y) or an entity");
    }
    pattern.entity = trimmed;
    return pattern;
  }
  if (trimmed.back() != ')') {
    return Status::InvalidArgument("malformed query '" + trimmed +
                                   "': missing ')'");
  }
  pattern.relation = StripWhitespace(trimmed.substr(0, open));
  if (pattern.relation.empty()) {
    return Status::InvalidArgument("malformed query '" + trimmed +
                                   "': empty relation name");
  }
  std::string args = trimmed.substr(open + 1, trimmed.size() - open - 2);
  std::vector<std::string_view> parts = Split(args, ',');
  if (parts.size() != 2) {
    return Status::InvalidArgument("malformed query '" + trimmed +
                                   "': expected exactly two arguments");
  }
  std::string_view x = StripWhitespace(parts[0]);
  std::string_view y = StripWhitespace(parts[1]);
  if (x.empty() || y.empty()) {
    return Status::InvalidArgument("malformed query '" + trimmed +
                                   "': empty argument");
  }
  pattern.x = ParseArgToken(x);
  pattern.y = ParseArgToken(y);
  return pattern;
}

KbQuery::KbQuery(const KnowledgeBase* kb, TablePtr t_pi,
                 FactId first_inferred_id)
    : kb_(kb), t_pi_(std::move(t_pi)), first_inferred_id_(first_inferred_id) {
  by_relation_ = GroupRows({tpi::kR});
  by_entity_ = GroupRows({tpi::kX, tpi::kY});
}

std::span<const int64_t> KbQuery::RowGroups::Of(int64_t id) const {
  if (id < 0 || id + 1 >= static_cast<int64_t>(offsets.size())) return {};
  return std::span<const int64_t>(rows).subspan(
      static_cast<size_t>(offsets[static_cast<size_t>(id)]),
      static_cast<size_t>(offsets[static_cast<size_t>(id) + 1] -
                          offsets[static_cast<size_t>(id)]));
}

KbQuery::RowGroups KbQuery::GroupRows(const std::vector<int>& cols) const {
  const int64_t n = t_pi_->NumRows();
  std::vector<const int64_t*> ids;
  int64_t max_id = -1;
  for (int c : cols) {
    ids.push_back(t_pi_->Int64Data(c));
    for (int64_t i = 0; i < n; ++i) max_id = std::max(max_id, ids.back()[i]);
  }
  // Calls fn(id, row) once per distinct non-negative id of each row, rows
  // ascending.
  auto each = [&](auto&& fn) {
    for (int64_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < ids.size(); ++c) {
        const int64_t id = ids[c][i];
        bool repeat = id < 0;
        for (size_t d = 0; d < c && !repeat; ++d) repeat = ids[d][i] == id;
        if (!repeat) fn(static_cast<size_t>(id), i);
      }
    }
  };
  RowGroups groups;
  groups.offsets.assign(static_cast<size_t>(max_id + 2), 0);
  each([&](size_t id, int64_t) { ++groups.offsets[id + 1]; });
  for (size_t k = 1; k < groups.offsets.size(); ++k) {
    groups.offsets[k] += groups.offsets[k - 1];
  }
  groups.rows.resize(static_cast<size_t>(groups.offsets.back()));
  std::vector<int64_t> next(groups.offsets.begin(), groups.offsets.end() - 1);
  each([&](size_t id, int64_t i) {
    groups.rows[static_cast<size_t>(next[id]++)] = i;
  });
  return groups;
}

KbQuery::ScoredFact KbQuery::MakeScored(const RowView& row) const {
  ScoredFact out;
  out.fact = FactFromRow(row);
  out.inferred = first_inferred_id_ >= 0
                     ? row[tpi::kI].i64() >= first_inferred_id_
                     : row[tpi::kW].is_null();
  out.score = row[tpi::kW].is_null() ? std::nan("") : row[tpi::kW].f64();
  return out;
}

void KbQuery::CollectSorted(
    std::span<const int64_t> rows, double min_score,
    const std::function<bool(const RowView&)>& filter,
    std::vector<ScoredFact>* out) const {
  for (int64_t i : rows) {
    RowView row = t_pi_->row(i);
    if (filter != nullptr && !filter(row)) continue;
    ScoredFact scored = MakeScored(row);
    if (!std::isnan(scored.score) && scored.score < min_score) continue;
    if (std::isnan(scored.score) && min_score > 0) continue;
    out->push_back(std::move(scored));
  }
  std::stable_sort(out->begin(), out->end(),
                   [](const ScoredFact& a, const ScoredFact& b) {
                     double sa = std::isnan(a.score) ? -1e300 : a.score;
                     double sb = std::isnan(b.score) ? -1e300 : b.score;
                     return sa > sb;
                   });
}

std::vector<KbQuery::ScoredFact> KbQuery::Find(
    std::string_view relation, std::optional<std::string_view> x,
    std::optional<std::string_view> y, double min_score) const {
  std::vector<ScoredFact> out;
  RelationId rel = kb_->relations().Lookup(relation);
  if (rel == kInvalidId) return out;
  EntityId want_x = kInvalidId, want_y = kInvalidId;
  if (x.has_value()) {
    want_x = kb_->entities().Lookup(*x);
    if (want_x == kInvalidId) return out;
  }
  if (y.has_value()) {
    want_y = kb_->entities().Lookup(*y);
    if (want_y == kInvalidId) return out;
  }
  CollectSorted(by_relation_.Of(rel), min_score,
                [&](const RowView& row) {
                  if (want_x != kInvalidId && row[tpi::kX].i64() != want_x) {
                    return false;
                  }
                  if (want_y != kInvalidId && row[tpi::kY].i64() != want_y) {
                    return false;
                  }
                  return true;
                },
                &out);
  return out;
}

std::vector<KbQuery::ScoredFact> KbQuery::FactsAbout(
    std::string_view entity, double min_score) const {
  std::vector<ScoredFact> out;
  EntityId e = kb_->entities().Lookup(entity);
  if (e == kInvalidId) return out;
  CollectSorted(by_entity_.Of(e), min_score, nullptr, &out);
  return out;
}

std::vector<int64_t> KbQuery::SeedRows(const QueryPattern& pattern) const {
  std::vector<int64_t> out;
  if (pattern.is_entity_query()) {
    EntityId e = kb_->entities().Lookup(pattern.entity);
    if (e == kInvalidId) return out;
    const std::span<const int64_t> rows = by_entity_.Of(e);
    return {rows.begin(), rows.end()};  // grouped in ascending row order
  }
  RelationId rel = kb_->relations().Lookup(pattern.relation);
  if (rel == kInvalidId) return out;
  EntityId want_x = kInvalidId, want_y = kInvalidId;
  if (pattern.x.has_value()) {
    want_x = kb_->entities().Lookup(*pattern.x);
    if (want_x == kInvalidId) return out;
  }
  if (pattern.y.has_value()) {
    want_y = kb_->entities().Lookup(*pattern.y);
    if (want_y == kInvalidId) return out;
  }
  const int64_t* x = t_pi_->Int64Data(tpi::kX);
  const int64_t* y = t_pi_->Int64Data(tpi::kY);
  for (int64_t i : by_relation_.Of(rel)) {
    if (want_x != kInvalidId && x[i] != want_x) continue;
    if (want_y != kInvalidId && y[i] != want_y) continue;
    out.push_back(i);
  }
  return out;
}

std::string KbQuery::ToString(const ScoredFact& fact) const {
  std::string score = std::isnan(fact.score)
                          ? std::string("  ?  ")
                          : StrFormat("%.3f", fact.score);
  return score + " " + kb_->FactToString(fact.fact) +
         (fact.inferred ? " [inferred]" : "");
}

}  // namespace probkb
