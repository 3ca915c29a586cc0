#include "factor/factor_graph.h"

#include <algorithm>
#include <functional>

#include "util/strings.h"

namespace probkb {

namespace {

/// The record of variable `v` in factor `f` (index `fi`); `true_slot`
/// replaces an absent atom and a second occurrence of `v`.
Incidence CompileIncidence(const GroundFactor& f, int32_t fi, int32_t v,
                           int32_t true_slot) {
  auto other = [&](int32_t u) { return u < 0 || u == v ? true_slot : u; };
  if (f.body1 < 0) {
    return {f.weight, fi, true_slot, true_slot, IncidenceRole::kSingleton};
  }
  if (f.head != v) {
    return {f.weight, fi, f.head, other(f.body1 == v ? f.body2 : f.body1),
            IncidenceRole::kBody};
  }
  const bool loop = f.body1 == v || f.body2 == v;
  return {f.weight, fi, other(f.body1), other(f.body2),
          loop ? IncidenceRole::kSelfLoop : IncidenceRole::kHead};
}

}  // namespace

Result<FactorGraph> FactorGraph::FromTables(const Table& t_pi,
                                            const Table& t_phi) {
  FactorGraph g;
  const int64_t n = t_pi.NumRows();
  g.fact_ids_.reserve(static_cast<size_t>(n));
  g.by_fact_id_.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    g.fact_ids_.push_back(t_pi.row(i)[tpi::kI].i64());
    g.by_fact_id_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  auto id_less = [&g](int32_t a, int32_t b) {
    return g.fact_ids_[static_cast<size_t>(a)] <
           g.fact_ids_[static_cast<size_t>(b)];
  };
  std::sort(g.by_fact_id_.begin(), g.by_fact_id_.end(), id_less);
  auto dup = std::adjacent_find(
      g.by_fact_id_.begin(), g.by_fact_id_.end(),
      [&id_less](int32_t a, int32_t b) { return !id_less(a, b); });
  if (dup != g.by_fact_id_.end()) {
    return Status::InvalidArgument(
        StrFormat("duplicate fact id %lld in TPi",
                  static_cast<long long>(g.fact_id(*dup))));
  }

  auto var = [&g](const Value& v) -> Result<int32_t> {
    int32_t idx = g.VariableOf(v.i64());
    if (idx < 0) {
      return Status::InvalidArgument(
          StrFormat("factor references unknown fact id %lld",
                    static_cast<long long>(v.i64())));
    }
    return idx;
  };

  // One pass reads the factors and counts each variable's occurrences;
  // the prefix sum places the records, which a second pass fills in
  // factor order.
  g.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  g.factors_.reserve(static_cast<size_t>(t_phi.NumRows()));
  for (int64_t i = 0; i < t_phi.NumRows(); ++i) {
    RowView row = t_phi.row(i);
    GroundFactor f;
    PROBKB_ASSIGN_OR_RETURN(f.head, var(row[tphi::kI1]));
    if (!row[tphi::kI2].is_null()) {
      PROBKB_ASSIGN_OR_RETURN(f.body1, var(row[tphi::kI2]));
    }
    if (!row[tphi::kI3].is_null()) {
      PROBKB_ASSIGN_OR_RETURN(f.body2, var(row[tphi::kI3]));
    }
    if (f.body1 < 0 && f.body2 >= 0) {
      return Status::InvalidArgument("factor has I3 but not I2");
    }
    f.weight = row[tphi::kW].is_null() ? 0.0 : row[tphi::kW].f64();
    for (int32_t v : {f.head, f.body1, f.body2}) {
      if (v >= 0) ++g.offsets_[static_cast<size_t>(v) + 1];
    }
    g.factors_.push_back(f);
  }
  for (size_t v = 1; v < g.offsets_.size(); ++v) {
    g.offsets_[v] += g.offsets_[v - 1];
  }
  g.incidences_.resize(static_cast<size_t>(g.offsets_.back()));
  std::vector<int32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  const int32_t true_slot = g.true_slot();
  for (size_t fi = 0; fi < g.factors_.size(); ++fi) {
    const GroundFactor& f = g.factors_[fi];
    for (int32_t v : {f.head, f.body1, f.body2}) {
      if (v < 0) continue;
      g.incidences_[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] =
          CompileIncidence(f, static_cast<int32_t>(fi), v, true_slot);
    }
  }
  return g;
}

int32_t FactorGraph::VariableOf(FactId id) const {
  if (by_fact_id_.empty()) return -1;
  // Branch-free search for the last variable whose fact id is <= id: the
  // trip count depends only on the size, so resolving TPhi's ids in
  // FromTables does not stall on mispredicted comparisons.
  const int32_t* base = by_fact_id_.data();
  for (size_t len = by_fact_id_.size(); len > 1; len -= len / 2) {
    const size_t half = len / 2;
    base = fact_id(base[half]) <= id ? base + half : base;
  }
  return fact_id(*base) == id ? *base : -1;
}

double FactorGraph::LogScore(const std::vector<uint8_t>& assignment) const {
  double score = 0.0;
  for (const GroundFactor& f : factors_) score += f.LogValue(assignment);
  return score;
}

std::vector<int> FactorGraph::ColorVariables() const {
  const int n = num_variables();
  std::vector<int> color(static_cast<size_t>(n), -1);
  std::vector<int> used;  // scratch: colors used by neighbours
  for (int32_t v = 0; v < n; ++v) {
    used.clear();
    for (const Incidence& r : IncidencesOf(v)) {
      for (int32_t u : {r.o1, r.o2}) {
        if (u != true_slot() && color[static_cast<size_t>(u)] >= 0) {
          used.push_back(color[static_cast<size_t>(u)]);
        }
      }
    }
    std::sort(used.begin(), used.end());
    int c = 0;
    for (int uc : used) {
      if (uc == c) {
        ++c;
      } else if (uc > c) {
        break;
      }
    }
    color[static_cast<size_t>(v)] = c;
  }
  return color;
}

std::vector<int32_t> FactorGraph::DerivationsOf(int32_t v) const {
  std::vector<int32_t> out;
  for (const Incidence& r : IncidencesOf(v)) {
    const GroundFactor& f = factors_[static_cast<size_t>(r.factor)];
    if (f.head == v && f.body1 >= 0) out.push_back(r.factor);
  }
  return out;
}

std::string FactorGraph::ExplainLineage(
    int32_t v, int max_depth,
    const std::function<std::string(FactId)>& describe) const {
  std::string out;
  std::function<void(int32_t, int)> recurse = [&](int32_t var, int depth) {
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += describe(fact_id(var));
    out += "\n";
    if (depth >= max_depth) return;
    for (int32_t fi : DerivationsOf(var)) {
      const GroundFactor& f = factors_[static_cast<size_t>(fi)];
      out.append(static_cast<size_t>(depth) * 2 + 2, ' ');
      out += StrFormat("<- (rule weight %.2f)\n", f.weight);
      for (int32_t b : {f.body1, f.body2}) {
        if (b >= 0) recurse(b, depth + 2);
      }
    }
  };
  recurse(v, 0);
  return out;
}

}  // namespace probkb
