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

/// Greedy first-fit coloring of the variable-interaction graph in row
/// order: row r takes the smallest color no factor neighbour before it
/// holds. `degree` is the prefix sum of each row's occurrences in
/// `factors`.
std::vector<int32_t> GreedyColors(const std::vector<GroundFactor>& factors,
                                  const std::vector<int32_t>& degree,
                                  size_t* num_colors) {
  const size_t n = degree.size() - 1;
  // factors_of[degree[r], degree[r + 1]) are the factors of row r.
  std::vector<int32_t> factors_of(static_cast<size_t>(degree.back()));
  std::vector<int32_t> cursor(degree.begin(), degree.end() - 1);
  for (size_t fi = 0; fi < factors.size(); ++fi) {
    const GroundFactor& f = factors[fi];
    for (int32_t r : {f.head, f.body1, f.body2}) {
      if (r >= 0) {
        factors_of[static_cast<size_t>(cursor[static_cast<size_t>(r)]++)] =
            static_cast<int32_t>(fi);
      }
    }
  }
  std::vector<int32_t> color(n);
  // stamp[c] == r marks color c as taken by a neighbour of row r.
  std::vector<int32_t> stamp;
  for (int32_t r = 0; r < static_cast<int32_t>(n); ++r) {
    for (int32_t k = degree[static_cast<size_t>(r)];
         k < degree[static_cast<size_t>(r) + 1]; ++k) {
      const GroundFactor& f =
          factors[static_cast<size_t>(factors_of[static_cast<size_t>(k)])];
      for (int32_t u : {f.head, f.body1, f.body2}) {
        // Only rows before r are colored yet.
        if (u >= 0 && u < r) {
          stamp[static_cast<size_t>(color[static_cast<size_t>(u)])] = r;
        }
      }
    }
    size_t c = 0;
    while (c < stamp.size() && stamp[c] == r) ++c;
    if (c == stamp.size()) stamp.push_back(-1);
    color[static_cast<size_t>(r)] = static_cast<int32_t>(c);
  }
  *num_colors = stamp.size();
  return color;
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

  // One pass reads the factors (variables numbered by TPi row for now)
  // and counts each variable's occurrences; the prefix sum lays out a
  // temporary CSR of factor indices per variable, which the coloring
  // walks.
  std::vector<int32_t> degree(static_cast<size_t>(n) + 1, 0);
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
      if (v >= 0) ++degree[static_cast<size_t>(v) + 1];
    }
    g.factors_.push_back(f);
  }
  for (size_t v = 1; v < degree.size(); ++v) degree[v] += degree[v - 1];

  // Each row's color, until the counting sort below turns it into the
  // row's variable.
  size_t num_colors = 0;
  std::vector<int32_t> var_of_row =
      GreedyColors(g.factors_, degree, &num_colors);
  g.color_ranges_.assign(num_colors + 1, 0);

  // Counting sort by color, stable in row order; then every row-numbered
  // array is renumbered.
  for (int32_t c : var_of_row) ++g.color_ranges_[static_cast<size_t>(c) + 1];
  for (size_t c = 1; c < g.color_ranges_.size(); ++c) {
    g.color_ranges_[c] += g.color_ranges_[c - 1];
  }
  {
    std::vector<int32_t> next(g.color_ranges_.begin(),
                              g.color_ranges_.end() - 1);
    for (int32_t& c : var_of_row) c = next[static_cast<size_t>(c)]++;
  }
  auto renumber = [&var_of_row](int32_t r) {
    return r < 0 ? r : var_of_row[static_cast<size_t>(r)];
  };
  {
    std::vector<FactId> ids(static_cast<size_t>(n));
    g.offsets_.assign(static_cast<size_t>(n) + 1, 0);
    for (int32_t r = 0; r < n; ++r) {
      const size_t v = static_cast<size_t>(renumber(r));
      ids[v] = g.fact_ids_[static_cast<size_t>(r)];
      g.offsets_[v + 1] = degree[static_cast<size_t>(r) + 1] -
                          degree[static_cast<size_t>(r)];
    }
    g.fact_ids_ = std::move(ids);
  }
  for (int32_t& r : g.by_fact_id_) r = renumber(r);
  for (GroundFactor& f : g.factors_) {
    f.head = renumber(f.head);
    f.body1 = renumber(f.body1);
    f.body2 = renumber(f.body2);
  }

  // The records, placed by the prefix sum over the renumbered degrees and
  // filled in factor order.
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
