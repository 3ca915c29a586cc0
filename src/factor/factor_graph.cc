#include "factor/factor_graph.h"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>

#include "util/strings.h"

namespace probkb {

namespace {

/// The variables of `f`, each once, head first, then the body atoms.
std::array<int32_t, 3> DistinctVariables(const GroundFactor& f) {
  return {f.head, f.body1 != f.head ? f.body1 : -1,
          f.body2 != f.head && f.body2 != f.body1 ? f.body2 : -1};
}

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
/// holds. `factors_of[degree[r], degree[r + 1])` are the factors of row r.
std::vector<int32_t> GreedyColors(const std::vector<GroundFactor>& factors,
                                  const std::vector<int32_t>& degree,
                                  const std::vector<int32_t>& factors_of,
                                  size_t* num_colors) {
  const size_t n = degree.size() - 1;
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

Status FactorGraph::IndexFactIds() {
  const size_t n = fact_ids_.size();
  if (n == 0) return Status::OK();
  const auto [lo, hi] =
      std::minmax_element(fact_ids_.begin(), fact_ids_.end());
  // Dense when the id range is under twice the row count; a duplicate
  // falls through to the sorted path, which names the smallest one.
  const uint64_t span =
      static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
  if (span < 2 * static_cast<uint64_t>(n)) {
    min_id_ = *lo;
    variable_of_id_.assign(static_cast<size_t>(span) + 1, -1);
    for (size_t r = 0; r < n; ++r) {
      int32_t& slot =
          variable_of_id_[static_cast<size_t>(fact_ids_[r] - min_id_)];
      if (slot >= 0) {
        variable_of_id_.clear();
        break;
      }
      slot = static_cast<int32_t>(r);
    }
    if (!variable_of_id_.empty()) return Status::OK();
  }
  by_fact_id_.resize(n);
  std::iota(by_fact_id_.begin(), by_fact_id_.end(), 0);
  auto id_less = [this](int32_t a, int32_t b) {
    return fact_ids_[static_cast<size_t>(a)] <
           fact_ids_[static_cast<size_t>(b)];
  };
  if (!std::is_sorted(fact_ids_.begin(), fact_ids_.end())) {
    std::sort(by_fact_id_.begin(), by_fact_id_.end(), id_less);
  }
  auto dup = std::adjacent_find(
      by_fact_id_.begin(), by_fact_id_.end(),
      [&id_less](int32_t a, int32_t b) { return !id_less(a, b); });
  if (dup != by_fact_id_.end()) {
    return Status::InvalidArgument(
        StrFormat("duplicate fact id %lld in TPi",
                  static_cast<long long>(fact_id(*dup))));
  }
  return Status::OK();
}

Result<FactorGraph> FactorGraph::FromTables(const Table& t_pi,
                                            const Table& t_phi) {
  FactorGraph g;
  const int64_t n = t_pi.NumRows();
  if (n > 0) {
    const FactId* ids = t_pi.Int64Data(tpi::kI);
    g.fact_ids_.assign(ids, ids + n);
  }
  PROBKB_RETURN_NOT_OK(g.IndexFactIds());

  auto unknown = [](FactId id) {
    return Status::InvalidArgument(StrFormat(
        "factor references unknown fact id %lld", static_cast<long long>(id)));
  };

  // One pass over TPhi's columns reads the factors (variables numbered by
  // TPi row for now) and counts each variable's factors. A variable
  // occurring twice in a factor (a twin body atom, a self-loop) counts it
  // once: its record's role and true slot already say how it occurs.
  const int64_t m = t_phi.NumRows();
  std::vector<int32_t> degree(static_cast<size_t>(n) + 1, 0);
  g.factors_.reserve(static_cast<size_t>(m));
  if (m > 0) {
    const int64_t* i1 = t_phi.Int64Data(tphi::kI1);
    const int64_t* i2 = t_phi.Int64Data(tphi::kI2);
    const int64_t* i3 = t_phi.Int64Data(tphi::kI3);
    const double* w = t_phi.Float64Data(tphi::kW);
    for (int64_t i = 0; i < m; ++i) {
      if (t_phi.IsNull(i, tphi::kI1)) {
        return Status::InvalidArgument(StrFormat(
            "factor %lld has a NULL I1", static_cast<long long>(i)));
      }
      GroundFactor f;
      f.head = g.VariableOf(i1[i]);
      if (f.head < 0) return unknown(i1[i]);
      if (!t_phi.IsNull(i, tphi::kI2)) {
        f.body1 = g.VariableOf(i2[i]);
        if (f.body1 < 0) return unknown(i2[i]);
      }
      if (!t_phi.IsNull(i, tphi::kI3)) {
        f.body2 = g.VariableOf(i3[i]);
        if (f.body2 < 0) return unknown(i3[i]);
        if (f.body1 < 0) {
          return Status::InvalidArgument("factor has I3 but not I2");
        }
      }
      f.weight = t_phi.IsNull(i, tphi::kW) ? 0.0 : w[i];
      for (int32_t v : DistinctVariables(f)) {
        if (v >= 0) ++degree[static_cast<size_t>(v) + 1];
      }
      g.factors_.push_back(f);
    }
  }
  for (size_t v = 1; v < degree.size(); ++v) degree[v] += degree[v - 1];

  // factors_of[degree[r], degree[r + 1]) lists row r's factors in factor
  // order, each once. The coloring walks it, and so does the emission of
  // the incidence records below.
  std::vector<int32_t> factors_of(static_cast<size_t>(degree.back()));
  {
    std::vector<int32_t> cursor(degree.begin(), degree.end() - 1);
    for (size_t fi = 0; fi < g.factors_.size(); ++fi) {
      const GroundFactor& f = g.factors_[fi];
      for (int32_t r : DistinctVariables(f)) {
        if (r >= 0) {
          factors_of[static_cast<size_t>(cursor[static_cast<size_t>(r)]++)] =
              static_cast<int32_t>(fi);
        }
      }
    }
  }

  // Each row's color, until the counting sort below turns it into the
  // row's variable.
  size_t num_colors = 0;
  std::vector<int32_t> var_of_row =
      GreedyColors(g.factors_, degree, factors_of, &num_colors);
  g.color_ranges_.assign(num_colors + 1, 0);

  // Counting sort by color, stable in row order; then every row-numbered
  // array is renumbered.
  for (int32_t c : var_of_row) ++g.color_ranges_[static_cast<size_t>(c) + 1];
  for (size_t c = 1; c < g.color_ranges_.size(); ++c) {
    g.color_ranges_[c] += g.color_ranges_[c - 1];
  }
  std::vector<int32_t> row_of_var(static_cast<size_t>(n));
  {
    std::vector<int32_t> next(g.color_ranges_.begin(),
                              g.color_ranges_.end() - 1);
    for (int32_t r = 0; r < n; ++r) {
      int32_t& c = var_of_row[static_cast<size_t>(r)];
      c = next[static_cast<size_t>(c)]++;
      row_of_var[static_cast<size_t>(c)] = r;
    }
  }
  auto renumber = [&var_of_row](int32_t r) {
    return r < 0 ? r : var_of_row[static_cast<size_t>(r)];
  };
  {
    std::vector<FactId> ids(static_cast<size_t>(n));
    for (size_t v = 0; v < ids.size(); ++v) {
      ids[v] = g.fact_ids_[static_cast<size_t>(row_of_var[v])];
    }
    g.fact_ids_ = std::move(ids);
  }
  for (int32_t& r : g.variable_of_id_) r = renumber(r);
  for (int32_t& r : g.by_fact_id_) r = renumber(r);
  for (GroundFactor& f : g.factors_) {
    f.head = renumber(f.head);
    f.body1 = renumber(f.body1);
    f.body2 = renumber(f.body2);
  }

  // The records, one variable's run at a time in variable order; a run
  // lists its row's factors in factor order.
  g.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  g.incidences_.reserve(factors_of.size());
  const int32_t true_slot = g.true_slot();
  for (int32_t v = 0; v < n; ++v) {
    const size_t r = static_cast<size_t>(row_of_var[static_cast<size_t>(v)]);
    for (int32_t k = degree[r]; k < degree[r + 1]; ++k) {
      const int32_t fi = factors_of[static_cast<size_t>(k)];
      g.incidences_.push_back(CompileIncidence(
          g.factors_[static_cast<size_t>(fi)], fi, v, true_slot));
    }
    g.offsets_[static_cast<size_t>(v) + 1] =
        static_cast<int32_t>(g.incidences_.size());
  }
  return g;
}

int32_t FactorGraph::VariableOf(FactId id) const {
  if (!variable_of_id_.empty()) {
    const uint64_t offset =
        static_cast<uint64_t>(id) - static_cast<uint64_t>(min_id_);
    return offset < variable_of_id_.size()
               ? variable_of_id_[static_cast<size_t>(offset)]
               : -1;
  }
  if (by_fact_id_.empty()) return -1;
  // Branch-free search for the last variable whose fact id is <= id: the
  // trip count depends only on the size.
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
