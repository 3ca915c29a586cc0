#ifndef PROBKB_TESTS_TEST_UTIL_H_
#define PROBKB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "factor/factor_graph.h"
#include "kb/knowledge_base.h"
#include "kb/relational_model.h"
#include "relational/table.h"

namespace probkb {
namespace testutil {

/// FNV-1a over every cell of `table` in row order: a NULL marker byte, or
/// the cell's 8-byte bit pattern. Chain digests by passing one as `h`.
inline uint64_t TableDigest(const Table& table,
                            uint64_t h = 0xcbf29ce484222325ULL) {
  auto mix = [&h](uint64_t bits, int bytes) {
    for (int byte = 0; byte < bytes; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (int64_t i = 0; i < table.NumRows(); ++i) {
    RowView row = table.row(i);
    for (int c = 0; c < row.width(); ++c) {
      const Value v = row[c];
      if (v.is_null()) {
        mix(0xff, 1);
      } else if (v.is_int64()) {
        mix(static_cast<uint64_t>(v.i64()), 8);
      } else {
        mix(std::bit_cast<uint64_t>(v.f64()), 8);
      }
    }
  }
  return h;
}

/// \brief Builds the ReVerb-Sherlock running example of the paper's
/// Table 1: Ruth Gruber's born_in facts, four M1 rules (live_in /
/// grow_up_in from born_in over Place and City), two M3 rules (located_in
/// from live_in / born_in pairs), and the born_in Type-I functional
/// constraint.
///
/// Symbols (useful for assertions): entities RG, NYC, Br; classes W
/// (Writer), C (City), P (Place); relations born_in, live_in, grow_up_in,
/// located_in.
inline KnowledgeBase BuildPaperExampleKB() {
  KnowledgeBase kb;
  // Intern in a fixed order so tests can reference stable ids.
  EntityId rg = kb.entities().GetOrAdd("Ruth Gruber");
  EntityId nyc = kb.entities().GetOrAdd("New York City");
  EntityId br = kb.entities().GetOrAdd("Brooklyn");
  ClassId w = kb.classes().GetOrAdd("Writer");
  ClassId c = kb.classes().GetOrAdd("City");
  ClassId p = kb.classes().GetOrAdd("Place");
  RelationId born_in = kb.relations().GetOrAdd("born_in");
  RelationId live_in = kb.relations().GetOrAdd("live_in");
  RelationId grow_up_in = kb.relations().GetOrAdd("grow_up_in");
  RelationId located_in = kb.relations().GetOrAdd("located_in");

  kb.AddFact({born_in, rg, w, nyc, c, 0.96});
  kb.AddFact({born_in, rg, w, br, p, 0.93});

  auto m1 = [&](RelationId head, ClassId c2, double weight) {
    HornRule r;
    r.structure = RuleStructure::kM1;
    r.head = head;
    r.body1 = born_in;
    r.c1 = w;
    r.c2 = c2;
    r.weight = weight;
    kb.AddRule(r);
  };
  m1(live_in, p, 1.40);
  m1(live_in, c, 1.53);
  m1(grow_up_in, p, 2.68);
  m1(grow_up_in, c, 0.74);

  auto m3 = [&](RelationId body, double weight) {
    HornRule r;
    r.structure = RuleStructure::kM3;
    r.head = located_in;
    r.body1 = body;
    r.body2 = body;
    r.c1 = p;
    r.c2 = c;
    r.c3 = w;
    r.weight = weight;
    kb.AddRule(r);
  };
  m3(live_in, 0.32);
  m3(born_in, 0.52);

  kb.AddConstraint({born_in, FunctionalityType::kTypeI, 1});
  return kb;
}

/// \brief Extracts the logical atoms (R, x, C1, y, C2) of a TPi table as a
/// sorted set, for id-insensitive comparison.
inline std::set<std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>>
TPiAtomSet(const Table& t_pi) {
  std::set<std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>> out;
  for (int64_t i = 0; i < t_pi.NumRows(); ++i) {
    RowView r = t_pi.row(i);
    out.emplace(r[tpi::kR].i64(), r[tpi::kX].i64(), r[tpi::kC1].i64(),
                r[tpi::kY].i64(), r[tpi::kC2].i64());
  }
  return out;
}

/// \brief Canonicalizes a TPhi table by replacing fact ids with the atom
/// tuples they denote, so factor sets are comparable across runs that
/// assign ids in different orders. Entries are sorted; body atoms within a
/// factor are sorted as well because (I1 <- I2, I3) and (I1 <- I3, I2)
/// from symmetric rules denote the same ground clause only when the rule
/// is symmetric — so we keep body order.
using AtomKey = std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>;
struct CanonicalFactor {
  AtomKey head;
  std::vector<AtomKey> body;
  int64_t weight_millis;  // weight rounded to 1e-3 for robust comparison
  friend bool operator<(const CanonicalFactor& a, const CanonicalFactor& b) {
    return std::tie(a.head, a.body, a.weight_millis) <
           std::tie(b.head, b.body, b.weight_millis);
  }
  friend bool operator==(const CanonicalFactor& a, const CanonicalFactor& b) {
    return !(a < b) && !(b < a);
  }
};

inline std::vector<CanonicalFactor> CanonicalizeFactors(const Table& t_phi,
                                                        const Table& t_pi) {
  std::map<int64_t, AtomKey> atom_by_id;
  for (int64_t i = 0; i < t_pi.NumRows(); ++i) {
    RowView r = t_pi.row(i);
    atom_by_id[r[tpi::kI].i64()] =
        AtomKey(r[tpi::kR].i64(), r[tpi::kX].i64(), r[tpi::kC1].i64(),
                r[tpi::kY].i64(), r[tpi::kC2].i64());
  }
  std::vector<CanonicalFactor> out;
  for (int64_t i = 0; i < t_phi.NumRows(); ++i) {
    RowView r = t_phi.row(i);
    CanonicalFactor f;
    f.head = atom_by_id.at(r[tphi::kI1].i64());
    if (!r[tphi::kI2].is_null()) {
      f.body.push_back(atom_by_id.at(r[tphi::kI2].i64()));
    }
    if (!r[tphi::kI3].is_null()) {
      f.body.push_back(atom_by_id.at(r[tphi::kI3].i64()));
    }
    f.weight_millis = static_cast<int64_t>(r[tphi::kW].f64() * 1000.0 + 0.5);
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// \brief Builds a small int64 table from a row list (test fixtures).
inline TablePtr MakeTable(const Schema& schema,
                          const std::vector<std::vector<int64_t>>& rows) {
  auto t = Table::Make(schema);
  for (const auto& row : rows) {
    std::vector<Value> values;
    values.reserve(row.size());
    for (int64_t v : row) values.push_back(Value::Int64(v));
    t->AppendRow(values);
  }
  return t;
}

/// Each variable's component, by union-find over the factors' atoms: the
/// label is the component's lowest variable.
inline std::vector<int32_t> ComponentLabels(const FactorGraph& graph) {
  std::vector<int32_t> up(static_cast<size_t>(graph.num_variables()));
  std::iota(up.begin(), up.end(), 0);
  auto find = [&up](int32_t v) {
    while (up[static_cast<size_t>(v)] != v) {
      v = up[static_cast<size_t>(v)] =
          up[static_cast<size_t>(up[static_cast<size_t>(v)])];
    }
    return v;
  };
  for (const GroundFactor& f : graph.factors()) {
    for (int32_t b : {f.body1, f.body2}) {
      if (b < 0) continue;
      const int32_t x = find(f.head);
      const int32_t y = find(b);
      up[static_cast<size_t>(std::max(x, y))] = std::min(x, y);
    }
  }
  std::vector<int32_t> label(up.size());
  for (int32_t v = 0; v < graph.num_variables(); ++v) {
    label[static_cast<size_t>(v)] = find(v);
  }
  return label;
}

/// Whether each variable's component is a tree once factors over one
/// scope (set of distinct atoms) merge into one node: a connected
/// variable-scope graph is a tree when it has one edge fewer than nodes.
inline std::vector<uint8_t> AcyclicVariables(const FactorGraph& graph) {
  const std::vector<int32_t> label = ComponentLabels(graph);
  std::set<std::vector<int32_t>> scopes;
  for (const GroundFactor& f : graph.factors()) {
    std::set<int32_t> atoms = {f.head};
    for (int32_t b : {f.body1, f.body2}) {
      if (b >= 0) atoms.insert(b);
    }
    if (atoms.size() > 1) scopes.emplace(atoms.begin(), atoms.end());
  }
  std::map<int32_t, int64_t> nodes;
  std::map<int32_t, int64_t> edges;
  for (int32_t l : label) ++nodes[l];
  for (const std::vector<int32_t>& scope : scopes) {
    const int32_t l = label[static_cast<size_t>(scope.front())];
    ++nodes[l];
    edges[l] += static_cast<int64_t>(scope.size());
  }
  std::vector<uint8_t> acyclic(label.size());
  for (size_t v = 0; v < label.size(); ++v) {
    acyclic[v] = edges[label[v]] == nodes[label[v]] - 1 ? 1 : 0;
  }
  return acyclic;
}

}  // namespace testutil
}  // namespace probkb

#endif  // PROBKB_TESTS_TEST_UTIL_H_
