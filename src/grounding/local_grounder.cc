#include "grounding/local_grounder.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <numeric>
#include <set>
#include <unordered_set>

#include "engine/exec_context.h"
#include "util/strings.h"

namespace probkb {

namespace {

/// A rule factor one pass found, with its order key: the rule's M row,
/// then the body-1, body-2 and head slots, each counted by frontier
/// position where the frontier fills the slot and by TPi row elsewhere
/// (body 2 is 0 for length-2 rules). The M-driven Query 2-p emits a
/// direction's factors in ascending order of this key.
struct Found {
  std::array<int64_t, 4> key;
  std::array<FactId, 3> ids;  // I1, I2, I3; I3 unused for length 2
};

/// Identity of one deduction for cross-direction dedup: the same factor
/// can be found backward (from its head) and forward (from a body).
/// Duplicates across partitions stay distinct, matching the batch
/// grounder's bag union.
std::array<int64_t, 5> FactorKey(int p, const std::array<FactId, 3>& ids,
                                 bool len3, double w) {
  int64_t w_bits = 0;
  std::memcpy(&w_bits, &w, sizeof(w_bits));
  return {p, ids[0], ids[1], len3 ? ids[2] : int64_t{-1}, w_bits};
}

Status CheckNoNulls(const Table& t, const std::vector<int>& cols,
                    const char* what) {
  for (int c : cols) {
    if (t.schema().field(c).type != ColumnType::kInt64 ||
        t.ColumnHasNulls(c)) {
      return Status::InvalidArgument(
          StrFormat("%s key column %d must be int64 without NULLs", what, c));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<const LocalGroundingIndex>> LocalGroundingIndex::Build(
    TablePtr t_pi, const std::array<TablePtr, kNumRuleStructures>& m) {
  std::unique_ptr<LocalGroundingIndex> index(new LocalGroundingIndex());
  std::vector<int> tpi_keys = ViewKeysTxy();
  tpi_keys.push_back(tpi::kI);
  PROBKB_RETURN_NOT_OK(CheckNoNulls(*t_pi, tpi_keys, "TPi"));
  for (const TablePtr& mp : m) {
    if (mp == nullptr) return Status::InvalidArgument("missing rule table");
  }
  PROBKB_RETURN_NOT_OK(FlatRowIndex::CheckCapacity(t_pi->NumRows()));
  PROBKB_RETURN_NOT_OK(index->rules_.Build(m));

  const Table& t = *t_pi;
  auto keyed_tpi = [&](size_t view, const std::vector<int>& keys, auto* out) {
    index->views_[view] = IndexRows(t, keys);
    out->index = &index->views_[view];
    for (size_t k = 0; k < keys.size(); ++k) {
      out->cols[k] = t.Int64Data(keys[k]);
    }
  };
  keyed_tpi(0, ViewKeysTx(), &index->tx_);
  keyed_tpi(1, ViewKeysTy(), &index->ty_);
  keyed_tpi(2, ViewKeysTxy(), &index->txy_);

  for (int p = 1; p <= kNumRuleStructures; ++p) {
    const size_t i = static_cast<size_t>(p - 1);
    const PartitionSpec& spec = GetPartitionSpec(p);
    const RuleIndexes::Partition& part = index->rules_.partition(p);
    const Table& rules = *part.rules;
    const std::vector<int> head_keys =
        spec.body_length == 1
            ? std::vector<int>{mlen2::kR1, mlen2::kC1, mlen2::kC2}
            : std::vector<int>{mlen3::kR1, mlen3::kC1, mlen3::kC2};
    std::vector<int> all_keys = head_keys;
    all_keys.insert(all_keys.end(), spec.m_keys1.begin(), spec.m_keys1.end());
    all_keys.insert(all_keys.end(), spec.m_keys2.begin(), spec.m_keys2.end());
    PROBKB_RETURN_NOT_OK(CheckNoNulls(rules, all_keys, "rule table"));
    index->heads_[i] = IndexRows(rules, head_keys);
    auto keyed_rules = [&](const FlatRowIndex& idx,
                           const std::vector<int>& keys, Keyed<3>* out) {
      out->index = &idx;
      for (size_t k = 0; k < keys.size(); ++k) {
        out->cols[k] = rules.Int64Data(keys[k]);
      }
    };
    RuleKeys& rk = index->rule_keys_[i];
    keyed_rules(index->heads_[i], head_keys, &rk.head);
    keyed_rules(part.body1, spec.m_keys1, &rk.body1);
    if (spec.body_length == 2) keyed_rules(part.body2, spec.m_keys2, &rk.body2);
  }

  const int64_t* ids = t.Int64Data(tpi::kI);
  if (std::adjacent_find(ids, ids + t.NumRows(), std::greater_equal<>()) !=
      ids + t.NumRows()) {
    index->rows_by_id_.resize(static_cast<size_t>(t.NumRows()));
    std::iota(index->rows_by_id_.begin(), index->rows_by_id_.end(),
              int64_t{0});
    std::stable_sort(index->rows_by_id_.begin(), index->rows_by_id_.end(),
                     [ids](int64_t a, int64_t b) { return ids[a] < ids[b]; });
  }
  index->t_pi_ = std::move(t_pi);
  return std::unique_ptr<const LocalGroundingIndex>(std::move(index));
}

int64_t LocalGroundingIndex::RowOf(FactId id) const {
  const int64_t* ids = t_pi_->Int64Data(tpi::kI);
  if (rows_by_id_.empty()) {
    const int64_t* end = ids + t_pi_->NumRows();
    const int64_t* it = std::lower_bound(ids, end, id);
    return it != end && *it == id ? it - ids : -1;
  }
  auto it = std::lower_bound(
      rows_by_id_.begin(), rows_by_id_.end(), id,
      [ids](int64_t row, FactId want) { return ids[row] < want; });
  return it != rows_by_id_.end() && ids[*it] == id ? *it : -1;
}

std::unordered_map<FactId, int64_t> BuildFactRowIndex(const Table& t_pi) {
  std::unordered_map<FactId, int64_t> out;
  out.reserve(static_cast<size_t>(t_pi.NumRows()));
  for (int64_t i = 0; i < t_pi.NumRows(); ++i) {
    out.emplace(t_pi.row(i)[tpi::kI].i64(), i);
  }
  return out;
}

/// The frontier-driven passes of one BFS round over one partition M_p.
/// Each pass starts at the frontier atoms (TPi rows, in ascending fact id
/// order) and reaches the rest of a factor through index probes only:
/// - Backward(): frontier atoms as the head. The head-key index yields the
///   rules; body 1 is probed by its argument the head fixes (Tx or Ty),
///   body 2 by a Txy point lookup.
/// - Body1() / Body2(): frontier atoms as body atom 1 / 2, the Δ-driven
///   Query 1's (Δ, full) and (old, Δ) shapes with Δ = the frontier and
///   neither bound. The body's rule index yields the rules; the other body
///   atom is probed by the shared variable z (Tx or Ty) and the head by a
///   Txy point lookup.
class LocalGroundingRound {
 public:
  LocalGroundingRound(const LocalGroundingIndex& index, int p,
                      const std::vector<int64_t>& frontier, int64_t* probes)
      : index_(index),
        spec_(GetPartitionSpec(p)),
        keys_(index.rule_keys_[static_cast<size_t>(p - 1)]),
        rules_(*index.rules_.partition(p).rules),
        frontier_(frontier),
        probes_(probes) {
    const Table& t = *index.t_pi_;
    id_ = t.Int64Data(tpi::kI);
    r_ = t.Int64Data(tpi::kR);
    x_ = t.Int64Data(tpi::kX);
    c1_ = t.Int64Data(tpi::kC1);
    y_ = t.Int64Data(tpi::kY);
    c2_ = t.Int64Data(tpi::kC2);
    const bool len2 = spec_.body_length == 1;
    mr1_ = rules_.Int64Data(len2 ? mlen2::kR1 : mlen3::kR1);
    mr2_ = rules_.Int64Data(len2 ? mlen2::kR2 : mlen3::kR2);
    mc1_ = rules_.Int64Data(len2 ? mlen2::kC1 : mlen3::kC1);
    mc2_ = rules_.Int64Data(len2 ? mlen2::kC2 : mlen3::kC2);
    if (!len2) {
      mr3_ = rules_.Int64Data(mlen3::kR3);
      mc3_ = rules_.Int64Data(mlen3::kC3);
    }
  }

  /// M_p with its row number column; Found::key[0] is a row of it.
  const Table& rules() const { return rules_; }

  void Backward(std::vector<Found>* out) const {
    for (size_t f = 0; f < frontier_.size(); ++f) {
      const int64_t h = frontier_[f];
      const int64_t pos = static_cast<int64_t>(f);
      Match(keys_.head, {r_[h], c1_[h], c2_[h]}, [&](int64_t m) {
        if (spec_.body_length == 1) {
          // q(x, y) or, swapped, q(y, x).
          const std::array<int64_t, 5> body =
              spec_.q_swapped
                  ? std::array<int64_t, 5>{mr2_[m], mc2_[m], y_[h], mc1_[m],
                                           x_[h]}
                  : std::array<int64_t, 5>{mr2_[m], mc1_[m], x_[h], mc2_[m],
                                           y_[h]};
          Match(index_.txy_, body, [&](int64_t b) {
            out->push_back({{m, b, 0, pos}, {id_[h], id_[b], 0}});
          });
          return;
        }
        // Body 1 by x: q(z, x) in Ty or, swapped, q(x, z) in Tx.
        auto with_body1 = [&](int64_t b1) {
          const int64_t z = spec_.q_swapped ? y_[b1] : x_[b1];
          // Body 2 r(z, y) or, swapped, r(y, z): both arguments known.
          const std::array<int64_t, 5> body2 =
              spec_.r_swapped
                  ? std::array<int64_t, 5>{mr3_[m], mc2_[m], y_[h], mc3_[m], z}
                  : std::array<int64_t, 5>{mr3_[m], mc3_[m], z, mc2_[m], y_[h]};
          Match(index_.txy_, body2, [&](int64_t b2) {
            out->push_back({{m, b1, b2, pos}, {id_[h], id_[b1], id_[b2]}});
          });
        };
        if (spec_.q_swapped) {
          Match(index_.tx_, {mr2_[m], mc1_[m], x_[h], mc3_[m]}, with_body1);
        } else {
          Match(index_.ty_, {mr2_[m], mc3_[m], mc1_[m], x_[h]}, with_body1);
        }
      });
    }
  }

  void Body1(std::vector<Found>* out) const {
    for (size_t f = 0; f < frontier_.size(); ++f) {
      const int64_t b = frontier_[f];
      const int64_t pos = static_cast<int64_t>(f);
      Match(keys_.body1, {r_[b], c1_[b], c2_[b]}, [&](int64_t m) {
        if (spec_.body_length == 1) {
          const int64_t x = spec_.q_swapped ? y_[b] : x_[b];
          const int64_t y = spec_.q_swapped ? x_[b] : y_[b];
          Match(index_.txy_, {mr1_[m], mc1_[m], x, mc2_[m], y},
                [&](int64_t hd) {
                  out->push_back({{m, pos, 0, hd}, {id_[hd], id_[b], 0}});
                });
          return;
        }
        const int64_t x = spec_.q_swapped ? x_[b] : y_[b];
        const int64_t z = spec_.q_swapped ? y_[b] : x_[b];
        // Body 2 by z: r(z, y) in Tx or, swapped, r(y, z) in Ty.
        auto with_body2 = [&](int64_t b2) {
          const int64_t y = spec_.r_swapped ? x_[b2] : y_[b2];
          Match(index_.txy_, {mr1_[m], mc1_[m], x, mc2_[m], y},
                [&](int64_t hd) {
                  out->push_back(
                      {{m, pos, b2, hd}, {id_[hd], id_[b], id_[b2]}});
                });
        };
        if (spec_.r_swapped) {
          Match(index_.ty_, {mr3_[m], mc2_[m], mc3_[m], z}, with_body2);
        } else {
          Match(index_.tx_, {mr3_[m], mc3_[m], z, mc2_[m]}, with_body2);
        }
      });
    }
  }

  void Body2(std::vector<Found>* out) const {
    for (size_t f = 0; f < frontier_.size(); ++f) {
      const int64_t b = frontier_[f];
      const int64_t pos = static_cast<int64_t>(f);
      Match(keys_.body2, {r_[b], c1_[b], c2_[b]}, [&](int64_t m) {
        const int64_t y = spec_.r_swapped ? x_[b] : y_[b];
        const int64_t z = spec_.r_swapped ? y_[b] : x_[b];
        // Body 1 by z: q(z, x) in Tx or, swapped, q(x, z) in Ty.
        auto with_body1 = [&](int64_t b1) {
          const int64_t x = spec_.q_swapped ? x_[b1] : y_[b1];
          Match(index_.txy_, {mr1_[m], mc1_[m], x, mc2_[m], y},
                [&](int64_t hd) {
                  out->push_back(
                      {{m, b1, pos, hd}, {id_[hd], id_[b1], id_[b]}});
                });
        };
        if (spec_.q_swapped) {
          Match(index_.ty_, {mr2_[m], mc1_[m], mc3_[m], z}, with_body1);
        } else {
          Match(index_.tx_, {mr2_[m], mc3_[m], z, mc1_[m]}, with_body1);
        }
      });
    }
  }

 private:
  /// Calls `fn(row)` for each row of `keyed` whose key columns hold `key`,
  /// in row order. The hash is Table::HashRows' over the same values, so
  /// it finds the chain a row with this key was filed under.
  template <size_t N, typename Fn>
  void Match(const LocalGroundingIndex::Keyed<N>& keyed,
             const std::array<int64_t, N>& key, Fn&& fn) const {
    size_t h = kRowHashSeed;
    for (int64_t v : key) h = CombineRowHash(h, value_hash::OfInt64(v));
    for (int64_t e = keyed.index->Head(h); e >= 0; e = keyed.index->Next(e)) {
      ++*probes_;
      const int64_t r = keyed.index->Row(e);
      size_t i = 0;
      while (i < N && keyed.cols[i][r] == key[i]) ++i;
      if (i == N) fn(r);
    }
  }

  const LocalGroundingIndex& index_;
  const PartitionSpec& spec_;
  const LocalGroundingIndex::RuleKeys& keys_;
  const Table& rules_;
  const std::vector<int64_t>& frontier_;
  int64_t* probes_;
  const int64_t* id_;
  const int64_t* r_;
  const int64_t* x_;
  const int64_t* c1_;
  const int64_t* y_;
  const int64_t* c2_;
  const int64_t* mr1_;
  const int64_t* mr2_;
  const int64_t* mr3_ = nullptr;
  const int64_t* mc1_;
  const int64_t* mc2_;
  const int64_t* mc3_ = nullptr;
};

Result<LocalGrounding> GroundLocalSubgraph(
    const LocalGroundingIndex& index, const std::vector<int64_t>& seed_rows,
    const LocalGroundingOptions& opts) {
  const Table& t_pi = *index.t_pi();
  const int64_t* ids = t_pi.Int64Data(tpi::kI);
  LocalGrounding out;
  out.total_atoms = t_pi.NumRows();
  out.t_phi = Table::Make(TPhiSchema());

  std::unordered_set<FactId> visited;
  std::vector<FactId> frontier;
  for (int64_t r : seed_rows) {
    if (visited.insert(ids[r]).second) frontier.push_back(ids[r]);
  }

  std::set<std::array<int64_t, 5>> seen_factors;
  std::vector<Found> found;
  for (int depth = 0; depth < opts.max_depth && !frontier.empty(); ++depth) {
    // Take the frontier in ascending id order, so the factor rows come out
    // the same however the BFS happened to discover the atoms.
    std::sort(frontier.begin(), frontier.end());
    std::vector<int64_t> frontier_rows;
    frontier_rows.reserve(frontier.size());
    for (FactId id : frontier) {
      const int64_t row = index.RowOf(id);
      if (row >= 0) frontier_rows.push_back(row);
    }

    std::vector<FactId> next;
    // Keeps the first sighting of each factor, in order-key order, and
    // queues its unvisited atoms.
    auto absorb = [&](int p, const Table& rules) {
      std::sort(found.begin(), found.end(),
                [](const Found& a, const Found& b) { return a.key < b.key; });
      const bool len3 = GetPartitionSpec(p).body_length == 2;
      const int w_col = len3 ? mlen3::kW : mlen2::kW;
      for (const Found& f : found) {
        const Value w = rules.ValueAt(f.key[0], w_col);
        if (!seen_factors
                 .insert(FactorKey(p, f.ids, len3, w.is_null() ? 0.0 : w.f64()))
                 .second) {
          continue;
        }
        out.t_phi->AppendRow({Value::Int64(f.ids[0]), Value::Int64(f.ids[1]),
                              len3 ? Value::Int64(f.ids[2]) : Value::Null(),
                              w});
        for (int s = 0; s < (len3 ? 3 : 2); ++s) {
          if (visited.insert(f.ids[static_cast<size_t>(s)]).second) {
            next.push_back(f.ids[static_cast<size_t>(s)]);
          }
        }
      }
      found.clear();
    };
    for (int p = 1; p <= kNumRuleStructures; ++p) {
      const LocalGroundingRound round(index, p, frontier_rows,
                                      &out.index_probes);
      round.Backward(&found);
      absorb(p, round.rules());
      round.Body1(&found);
      absorb(p, round.rules());
      if (GetPartitionSpec(p).body_length == 2) {
        round.Body2(&found);
        absorb(p, round.rules());
      }
    }
    out.depth_reached = depth + 1;
    frontier = std::move(next);
    // The atom budget cuts *expansion* only, and only at a round boundary:
    // every atom a collected factor references is already in `visited`, so
    // the factor set stays closed over sub_t_pi.
    if (opts.max_atoms > 0 &&
        static_cast<int64_t>(visited.size()) >= opts.max_atoms) {
      break;
    }
  }
  out.truncated = !frontier.empty();

  std::vector<FactId> visited_ids(visited.begin(), visited.end());
  std::sort(visited_ids.begin(), visited_ids.end());
  std::vector<int64_t> rows;
  rows.reserve(visited_ids.size());
  for (FactId id : visited_ids) {
    const int64_t row = index.RowOf(id);
    if (row >= 0) rows.push_back(row);
  }
  out.sub_t_pi = Table::Make(t_pi.schema());
  out.sub_t_pi->AppendGatheredRows(t_pi, rows);
  out.grounded_atoms = out.sub_t_pi->NumRows();

  {
    ExecContext ec;
    PROBKB_ASSIGN_OR_RETURN(TablePtr singletons,
                            SingletonFactors(out.sub_t_pi, &ec));
    out.t_phi->AppendTable(*singletons);
  }
  return out;
}

Result<LocalGrounding> GroundLocalSubgraph(
    TablePtr t_pi, const std::array<TablePtr, kNumRuleStructures>& m,
    const std::unordered_map<FactId, int64_t>& /*row_of*/,
    const std::vector<int64_t>& seed_rows, const LocalGroundingOptions& opts) {
  PROBKB_ASSIGN_OR_RETURN(std::unique_ptr<const LocalGroundingIndex> index,
                          LocalGroundingIndex::Build(std::move(t_pi), m));
  return GroundLocalSubgraph(*index, seed_rows, opts);
}

}  // namespace probkb
