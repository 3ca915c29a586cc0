#include "infer/gibbs.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <new>
#include <ranges>
#include <span>
#include <system_error>
#include <thread>

#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace probkb {

double ConditionalLogOdds(const FactorGraph& graph, int32_t v,
                          const uint8_t* a) {
  // Each record adds v1 and then subtracts v0: the same two operations,
  // in the same order, as evaluating the factor with x_v = 1 and then 0.
  double delta = 0.0;
  for (const Incidence& r : graph.IncidencesOf(v)) {
    const FlipValues x = r.LogValues(a);
    delta += x.v1;
    delta -= x.v0;
  }
  return delta;
}

namespace {

double Sigmoid(double x) {
  if (x >= 0) {
    return 1.0 / (1.0 + std::exp(-x));
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

/// A hub's last conditional and its probability: a repeated conditional
/// skips the exp().
struct ConditionalMemo {
  double log_odds = std::numeric_limits<double>::quiet_NaN();
  double p1 = 0.0;
};

/// P(x_v = 1 | the rest) of every sampled variable, compiled for one
/// call. A variable whose records read k <= kGibbsTableNeighbours
/// distinct other atoms (the true slot aside) gets a table of 2^k
/// probabilities, entry i being Sigmoid(ConditionalLogOdds) with neighbour
/// j set to bit j of i: the value the record walk computes from the same
/// bytes, so a lookup draws exactly the sample the walk would. The other
/// variables, the hubs, keep the walk and a memo.
struct ConditionalTables {
  struct Slot {
    /// active[i]'s neighbours: neighbours[slots[i].first, slots[i+1].first).
    int32_t first;
    /// Offset of its 2^k entries in p1, or ~h for the h-th hub.
    int32_t table;
  };
  std::vector<Slot> slots;
  std::vector<int32_t> neighbours;
  std::vector<double> p1;
  int32_t hubs = 0;
};

/// The counting pass over `active`; the team then fills the tables.
ConditionalTables CountConditionals(const FactorGraph& graph,
                                    std::span<const int32_t> active) {
  constexpr size_t kTableNeighbours = kGibbsTableNeighbours;
  const int32_t n = graph.num_variables();
  ConditionalTables t;
  t.slots.resize(active.size() + 1, {0, 0});
  // Marks the neighbours the current variable has seen.
  std::vector<uint8_t> scratch(static_cast<size_t>(n) + 1, 0);
  scratch[static_cast<size_t>(n)] = 1;
  int64_t entries = 0;
  for (size_t i = 0; i < active.size(); ++i) {
    const size_t first = t.neighbours.size();
    t.slots[i].first = static_cast<int32_t>(first);
    for (const Incidence& r : graph.IncidencesOf(active[i])) {
      for (const int32_t o : {r.o1, r.o2}) {
        if (scratch[static_cast<size_t>(o)] == 0) {
          scratch[static_cast<size_t>(o)] = 1;
          t.neighbours.push_back(o);
        }
      }
      if (t.neighbours.size() - first > kTableNeighbours) break;
    }
    for (size_t j = first; j < t.neighbours.size(); ++j) {
      scratch[static_cast<size_t>(t.neighbours[j])] = 0;
    }
    // Table offsets are int32: past that, variables sample as hubs.
    const size_t k = t.neighbours.size() - first;
    if (k <= kTableNeighbours &&
        entries + (int64_t{1} << k) <= std::numeric_limits<int32_t>::max()) {
      t.slots[i].table = static_cast<int32_t>(entries);
      entries += int64_t{1} << k;
    } else {
      t.slots[i].table = ~t.hubs++;
      t.neighbours.resize(first);
    }
    t.slots[i + 1].first = static_cast<int32_t>(t.neighbours.size());
  }
  t.p1.resize(static_cast<size_t>(entries));
  return t;
}

/// Fills the tables of active[begin, end) in `scratch`, 0 but the true slot.
void FillConditionals(const FactorGraph& graph, ConditionalTables& t,
                      std::span<const int32_t> active, int32_t begin,
                      int32_t end, uint8_t* scratch) {
  for (int32_t p = begin; p < end; ++p) {
    const int32_t v = active[static_cast<size_t>(p)];
    const ConditionalTables::Slot slot = t.slots[static_cast<size_t>(p)];
    if (slot.table < 0) continue;
    const int32_t* nb = t.neighbours.data() + slot.first;
    const int k = t.slots[static_cast<size_t>(p) + 1].first - slot.first;
    double* out = t.p1.data() + slot.table;
    // Gray-code order: step i flips neighbour countr_zero(i), so each
    // entry costs one byte write, and the walk ends with only neighbour
    // k - 1 set.
    out[0] = Sigmoid(ConditionalLogOdds(graph, v, scratch));
    for (uint32_t i = 1; i < (uint32_t{1} << k); ++i) {
      scratch[nb[std::countr_zero(i)]] ^= 1;
      out[i ^ (i >> 1)] = Sigmoid(ConditionalLogOdds(graph, v, scratch));
    }
    if (k > 0) scratch[nb[k - 1]] = 0;
  }
}

/// A factor node of a tree component: the factors over one scope (`key`,
/// sorted and padded with the true slot) multiplied into one potential.
/// It hangs from vars[0], nearer the component's root; the others hang
/// from it.
struct ScopeNode {
  std::array<int32_t, 3> key;
  std::array<int32_t, 3> vars;
  int k = 0;
  /// log phi, with bit j of the index the value of vars[j].
  std::array<double, 8> log_phi{};
  /// The log-odds message to vars[0].
  double up = 0.0;

  /// The log-odds message to vars[i], given the log-odds message from
  /// vars[0] and, from the others, `total` (see SolveForests); each half
  /// is summed relative to its largest term.
  double Message(const std::vector<double>& total, double from_parent,
                 int i) const {
    double x[8];
    double top[2] = {-std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()};
    double sum[2] = {0.0, 0.0};
    for (unsigned b = 0; b < (1u << k); ++b) {
      x[b] = log_phi[b];
      for (int j = 0; j < k; ++j) {
        if (j == i || (b >> j & 1) == 0) continue;
        const int32_t v = vars[static_cast<size_t>(j)];
        x[b] += j == 0 ? from_parent : total[static_cast<size_t>(v)];
      }
      top[b >> i & 1] = std::max(top[b >> i & 1], x[b]);
    }
    for (unsigned b = 0; b < (1u << k); ++b) {
      sum[b >> i & 1] += std::exp(x[b] - top[b >> i & 1]);
    }
    return top[1] - top[0] + std::log(sum[1] / sum[0]);
  }
};

/// Writes the exact marginals of each component whose variable-scope graph
/// is a tree (walked breadth-first from its lowest variable) into
/// `marginals`; returns the other components' variables, ascending.
std::vector<int32_t> SolveForests(const FactorGraph& graph,
                                  std::vector<double>* marginals) {
  const int32_t n = graph.num_variables();
  const int32_t true_slot = graph.true_slot();
  // Zero but for a scope's members while its potential is tabulated.
  std::vector<uint8_t> a(static_cast<size_t>(n) + 1, 0);
  // 1 once reached, 2 once its component is left to sample.
  std::vector<uint8_t> seen(static_cast<size_t>(n), 0);
  // Per variable: its own factors' log-odds plus the messages received so
  // far (the true slot's entry absorbs absent members'), and its node.
  std::vector<double> total(static_cast<size_t>(n) + 1, 0.0);
  std::vector<int32_t> parent(static_cast<size_t>(n), -1);
  std::vector<int32_t> queue;
  std::vector<ScopeNode> nodes;
  std::vector<std::pair<std::array<int32_t, 3>, int32_t>> scopes;
  for (int32_t root = 0; root < n; ++root) {
    if (seen[static_cast<size_t>(root)]) continue;
    queue.assign(1, root);
    seen[static_cast<size_t>(root)] = 1;
    nodes.clear();
    bool tree = true;
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      const int32_t u = queue[qi];
      if (!tree) {  // a cycle: only label the rest of the component
        for (const Incidence& r : graph.IncidencesOf(u)) {
          for (const int32_t o : {r.o1, r.o2}) {
            if (o == true_slot || seen[static_cast<size_t>(o)]) continue;
            seen[static_cast<size_t>(o)] = 1;
            queue.push_back(o);
          }
        }
        continue;
      }
      // u's factors (one record each) by scope; see ScopeNode.
      scopes.clear();
      for (const Incidence& r : graph.IncidencesOf(u)) {
        std::array<int32_t, 3> key = {u, r.o1, r.o2};
        std::ranges::sort(key);
        std::ranges::fill(std::ranges::unique(key), true_slot);
        scopes.emplace_back(key, r.factor);
      }
      std::ranges::sort(scopes);
      const int32_t up = parent[static_cast<size_t>(u)];
      for (size_t i = 0, end = 0; i < scopes.size(); i = end) {
        const std::array<int32_t, 3> key = scopes[i].first;
        while (end < scopes.size() && scopes[end].first == key) ++end;
        if (up >= 0 && nodes[static_cast<size_t>(up)].key == key) continue;
        // A new node; a member reached before closes a cycle.
        ScopeNode node{.key = key, .vars = {u, true_slot, true_slot}};
        for (const int32_t m : key) {
          if (m == u || m == true_slot) continue;
          node.vars[static_cast<size_t>(++node.k)] = m;
          uint8_t& reached = seen[static_cast<size_t>(m)];
          tree = tree && !reached;
          if (!reached) queue.push_back(m);
          reached = 1;
          parent[static_cast<size_t>(m)] = static_cast<int32_t>(nodes.size());
        }
        if (!tree) continue;
        // Sum the log values of the scope's factors over its assignments.
        for (++node.k; i < end; ++i) {
          const GroundFactor& f =
              graph.factors()[static_cast<size_t>(scopes[i].second)];
          for (unsigned b = 0; b < (1u << node.k); ++b) {
            for (int j = 0; j < node.k; ++j) {
              a[static_cast<size_t>(node.vars[static_cast<size_t>(j)])] =
                  static_cast<uint8_t>(b >> j & 1);
            }
            node.log_phi[b] += f.LogValue(a);
          }
        }
        for (const int32_t m : node.vars) a[static_cast<size_t>(m)] = 0;
        if (node.k == 1) {  // a one-atom scope is u's own potential
          total[static_cast<size_t>(u)] += node.log_phi[1] - node.log_phi[0];
        } else {
          nodes.push_back(node);
        }
      }
    }
    if (!tree) {
      for (const int32_t v : queue) seen[static_cast<size_t>(v)] = 2;
      continue;
    }
    // Nodes come after the node their variable hangs from, so upward
    // messages go in reverse order and downward ones in order.
    for (ScopeNode& node : std::views::reverse(nodes)) {
      node.up = node.Message(total, 0.0, 0);
      total[static_cast<size_t>(node.vars[0])] += node.up;
    }
    for (const ScopeNode& node : nodes) {
      const double from_parent =
          total[static_cast<size_t>(node.vars[0])] - node.up;
      const double to1 = node.Message(total, from_parent, 1);
      const double to2 = node.k > 2 ? node.Message(total, from_parent, 2) : 0;
      total[static_cast<size_t>(node.vars[1])] += to1;
      total[static_cast<size_t>(node.vars[2])] += to2;
    }
    for (const int32_t v : queue) {
      (*marginals)[static_cast<size_t>(v)] =
          Sigmoid(total[static_cast<size_t>(v)]);
    }
  }
  std::vector<int32_t> active;
  for (int32_t v = 0; v < n; ++v) {
    if (seen[static_cast<size_t>(v)] == 2) active.push_back(v);
  }
  return active;
}

/// Variables per cut: a thread's part of a color starts at a multiple of
/// 64 variables, so with 64-byte aligned arrays no two threads write the
/// same cache line of the assignment or the counts.
constexpr int32_t kCutVariables = 64;
constexpr size_t kCacheLine = 64;

template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}
  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t{kCacheLine});
  }
  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const {
    return true;
  }
};

template <typename T>
using CacheLineVector = std::vector<T, CacheLineAllocator<T>>;

constexpr uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;

/// SplitMix64's output function: the SplitMix64 stream with seed s is
/// Mix64(s + k * kGoldenGamma) for k = 1, 2, ...
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Start of chain `chain`'s draw stream. Hashed, so two chains' streams
/// (runs of consecutive SplitMix64 counters) start at unrelated points
/// instead of one counter apart.
uint64_t ChainKey(uint64_t seed, size_t chain) {
  return Mix64(seed + kGoldenGamma * (static_cast<uint64_t>(chain) + 1));
}

/// Spin-then-yield barrier for a fixed team. The last thread to arrive
/// resets the count and bumps the generation; its release store publishes
/// every write the team made before arriving. Waiters spin only briefly:
/// when another process holds a core, a preempted team member needs that
/// core more than a spinning one does.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}

  void Wait() {
    const uint32_t generation = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.store(generation + 1, std::memory_order_release);
      return;
    }
    for (int spins = 0;
         generation_.load(std::memory_order_acquire) == generation;
         ++spins) {
      if (spins < kSpins) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  static constexpr int kSpins = 32;
  const int parties_;
  alignas(kCacheLine) std::atomic<int> arrived_{0};
  alignas(kCacheLine) std::atomic<uint32_t> generation_{0};
};

/// One chain's state for the duration of a call, in cache-line aligned
/// copies shared by the whole team.
struct ChainWork {
  uint64_t key = 0;
  /// The assignment plus the kernel's true slot.
  CacheLineVector<uint8_t> a;
  CacheLineVector<int64_t> ones;
};

/// Everything the thread team shares for one GibbsMarginals call. Thread
/// t sweeps active[cuts[c * (threads + 1) + t], cuts[c * (threads + 1) +
/// t + 1]) of the c-th color with sampled variables, then meets the
/// others at the barrier.
struct Team {
  const FactorGraph& graph;
  const GibbsOptions& options;
  int threads;
  int begin_sweep;
  int end_sweep;
  std::span<const int32_t> active;
  std::vector<int32_t> cuts;
  ConditionalTables& tables;
  /// One per hub. Hubs are rare, so two threads seldom share a line.
  std::vector<ConditionalMemo> memo;
  std::vector<ChainWork> chains;
  SpinBarrier barrier;
  /// Written by thread 0 only.
  std::vector<double> chain_seconds;

  /// Samples active[begin, end) in sweep `sweep`. Variable v's draw is
  /// SplitMix64 at counter (sweep * n + v) of the chain's stream, n all
  /// variables: no thread, timing or exact solve moves it.
  void Update(ChainWork& w, int sweep, int32_t begin, int32_t end) {
    const uint64_t base =
        w.key + kGoldenGamma * (static_cast<uint64_t>(sweep) *
                                static_cast<uint64_t>(graph.num_variables()));
    const int64_t counting = sweep >= options.burn_in_sweeps ? 1 : 0;
    uint8_t* a = w.a.data();
    const ConditionalTables::Slot* slots = tables.slots.data();
    const int32_t* neighbours = tables.neighbours.data();
    const double* table_p1 = tables.p1.data();
    for (int32_t i = begin; i < end; ++i) {
      const int32_t v = active[static_cast<size_t>(i)];
      const ConditionalTables::Slot slot = slots[i];
      double p1;
      if (slot.table >= 0) [[likely]] {
        const int32_t* nb = neighbours + slot.first;
        const int k = slots[i + 1].first - slot.first;
        uint32_t index = 0;
        for (int j = 0; j < k; ++j) index |= uint32_t{a[nb[j]]} << j;
        p1 = table_p1[slot.table + index];
      } else {
        const double log_odds = ConditionalLogOdds(graph, v, a);
        ConditionalMemo& m = memo[static_cast<size_t>(~slot.table)];
        if (log_odds != m.log_odds) m = {log_odds, Sigmoid(log_odds)};
        p1 = m.p1;
      }
      const uint64_t draw =
          Mix64(base + kGoldenGamma * static_cast<uint64_t>(v));
      const uint8_t x =
          static_cast<double>(draw >> 11) * 0x1.0p-53 < p1 ? 1 : 0;
      a[v] = x;
      w.ones[static_cast<size_t>(v)] += x & counting;
    }
  }

  /// Thread t's share of the tables, then of every chain, sweep and
  /// color. Thread 0 (the caller) also keeps the clocks and the stats.
  void Run(int t) {
    const int num_colors = static_cast<int>(cuts.size()) / (threads + 1);
    std::vector<uint8_t> scratch(static_cast<size_t>(graph.num_variables()));
    scratch.push_back(1);
    for (int c = 0; c < num_colors; ++c) {
      const int32_t* cut = &cuts[static_cast<size_t>(c * (threads + 1) + t)];
      FillConditionals(graph, tables, active, cut[0], cut[1], scratch.data());
    }
    if (threads > 1) barrier.Wait();
    const bool timed = t == 0 && options.stats != nullptr;
    for (size_t chain = 0; chain < chains.size(); ++chain) {
      Timer chain_timer;
      for (int sweep = begin_sweep; sweep < end_sweep; ++sweep) {
        Timer sweep_timer;
        for (int c = 0; c < num_colors; ++c) {
          const int32_t* cut =
              &cuts[static_cast<size_t>(c * (threads + 1) + t)];
          Update(chains[chain], sweep, cut[0], cut[1]);
          if (threads > 1) barrier.Wait();
        }
        if (timed) {
          options.stats->RecordLatency("gibbs_sweep", sweep_timer.Seconds());
        }
      }
      if (t == 0) {
        chain_seconds.push_back(chain_timer.Seconds());
        if (options.stats != nullptr) {
          options.stats->RecordGibbsChain(static_cast<int>(chain),
                                          end_sweep - begin_sweep,
                                          graph.num_variables(),
                                          chain_seconds.back());
        }
      }
    }
  }
};

/// Cut points (positions in `active`) of each color with sampled variables
/// for `threads` threads: one part per thread, of about equal work (a
/// variable costs one unit plus one per incidence record), each boundary
/// moved up to the first variable at a multiple of kCutVariables (empty
/// parts allowed). The cuts never change a sample.
std::vector<int32_t> ColorCuts(const FactorGraph& graph,
                               std::span<const int32_t> active, int threads) {
  // work[i] is the work of active[0, i).
  std::vector<int64_t> work(active.size() + 1, 0);
  for (size_t i = 0; i < active.size(); ++i) {
    work[i + 1] = work[i] + 1 +
                  static_cast<int64_t>(graph.IncidencesOf(active[i]).size());
  }
  auto first_at = [&active](int32_t v) {
    return static_cast<int32_t>(std::ranges::lower_bound(active, v) -
                                active.begin());
  };
  const std::vector<int32_t>& ranges = graph.color_ranges();
  std::vector<int32_t> cuts;
  for (int c = 0; c < graph.num_colors(); ++c) {
    const int32_t begin = first_at(ranges[static_cast<size_t>(c)]);
    const int32_t end = first_at(ranges[static_cast<size_t>(c) + 1]);
    if (begin == end) continue;
    cuts.push_back(begin);
    for (int t = 1; t < threads; ++t) {
      const int64_t target = work[static_cast<size_t>(begin)] +
                             (work[static_cast<size_t>(end)] -
                              work[static_cast<size_t>(begin)]) *
                                 t / threads;
      // The first position whose prefix work reaches the target; `end`
      // always does.
      const int32_t first = *std::ranges::partition_point(
          std::views::iota(begin, end + 1),
          [&](int32_t i) { return work[static_cast<size_t>(i)] < target; });
      const int32_t v = first < end ? active[static_cast<size_t>(first)]
                                    : ranges[static_cast<size_t>(c) + 1];
      cuts.push_back(std::min(
          first_at((v + kCutVariables - 1) / kCutVariables * kCutVariables),
          end));
    }
    cuts.push_back(end);
  }
  return cuts;
}

/// Runs `team` on team.threads threads, the caller as thread 0. Started
/// threads wait at a gate until the whole team exists; if one cannot be
/// started, the others leave without sweeping and the caller fills the
/// tables and sweeps alone, which draws the same samples.
void RunTeam(Team& team) {
  enum : int { kPending, kGo, kAbort };
  std::atomic<int> gate{kPending};
  std::vector<std::thread> workers;
  try {
    workers.reserve(static_cast<size_t>(team.threads - 1));
    for (int t = 1; t < team.threads; ++t) {
      workers.emplace_back([&team, &gate, t] {
        gate.wait(kPending);
        if (gate.load() == kGo) team.Run(t);
      });
    }
    gate.store(kGo);
  } catch (const std::system_error&) {
    gate.store(kAbort);
    team.threads = 1;
    team.cuts = ColorCuts(team.graph, team.active, 1);
  }
  gate.notify_all();
  team.Run(0);
  for (std::thread& w : workers) w.join();
}

/// Gelman-Rubin potential scale reduction factor for one variable given
/// the per-chain one-counts over `samples` draws of a binary indicator.
double Psrf(const std::vector<int64_t>& chain_ones, int64_t samples) {
  const size_t chains = chain_ones.size();
  if (chains < 2 || samples < 2) return 1.0;
  const double n = static_cast<double>(samples);
  double grand_mean = 0.0;
  std::vector<double> means(chains);
  std::vector<double> within(chains);
  for (size_t c = 0; c < chains; ++c) {
    double m = static_cast<double>(chain_ones[c]) / n;
    means[c] = m;
    // Sample variance of a binary sequence with k ones.
    within[c] = n / (n - 1.0) * m * (1.0 - m);
    grand_mean += m;
  }
  grand_mean /= static_cast<double>(chains);
  double b = 0.0;  // between-chain variance x n
  for (double m : means) b += (m - grand_mean) * (m - grand_mean);
  b *= n / (static_cast<double>(chains) - 1.0);
  double w = 0.0;
  for (double v : within) w += v;
  w /= static_cast<double>(chains);
  if (w <= 1e-12) return 1.0;  // chains agree exactly (e.g. frozen var)
  double var_hat = (n - 1.0) / n * w + b / n;
  return std::sqrt(var_hat / w);
}

}  // namespace

Result<GibbsResult> GibbsMarginals(const FactorGraph& graph,
                                   const GibbsOptions& options,
                                   GibbsCheckpoint* checkpoint) {
  if (options.burn_in_sweeps < 0 || options.sample_sweeps <= 0) {
    return Status::InvalidArgument("sweep counts must be positive");
  }
  if (options.burn_in_sweeps >
      std::numeric_limits<int>::max() - options.sample_sweeps) {
    return Status::InvalidArgument("burn-in plus sample sweeps exceed INT_MAX");
  }
  if (options.num_chains < 1) {
    return Status::InvalidArgument("num_chains must be >= 1");
  }
  const int n = graph.num_variables();
  Timer timer;

  // Chain state lives in the caller's checkpoint when one is supplied, so
  // an interrupted run continues from its last sweep boundary; otherwise
  // in a local that starts fresh and completes in this call.
  GibbsCheckpoint local_state;
  GibbsCheckpoint* state = checkpoint ? checkpoint : &local_state;
  const int total_sweeps = options.burn_in_sweeps + options.sample_sweeps;
  if (state->chains.empty()) {
    state->chains.resize(static_cast<size_t>(options.num_chains));
    for (GibbsChainState& st : state->chains) {
      st.assignment.assign(static_cast<size_t>(n), 0);
      st.ones.assign(static_cast<size_t>(n), 0);
    }
  } else if (static_cast<int>(state->chains.size()) != options.num_chains ||
             std::ranges::any_of(state->chains,
                                 [n](const GibbsChainState& st) {
                                   return st.assignment.size() !=
                                              static_cast<size_t>(n) ||
                                          st.ones.size() !=
                                              static_cast<size_t>(n);
                                 })) {
    return Status::InvalidArgument(
        "Gibbs checkpoint does not match num_chains / the factor graph");
  }

  const int sweeps_before = state->sweeps_done();
  int end_sweep = total_sweeps;
  if (options.max_sweeps_per_call > 0) {
    end_sweep = std::min(total_sweeps,
                         sweeps_before + options.max_sweeps_per_call);
  }

  // Solve the acyclic components; the team samples the rest.
  GibbsResult result;
  result.marginals.assign(static_cast<size_t>(n), 0.0);
  const std::vector<int32_t> active = SolveForests(graph, &result.marginals);
  result.exact_variables = n - static_cast<int>(active.size());
  if (options.stats != nullptr) {
    options.stats->IncrementCounter("gibbs_exact_variables",
                                    result.exact_variables);
  }

  // The team: at most one thread per kGibbsVariablesPerThread variables
  // of the graph's largest color, the caller included, for the whole
  // call; one thread when nothing is left to sample.
  const std::vector<int32_t>& ranges = graph.color_ranges();
  int32_t largest = 0;
  for (size_t c = 0; c + 1 < ranges.size(); ++c) {
    largest = std::max(largest, ranges[c + 1] - ranges[c]);
  }
  const int threads =
      std::clamp(active.empty() ? 1 : largest / kGibbsVariablesPerThread, 1,
                 ThreadPool::ResolveThreads(options.num_threads));
  ConditionalTables tables = CountConditionals(graph, active);
  Team team{.graph = graph,
            .options = options,
            .threads = threads,
            .begin_sweep = sweeps_before,
            .end_sweep = end_sweep,
            .active = active,
            .cuts = ColorCuts(graph, active, threads),
            .tables = tables,
            .memo = {},
            .chains = {},
            .barrier = SpinBarrier(threads),
            .chain_seconds = {}};
  team.memo.resize(static_cast<size_t>(tables.hubs));
  team.chains.resize(state->chains.size());
  for (size_t chain = 0; chain < state->chains.size(); ++chain) {
    const GibbsChainState& st = state->chains[chain];
    ChainWork& w = team.chains[chain];
    w.key = ChainKey(options.seed, chain);
    w.a.reserve(static_cast<size_t>(n) + 1);
    w.a.assign(st.assignment.begin(), st.assignment.end());
    w.a.push_back(1);
    w.ones.assign(st.ones.begin(), st.ones.end());
  }
  RunTeam(team);
  for (size_t chain = 0; chain < state->chains.size(); ++chain) {
    GibbsChainState& st = state->chains[chain];
    const ChainWork& w = team.chains[chain];
    st.assignment.assign(w.a.begin(), w.a.end() - 1);
    st.ones.assign(w.ones.begin(), w.ones.end());
    st.sweeps_done = end_sweep;
    Tracer::Global()->Event(EventKind::kGibbsMilestone, "sweeps",
                            static_cast<int64_t>(chain), st.sweeps_done,
                            end_sweep == total_sweeps ? 1 : 0);
  }
  const std::vector<double>& chain_seconds = team.chain_seconds;

  result.chain_seconds = chain_seconds;
  {
    const double updates =
        static_cast<double>(end_sweep - sweeps_before) *
        static_cast<double>(n);
    result.chain_samples_per_sec.reserve(chain_seconds.size());
    for (double s : chain_seconds) {
      result.chain_samples_per_sec.push_back(s > 0 ? updates / s : 0.0);
    }
  }
  result.sweeps_done = end_sweep;
  result.complete = end_sweep == total_sweeps;
  const int64_t sampled =
      std::max(0, end_sweep - options.burn_in_sweeps);
  const double denom = static_cast<double>(sampled) *
                       static_cast<double>(options.num_chains);
  if (sampled > 0) {
    for (const int32_t v : active) {
      int64_t total = 0;
      for (const GibbsChainState& st : state->chains) {
        total += st.ones[static_cast<size_t>(v)];
      }
      result.marginals[static_cast<size_t>(v)] =
          static_cast<double>(total) / denom;
    }
  }

  // Convergence diagnostic across chains, over the sampled variables.
  result.max_psrf = 1.0;
  if (options.num_chains > 1 && sampled > 0) {
    std::vector<int64_t> chain_ones(static_cast<size_t>(options.num_chains));
    for (const int32_t v : active) {
      for (int c = 0; c < options.num_chains; ++c) {
        chain_ones[static_cast<size_t>(c)] =
            state->chains[static_cast<size_t>(c)].ones[static_cast<size_t>(v)];
      }
      result.max_psrf =
          std::max(result.max_psrf, Psrf(chain_ones, sampled));
    }
  }

  result.seconds = timer.Seconds();
  result.num_colors = graph.num_colors();
  result.threads = team.threads;
  return result;
}

Result<std::vector<double>> ExactMarginals(const FactorGraph& graph,
                                           int max_variables) {
  const int n = graph.num_variables();
  if (n > max_variables) {
    return Status::InvalidArgument(StrFormat(
        "%d variables exceed the exact-enumeration cap of %d", n,
        max_variables));
  }
  std::vector<uint8_t> assignment(static_cast<size_t>(n), 0);
  std::vector<double> numer(static_cast<size_t>(n), 0.0);
  double z = 0.0;
  const uint64_t total = 1ULL << n;
  for (uint64_t bits = 0; bits < total; ++bits) {
    for (int v = 0; v < n; ++v) {
      assignment[static_cast<size_t>(v)] =
          static_cast<uint8_t>((bits >> v) & 1);
    }
    double weight = std::exp(graph.LogScore(assignment));
    z += weight;
    for (int v = 0; v < n; ++v) {
      if (assignment[static_cast<size_t>(v)]) {
        numer[static_cast<size_t>(v)] += weight;
      }
    }
  }
  for (int v = 0; v < n; ++v) numer[static_cast<size_t>(v)] /= z;
  return numer;
}

}  // namespace probkb
