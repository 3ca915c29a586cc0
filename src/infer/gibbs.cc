#include "infer/gibbs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <new>
#include <ranges>
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

/// A variable's last conditional and its probability: a repeated
/// conditional (always, for a variable with only singleton factors)
/// skips the exp().
struct ConditionalMemo {
  double log_odds = std::numeric_limits<double>::quiet_NaN();
  double p1 = 0.0;
};

/// Variables per cut: a thread's part of a color starts at a multiple of
/// 64 variables, so with 64-byte aligned arrays no two threads write the
/// same cache line of the assignment, the memo or the counts.
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
/// t sweeps [cuts[c * (threads + 1) + t], cuts[c * (threads + 1) + t + 1])
/// of color c, then meets the others at the barrier.
struct Team {
  const FactorGraph& graph;
  const GibbsOptions& options;
  int threads;
  int begin_sweep;
  int end_sweep;
  std::vector<int32_t> cuts;
  CacheLineVector<ConditionalMemo> memo;
  std::vector<ChainWork> chains;
  SpinBarrier barrier;
  /// Written by thread 0 only.
  std::vector<double> chain_seconds;

  /// Samples variables [begin, end) of sweep `sweep`. Variable v's draw
  /// is SplitMix64 at counter (sweep * n + v) of the chain's stream, so it
  /// does not depend on which thread updates v, or when.
  void Update(ChainWork& w, int sweep, int32_t begin, int32_t end) {
    const uint64_t base =
        w.key + kGoldenGamma * (static_cast<uint64_t>(sweep) *
                                static_cast<uint64_t>(graph.num_variables()));
    const int64_t counting = sweep >= options.burn_in_sweeps ? 1 : 0;
    uint8_t* a = w.a.data();
    for (int32_t v = begin; v < end; ++v) {
      const double log_odds = ConditionalLogOdds(graph, v, a);
      ConditionalMemo& m = memo[static_cast<size_t>(v)];
      if (log_odds != m.log_odds) m = {log_odds, Sigmoid(log_odds)};
      const uint64_t draw =
          Mix64(base + kGoldenGamma * static_cast<uint64_t>(v));
      const uint8_t x =
          static_cast<double>(draw >> 11) * 0x1.0p-53 < m.p1 ? 1 : 0;
      a[v] = x;
      w.ones[static_cast<size_t>(v)] += x & counting;
    }
  }

  /// Thread t's share of every chain, sweep and color. Thread 0 (the
  /// caller) also keeps the clocks and the stats.
  void Run(int t) {
    const int num_colors = graph.num_colors();
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

/// Cut points of every color for a team of `threads` threads: one contiguous
/// part per thread, of about equal work (a variable costs one unit plus
/// one per incidence record), each boundary rounded up to a multiple of
/// kCutVariables (empty parts allowed). The cuts never change a sample.
std::vector<int32_t> ColorCuts(const FactorGraph& graph, int threads) {
  const std::vector<int32_t>& ranges = graph.color_ranges();
  auto work = [&graph](int32_t v) {
    return static_cast<int64_t>(v) + graph.incidence_offset(v);
  };
  std::vector<int32_t> cuts;
  cuts.reserve(static_cast<size_t>(graph.num_colors()) *
               static_cast<size_t>(threads + 1));
  for (int c = 0; c < graph.num_colors(); ++c) {
    const int32_t begin = ranges[static_cast<size_t>(c)];
    const int32_t end = ranges[static_cast<size_t>(c) + 1];
    cuts.push_back(begin);
    for (int t = 1; t < threads; ++t) {
      const int64_t target =
          work(begin) + (work(end) - work(begin)) * t / threads;
      // The first variable whose prefix work reaches the target; `end`
      // always does.
      const int32_t first = *std::ranges::partition_point(
          std::views::iota(begin, end + 1),
          [&](int32_t v) { return work(v) < target; });
      const int32_t rounded = (first + kCutVariables - 1) /
                              kCutVariables * kCutVariables;
      cuts.push_back(std::clamp(rounded, begin, end));
    }
    cuts.push_back(end);
  }
  return cuts;
}

/// Runs `team` on team.threads threads, the caller as thread 0. Started
/// threads wait at a gate until the whole team exists; if one cannot be
/// started, the others leave without sweeping and the caller sweeps
/// alone, which draws the same samples.
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
    team.cuts = ColorCuts(team.graph, 1);
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

  // The team: at most one thread per kGibbsVariablesPerThread variables
  // of the largest color, the caller included, for the whole call.
  const std::vector<int32_t>& ranges = graph.color_ranges();
  int32_t largest = 0;
  for (size_t c = 0; c + 1 < ranges.size(); ++c) {
    largest = std::max(largest, ranges[c + 1] - ranges[c]);
  }
  const int threads =
      std::clamp(largest / kGibbsVariablesPerThread, 1,
                 ThreadPool::ResolveThreads(options.num_threads));
  Team team{.graph = graph,
            .options = options,
            .threads = threads,
            .begin_sweep = sweeps_before,
            .end_sweep = end_sweep,
            .cuts = ColorCuts(graph, threads),
            .memo = {},
            .chains = {},
            .barrier = SpinBarrier(threads),
            .chain_seconds = {}};
  team.memo.resize(static_cast<size_t>(n));
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

  GibbsResult result;
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
  result.marginals.assign(static_cast<size_t>(n), 0.0);
  const int64_t sampled =
      std::max(0, end_sweep - options.burn_in_sweeps);
  const double denom = static_cast<double>(sampled) *
                       static_cast<double>(options.num_chains);
  if (sampled > 0) {
    for (int32_t v = 0; v < n; ++v) {
      int64_t total = 0;
      for (const GibbsChainState& st : state->chains) {
        total += st.ones[static_cast<size_t>(v)];
      }
      result.marginals[static_cast<size_t>(v)] =
          static_cast<double>(total) / denom;
    }
  }

  // Convergence diagnostic across chains.
  result.max_psrf = 1.0;
  if (options.num_chains > 1 && sampled > 0) {
    std::vector<int64_t> chain_ones(static_cast<size_t>(options.num_chains));
    for (int32_t v = 0; v < n; ++v) {
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
