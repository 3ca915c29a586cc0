#ifndef PROBKB_BENCH_BENCH_UTIL_H_
#define PROBKB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__linux__)
#include <malloc.h>
#include <sys/resource.h>
#endif

namespace probkb {
namespace bench {

/// Peak resident set size of this process in bytes, or 0 when unknown.
/// Prefers VmHWM from /proc/self/status (resettable, see TryResetPeakRss);
/// falls back to getrusage's lifetime ru_maxrss.
inline long long PeakRssBytes() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb > 0) return kb * 1024;
  }
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) return ru.ru_maxrss * 1024LL;
#endif
  return 0;
}

/// Resets the kernel's high-water-mark RSS counter so PeakRssBytes()
/// measures only the workload that follows. Freed heap is returned first,
/// so the mark starts from live memory rather than from what earlier runs
/// left cached in the allocator (without it, back-to-back runs of one
/// grounding read deltas 40% apart). Returns false (and leaves the counter
/// alone) where /proc/self/clear_refs is unavailable — callers then get a
/// whole-process peak, which is still an upper bound.
inline bool TryResetPeakRss() {
#if defined(__linux__)
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    const bool ok = std::fputs("5", f) >= 0;
    std::fclose(f);
    return ok;
  }
#endif
  return false;
}

/// Default fraction of ReVerb-Sherlock scale the benchmarks run at; a
/// single core grinds the full 407K-fact / 31K-rule workload too slowly
/// for CI, so the harness scales the workloads and reports the scaled
/// paper targets alongside. Override with PROBKB_BENCH_SCALE.
inline double BenchScale(double fallback = 0.02) {
  const char* env = std::getenv("PROBKB_BENCH_SCALE");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Modelled per-SQL-statement overhead (parse/plan/round trip) charged to
/// every statement of *both* systems; see DESIGN.md. The default, 5 ms, is
/// in the range of a PostgreSQL statement round trip against an 80K-table
/// catalog. Override with PROBKB_BENCH_STMT_MS (0 disables).
inline double StatementSeconds() {
  const char* env = std::getenv("PROBKB_BENCH_STMT_MS");
  if (env != nullptr) return std::atof(env) * 1e-3;
  return 5e-3;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// Value of `<flag> <value>` on a bench runner's command line, or "" when
/// absent.
inline std::string ArgValue(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return "";
}

/// True when a bare `<flag>` is present on a bench runner's command line.
inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// Path given via `--json <path>` on a bench runner's command line, or ""
/// when absent. Runners that support it dump their measurements as a JSON
/// document alongside the human-readable report, so CI can track perf over
/// time.
inline std::string JsonPathFromArgs(int argc, char** argv) {
  return ArgValue(argc, argv, "--json");
}

}  // namespace bench
}  // namespace probkb

#endif  // PROBKB_BENCH_BENCH_UTIL_H_
