// End-to-end benchmark of knowledge expansion. Usually started through
// run.py, which builds it and turns a workloads.json spec into flags:
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [spec flags]
//
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) record one span per call into a layer and attach the
// library's StatsRegistry to report the per-layer metrics. Every run checks
// its outputs. The last stdout line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <type_traits>

#include "bench.h"

namespace {

bool ParseFlags(int argc, char** argv, e2e::Spec* spec) {
  using Setter = std::function<void(const std::string&)>;
  auto text = [](std::string* f) -> Setter {
    return [f](const std::string& v) { *f = v; };
  };
  auto integer = [](auto* f) -> Setter {
    return [f](const std::string& v) {
      *f = static_cast<std::remove_pointer_t<decltype(f)>>(
          std::strtoll(v.c_str(), nullptr, 10));
    };
  };
  auto real = [](double* f) -> Setter {
    return [f](const std::string& v) { *f = std::atof(v.c_str()); };
  };
  auto flag = [](bool* f) -> Setter {
    return [f](const std::string& v) { *f = v == "1" || v == "true"; };
  };
  const std::map<std::string, Setter> flags = {
      {"--workload", text(&spec->workload)},
      {"--seed", integer(&spec->seed)},
      {"--seconds", real(&spec->seconds)},
      {"--trace", flag(&spec->trace)},
      {"--scale", real(&spec->scale)},
      {"--kbs", integer(&spec->kbs)},
      {"--inference", flag(&spec->inference)},
      {"--segments", integer(&spec->segments)},
      {"--cross-check", flag(&spec->cross_check)},
      {"--tuffy-reference", flag(&spec->tuffy_reference)},
      {"--deadline-seconds", real(&spec->deadline_seconds)},
  };
  for (int i = 1; i < argc; i += 2) {
    auto it = flags.find(argv[i]);
    if (it == flags.end() || i + 1 >= argc) {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", argv[i]);
      return false;
    }
    it->second(argv[i + 1]);
  }
  const bool valid = !spec->workload.empty() && spec->seconds > 0 &&
                     spec->scale > 0 && spec->kbs >= 1 &&
                     spec->segments >= 0;
  if (!valid) std::fprintf(stderr, "invalid workload spec\n");
  return valid;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Spec spec;
  if (!ParseFlags(argc, argv, &spec)) return 2;
  const bool serve = spec.workload == e2e::kServeWorkload;
  std::printf("workload %s (%s): seed %llu, %d KB(s) at scale %g, %g s, "
              "trace %d, hardware_concurrency %u\n",
              spec.workload.c_str(), serve ? "serve" : "batch",
              static_cast<unsigned long long>(spec.seed), spec.kbs, spec.scale,
              spec.seconds, spec.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  e2e::Report report;
  const int rc = serve ? e2e::RunServe(spec, &report)
                      : e2e::RunBatch(spec, &report);
  if (rc != 0) return rc;
  report.PrintResult(spec.trace ? e2e::PerLayerMetrics()
                                : e2e::EndToEndMetrics());
  return 0;
}
