#include "infer/writeback.h"

#include <utility>
#include <vector>

#include "kb/relational_model.h"
#include "util/strings.h"

namespace probkb {

Result<int64_t> WriteMarginalsToTPi(Table* t_pi, const FactorGraph& graph,
                                    const std::vector<double>& marginals) {
  if (static_cast<int>(marginals.size()) != graph.num_variables()) {
    return Status::InvalidArgument(StrFormat(
        "marginal vector has %zu entries for %d variables",
        marginals.size(), graph.num_variables()));
  }
  // Validate every null-weight row before mutating anything, so an error
  // leaves the table untouched; then patch the weight column in place.
  std::vector<std::pair<int64_t, int32_t>> pending;
  const int64_t n = t_pi->NumRows();
  const FactId* ids = n > 0 ? t_pi->Int64Data(tpi::kI) : nullptr;
  for (int64_t i = 0; i < n; ++i) {
    if (!t_pi->IsNull(i, tpi::kW)) continue;
    int32_t v = graph.VariableOf(ids[i]);
    if (v < 0) {
      return Status::InvalidArgument(
          StrFormat("fact id %lld is not a factor-graph variable",
                    static_cast<long long>(ids[i])));
    }
    pending.emplace_back(i, v);
  }
  for (const auto& [row, var] : pending) {
    t_pi->SetFloat64(row, tpi::kW, marginals[static_cast<size_t>(var)]);
  }
  return static_cast<int64_t>(pending.size());
}

}  // namespace probkb
