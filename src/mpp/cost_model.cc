#include "mpp/cost_model.h"

#include "util/strings.h"

namespace probkb {

namespace {
const char* KindName(MppStep::Kind k) {
  switch (k) {
    case MppStep::Kind::kCompute:
      return "Compute";
    case MppStep::Kind::kRedistribute:
      return "Redistribute Motion";
    case MppStep::Kind::kBroadcast:
      return "Broadcast Motion";
    case MppStep::Kind::kGather:
      return "Gather Motion";
  }
  return "?";
}
}  // namespace

std::string MppStep::ToString() const {
  if (kind == Kind::kCompute) {
    return StrFormat("%-22s %-34s %8.3fms (sum %.3fms)", KindName(kind),
                     label.c_str(), seconds * 1e3, total_work_seconds * 1e3);
  }
  return StrFormat("%-22s %-34s %8.3fms (%lld tuples)", KindName(kind),
                   label.c_str(), seconds * 1e3,
                   static_cast<long long>(tuples_shipped));
}

std::string MppCost::ToString() const {
  std::string out;
  for (const auto& s : steps_) {
    out += "  ";
    out += s.ToString();
    out += "\n";
  }
  out += StrFormat(
      "  total: simulated=%.3fms single-node-work=%.3fms shipped=%lld\n",
      simulated_seconds_ * 1e3, total_work_seconds_ * 1e3,
      static_cast<long long>(tuples_shipped_));
  return out;
}

}  // namespace probkb
