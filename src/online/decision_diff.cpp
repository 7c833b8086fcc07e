// online::DecisionDiff (controller.hpp): the one decision-identity rule
// for replays.

#include "online/controller.hpp"

namespace sps::online {

std::string_view DecisionDiff(const ReplayResult& a, const ReplayResult& b) {
  if (a.epochs != b.epochs) return "epochs";
  if (a.admits != b.admits) return "admits";
  if (a.rejects != b.rejects) return "rejects";
  if (a.leaves != b.leaves) return "leaves";
  if (a.churn != b.churn) return "churn";
  if (a.overload != b.overload) return "overload";
  if (a.shed_outstanding != b.shed_outstanding) return "shed_outstanding";
  if (a.admission.util_rejects != b.admission.util_rejects) {
    return "util_rejects";
  }
  if (a.admission.density_accepts != b.admission.density_accepts) {
    return "density_accepts";
  }
  if (a.admission.full_tests != b.admission.full_tests) return "full_tests";
  if (a.final_partition != b.final_partition) return "final_partition";
  return {};
}

}  // namespace sps::online
