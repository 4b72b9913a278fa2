#ifndef RAPID_CORE_DIVERSITY_FUNCTION_H_
#define RAPID_CORE_DIVERSITY_FUNCTION_H_

#include <vector>

#include "datagen/types.h"

namespace rapid::core {

/// The submodular set function used to measure per-topic diversity of a
/// list (the paper notes Eq. 4 "can be replaced by other submodular
/// diversity functions according to the objective of the recommendation
/// scenario"). All three are monotone and submodular in the list:
///
///  - kProbabilisticCoverage (the paper's default, Eq. 4):
///      `c_j(R) = 1 - prod_v (1 - tau_v^j)`;
///  - kConcaveOverModular:
///      `c_j(R) = sqrt(sum_v tau_v^j) / normalizer` — rewards mass in a
///      topic with diminishing returns that decay slower than coverage;
///  - kSaturatingLinear:
///      `c_j(R) = min(1, sum_v tau_v^j)` — a budgeted-coverage objective.
enum class DiversityFunctionKind {
  kProbabilisticCoverage,
  kConcaveOverModular,
  kSaturatingLinear,
};

/// Value of the chosen diversity function for topic `j` over the first
/// `upto` items (whole list when `upto < 0`).
float DiversityValue(DiversityFunctionKind kind, const data::Dataset& data,
                     const std::vector<int>& item_ids, int topic,
                     int upto = -1);

/// Marginal diversity of every position under the chosen function
/// (the generalization of Eq. 5): `d_j(i) = c_j(R) - c_j(R \ {R(i)})`.
/// Returns an `item_ids.size() x m` matrix.
std::vector<std::vector<float>> MarginalDiversityOf(
    DiversityFunctionKind kind, const data::Dataset& data,
    const std::vector<int>& item_ids);

/// `MarginalDiversityOf` into a row-major `(item_ids.size() x m)` block at
/// `out`, without allocating.
void MarginalDiversityOfInto(DiversityFunctionKind kind,
                             const data::Dataset& data,
                             const std::vector<int>& item_ids, float* out);

/// Human-readable name for tables.
const char* DiversityFunctionName(DiversityFunctionKind kind);

}  // namespace rapid::core

#endif  // RAPID_CORE_DIVERSITY_FUNCTION_H_
