#include "core/diversity_function.h"

#include <algorithm>
#include <cmath>

namespace rapid::core {

namespace {

// Sum of tau^j over the first `upto` items, leaving out position `skip`
// (the same additions, in the same order, as over a copy of the list
// without that item).
double TopicMass(const data::Dataset& data, const std::vector<int>& item_ids,
                 int topic, int upto, int skip = -1) {
  const size_t n = upto < 0 ? item_ids.size()
                            : std::min<size_t>(upto, item_ids.size());
  double mass = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) == skip) continue;
    mass += data.item(item_ids[i]).topic_coverage[topic];
  }
  return mass;
}

// Normalizer for concave-over-modular so a fully saturated topic maps
// near 1 on typical list lengths (sqrt(4) = 2 items of full coverage).
constexpr double kComNormalizer = 2.0;

// The mass-based diversity functions as a function of the topic mass.
float ValueOfMass(DiversityFunctionKind kind, double mass) {
  if (kind == DiversityFunctionKind::kConcaveOverModular) {
    return static_cast<float>(std::sqrt(mass) / kComNormalizer);
  }
  return static_cast<float>(std::min(1.0, mass));
}

}  // namespace

float DiversityValue(DiversityFunctionKind kind, const data::Dataset& data,
                     const std::vector<int>& item_ids, int topic, int upto) {
  switch (kind) {
    case DiversityFunctionKind::kProbabilisticCoverage:
      return data::TopicCoverage(data, item_ids, topic, upto);
    case DiversityFunctionKind::kConcaveOverModular:
    case DiversityFunctionKind::kSaturatingLinear:
      return ValueOfMass(kind, TopicMass(data, item_ids, topic, upto));
  }
  return 0.0f;
}

std::vector<std::vector<float>> MarginalDiversityOf(
    DiversityFunctionKind kind, const data::Dataset& data,
    const std::vector<int>& item_ids) {
  const size_t m = data.num_topics;
  std::vector<float> flat(item_ids.size() * m);
  MarginalDiversityOfInto(kind, data, item_ids, flat.data());
  std::vector<std::vector<float>> out(item_ids.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].assign(flat.begin() + i * m, flat.begin() + (i + 1) * m);
  }
  return out;
}

void MarginalDiversityOfInto(DiversityFunctionKind kind,
                             const data::Dataset& data,
                             const std::vector<int>& item_ids, float* out) {
  if (kind == DiversityFunctionKind::kProbabilisticCoverage) {
    // Keep the optimized leave-one-out product implementation.
    data::MarginalDiversityInto(data, item_ids, out);
    return;
  }
  const int m = data.num_topics;
  const int L = static_cast<int>(item_ids.size());
  for (int j = 0; j < m; ++j) {
    const float full = DiversityValue(kind, data, item_ids, j);
    for (int i = 0; i < L; ++i) {
      out[static_cast<size_t>(i) * m + j] =
          full - ValueOfMass(kind, TopicMass(data, item_ids, j, -1, i));
    }
  }
}

const char* DiversityFunctionName(DiversityFunctionKind kind) {
  switch (kind) {
    case DiversityFunctionKind::kProbabilisticCoverage:
      return "prob-coverage";
    case DiversityFunctionKind::kConcaveOverModular:
      return "concave-over-modular";
    case DiversityFunctionKind::kSaturatingLinear:
      return "saturating-linear";
  }
  return "?";
}

}  // namespace rapid::core
