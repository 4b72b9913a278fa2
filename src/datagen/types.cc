#include "datagen/types.h"

#include <cassert>

namespace rapid::data {

float TopicCoverage(const Dataset& data, const std::vector<int>& item_ids,
                    int topic, int upto) {
  const size_t n = upto < 0 ? item_ids.size()
                            : std::min<size_t>(upto, item_ids.size());
  double prod = 1.0;
  for (size_t i = 0; i < n; ++i) {
    prod *= 1.0 - data.item(item_ids[i]).topic_coverage[topic];
  }
  return static_cast<float>(1.0 - prod);
}

std::vector<float> CoverageVector(const Dataset& data,
                                  const std::vector<int>& item_ids,
                                  int upto) {
  std::vector<float> out(data.num_topics);
  for (int j = 0; j < data.num_topics; ++j) {
    out[j] = TopicCoverage(data, item_ids, j, upto);
  }
  return out;
}

std::vector<std::vector<float>> MarginalDiversity(
    const Dataset& data, const std::vector<int>& item_ids) {
  const size_t m = data.num_topics;
  std::vector<float> flat(item_ids.size() * m);
  MarginalDiversityInto(data, item_ids, flat.data());
  std::vector<std::vector<float>> out(item_ids.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].assign(flat.begin() + i * m, flat.begin() + (i + 1) * m);
  }
  return out;
}

void MarginalDiversityInto(const Dataset& data,
                           const std::vector<int>& item_ids, float* out) {
  const int m = data.num_topics;
  const int L = static_cast<int>(item_ids.size());
  // prod_all = prod_v (1 - tau_v^j). Marginal diversity of item i in topic
  // j is prod_{v != i}(1 - tau_v^j) * tau_i^j. Guard division by zero when
  // some tau is exactly 1 by recomputing the leave-one-out product.
  for (int j = 0; j < m; ++j) {
    double prod_all = 1.0;
    int zero_count = 0;
    for (int i = 0; i < L; ++i) {
      const double f = 1.0 - data.item(item_ids[i]).topic_coverage[j];
      if (f == 0.0) {
        ++zero_count;
      } else {
        prod_all *= f;
      }
    }
    for (int i = 0; i < L; ++i) {
      const float tau = data.item(item_ids[i]).topic_coverage[j];
      const double f = 1.0 - tau;
      double loo;  // prod over v != i of (1 - tau_v^j)
      if (f == 0.0) {
        loo = (zero_count == 1) ? prod_all : 0.0;
      } else {
        loo = (zero_count > 0) ? 0.0 : prod_all / f;
      }
      out[static_cast<size_t>(i) * m + j] = static_cast<float>(loo * tau);
    }
  }
}

}  // namespace rapid::data
