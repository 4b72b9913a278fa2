#include "rerank/reranker.h"

#include <algorithm>
#include <cmath>

namespace rapid::rerank {

void Reranker::Fit(const data::Dataset& /*data*/,
                   const std::vector<data::ImpressionList>& /*train*/,
                   uint64_t /*seed*/) {}

void Reranker::RerankBatchInto(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists,
    std::vector<std::vector<int>>* out) const {
  out->resize(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    // Assign rather than push_back so a warm caller's inner vectors keep
    // their capacity across calls.
    (*out)[i] = Rerank(data, *lists[i]);
  }
}

std::vector<std::vector<int>> Reranker::RerankBatch(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists) const {
  std::vector<std::vector<int>> out;
  RerankBatchInto(data, lists, &out);
  return out;
}

std::vector<int> InitReranker::Rerank(
    const data::Dataset& /*data*/, const data::ImpressionList& list) const {
  return list.items;
}

std::vector<float> NormalizedScores(const data::ImpressionList& list) {
  std::vector<float> out(list.scores.size());
  NormalizedScoresInto(list, out.data());
  return out;
}

void NormalizedScoresInto(const data::ImpressionList& list, float* out,
                          size_t stride) {
  const std::vector<float>& in = list.scores;
  if (in.empty()) return;
  const auto [mn_it, mx_it] = std::minmax_element(in.begin(), in.end());
  const float mn = *mn_it, mx = *mx_it;
  for (size_t i = 0; i < in.size(); ++i) {
    out[i * stride] = mx - mn < 1e-9f ? 0.5f : (in[i] - mn) / (mx - mn);
  }
}

float CoverageCosine(const data::Item& a, const data::Item& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t j = 0; j < a.topic_coverage.size(); ++j) {
    dot += a.topic_coverage[j] * b.topic_coverage[j];
    na += a.topic_coverage[j] * a.topic_coverage[j];
    nb += b.topic_coverage[j] * b.topic_coverage[j];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0f;
  return static_cast<float>(dot / std::sqrt(na * nb));
}

float MarginalCoverageGain(const data::Item& item,
                           const std::vector<float>& residual) {
  const size_t m = residual.size();
  if (m == 0) return 0.0f;
  double gain = 0.0;
  for (size_t j = 0; j < m && j < item.topic_coverage.size(); ++j) {
    gain += item.topic_coverage[j] * residual[j];
  }
  return static_cast<float>(gain / static_cast<double>(m));
}

void AbsorbCoverage(const data::Item& item, std::vector<float>* residual) {
  for (size_t j = 0; j < residual->size() && j < item.topic_coverage.size();
       ++j) {
    (*residual)[j] *= 1.0f - item.topic_coverage[j];
  }
}

}  // namespace rapid::rerank
