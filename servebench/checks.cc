#include "checks.h"

#include <algorithm>
#include <thread>

#include "workload.h"

namespace servebench {

using rapid::data::ImpressionList;

namespace {

std::string CheckStamp(const std::string& name, uint64_t version,
                       const Stamp& stamp) {
  if (name != stamp.model_name) return "model name '" + name + "'";
  if (version < stamp.min_version || version > stamp.max_version) {
    return "model version " + std::to_string(version) +
           " was never published";
  }
  return "";
}

bool IsPermutation(std::vector<int> a, std::vector<int> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

std::vector<std::vector<int>> ReferenceOrders(
    const rapid::rerank::NeuralReranker& model,
    const rapid::data::Dataset& data,
    const std::vector<const ImpressionList*>& lists, int threads) {
  std::vector<std::vector<int>> out(lists.size());
  const size_t n = lists.size();
  const size_t t_count = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(threads), n));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < t_count; ++t) {
    pool.emplace_back([&, t] {
      std::vector<const ImpressionList*> chunk;
      std::vector<std::vector<int>> orders;
      // Interleaved chunks of 8 keep every thread busy to the end.
      for (size_t start = t * 8; start < n; start += t_count * 8) {
        const size_t end = std::min(n, start + 8);
        chunk.assign(lists.begin() + start, lists.begin() + end);
        model.RerankBatchInto(data, chunk, &orders);
        for (size_t i = start; i < end; ++i) out[i] = orders[i - start];
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  return out;
}

rapid::page::PageResult ReferencePage(
    const rapid::data::Dataset& data, const rapid::data::PageSession& page,
    const std::vector<std::vector<int>>& orders, bool joint) {
  rapid::page::PageRerankConfig config;
  config.joint = joint;
  config.top_k = kPageTopK;
  const rapid::page::PageReranker reranker(data, config);
  std::vector<std::vector<float>> relevance;
  for (const std::vector<int>& order : orders) {
    relevance.push_back(rapid::page::PageReranker::RankRelevance(order.size()));
  }
  return reranker.Rerank(orders, relevance, page.diversity_budget);
}

std::string CheckScore(const ImpressionList& sent,
                       const rapid::net::WireResponse& got,
                       const std::vector<int>& reference,
                       const Stamp& stamp) {
  if (got.shed) return "shed";
  if (got.degraded) return "degraded";
  std::string stamp_error = CheckStamp(got.model_name, got.model_version, stamp);
  if (!stamp_error.empty()) return stamp_error;
  if (!IsPermutation(got.items, sent.items)) {
    return "not a permutation of the sent list";
  }
  if (got.items != reference) return "differs from the reference order";
  return "";
}

std::string CheckPageProperties(const rapid::net::WirePageResponse& got) {
  if (!(got.cross_list_redundancy >= 0.0f)) return "negative redundancy";
  if (!(got.page_coverage >= 0.0f && got.page_coverage <= 1.0f)) {
    return "coverage outside [0, 1]";
  }
  return "";
}

std::string CheckPage(const rapid::data::PageSession& sent,
                      const rapid::net::WirePageResponse& got,
                      const rapid::page::PageResult& reference,
                      const Stamp& stamp) {
  if (got.degraded) return "degraded page";
  std::string error = CheckStamp(got.model_name, got.model_version, stamp);
  if (!error.empty()) return error;
  if (got.lists.size() != sent.lists.size()) return "list count differs";
  for (size_t l = 0; l < sent.lists.size(); ++l) {
    if (!IsPermutation(got.lists[l], sent.lists[l].items)) {
      return "page list " + std::to_string(l) + " is not a permutation";
    }
  }
  if (got.lists != reference.lists) return "differs from the reference page";
  error = CheckPageProperties(got);
  if (!error.empty()) return error;
  if (got.page_coverage != reference.page_coverage ||
      got.cross_list_redundancy != reference.cross_list_redundancy) {
    return "coverage or redundancy differs from the reference";
  }
  return "";
}

std::string CheckDelivery(uint64_t frames_sent, uint64_t frames_received,
                          uint64_t frames_answered,
                          uint64_t dropped_responses) {
  if (frames_received != frames_sent) {
    return std::to_string(frames_sent) + " frames sent, " +
           std::to_string(frames_received) + " received by the server";
  }
  if (frames_answered != frames_sent) {
    return std::to_string(frames_sent) + " frames sent, " +
           std::to_string(frames_answered) + " answered";
  }
  if (dropped_responses != 0) {
    return std::to_string(dropped_responses) + " responses dropped";
  }
  return "";
}

std::string CheckBeatsInitial(double served_clicks, double initial_clicks) {
  if (!(served_clicks > initial_clicks)) {
    return "served lists earn " + std::to_string(served_clicks) +
           " expected clicks, the initial order " +
           std::to_string(initial_clicks);
  }
  return "";
}

}  // namespace servebench
