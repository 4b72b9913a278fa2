#include "datagen/history.h"

#include <algorithm>

namespace rapid::data {

namespace {

// Calls `fn(j)` for each topic `j` of `TopicMembership(item, threshold)`,
// in the same order, without allocating.
template <class Fn>
void ForEachTopicOf(const Item& item, float threshold, Fn&& fn) {
  bool any = false;
  int argmax = 0;
  for (size_t j = 0; j < item.topic_coverage.size(); ++j) {
    if (item.topic_coverage[j] >= threshold) {
      fn(static_cast<int>(j));
      any = true;
    }
    if (item.topic_coverage[j] > item.topic_coverage[argmax]) {
      argmax = static_cast<int>(j);
    }
  }
  if (!any) fn(argmax);
}

}  // namespace

std::vector<int> TopicMembership(const Item& item, float threshold) {
  std::vector<int> topics;
  ForEachTopicOf(item, threshold, [&](int j) { topics.push_back(j); });
  return topics;
}

std::vector<std::vector<int>> SplitHistoryByTopic(const Dataset& data,
                                                  int user_id, int max_len,
                                                  float threshold) {
  std::vector<std::vector<int>> seqs(data.num_topics);
  for (int item_id : data.history[user_id]) {
    for (int j : TopicMembership(data.item(item_id), threshold)) {
      seqs[j].push_back(item_id);
    }
  }
  // Keep only the most recent `max_len` per topic (history is oldest-first).
  for (auto& seq : seqs) {
    if (static_cast<int>(seq.size()) > max_len) {
      seq.erase(seq.begin(), seq.end() - max_len);
    }
  }
  return seqs;
}

void TopicHistoryStepsInto(const Dataset& data, int user_id, int max_len,
                           float* steps, float* masks, float threshold) {
  const int m = data.num_topics;
  const int qu = data.user_feature_dim();
  const int qv = data.item_feature_dim();
  const size_t width = static_cast<size_t>(qu + qv);
  std::fill_n(steps, static_cast<size_t>(max_len) * m * width, 0.0f);
  std::fill_n(masks, static_cast<size_t>(max_len) * m, 0.0f);
  const User& user = data.user(user_id);
  const std::vector<int>& history = data.history[user_id];
  // Walk the history newest-first: the k-th newest item of topic j lands at
  // step max_len-1-k, which is where SplitHistoryByTopic's oldest-first,
  // last-max_len sequence puts it after left padding.
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    const Item& item = data.item(*it);
    ForEachTopicOf(item, threshold, [&](int j) {
      int t = max_len - 1;
      while (t >= 0 && masks[static_cast<size_t>(t) * m + j] != 0.0f) --t;
      if (t < 0) return;  // topic j already holds max_len items
      float* row = steps + (static_cast<size_t>(t) * m + j) * width;
      std::copy(user.features.begin(), user.features.begin() + qu, row);
      std::copy(item.features.begin(), item.features.begin() + qv, row + qu);
      masks[static_cast<size_t>(t) * m + j] = 1.0f;
    });
  }
}

std::vector<float> HistoryTopicDistribution(const Dataset& data, int user_id,
                                            float threshold) {
  std::vector<float> dist(data.num_topics);
  HistoryTopicDistributionInto(data, user_id, dist.data(), threshold);
  return dist;
}

void HistoryTopicDistributionInto(const Dataset& data, int user_id, float* out,
                                  float threshold) {
  std::fill_n(out, data.num_topics, 0.0f);
  float total = 0.0f;
  for (int item_id : data.history[user_id]) {
    ForEachTopicOf(data.item(item_id), threshold, [&](int j) {
      out[j] += 1.0f;
      total += 1.0f;
    });
  }
  if (total > 0.0f) {
    for (int j = 0; j < data.num_topics; ++j) out[j] /= total;
  }
}

}  // namespace rapid::data
