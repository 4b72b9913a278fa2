#include "rerank/neural_base.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "nn/arena.h"
#include "nn/serialize.h"
#include "nn/variable.h"
#include "nn/workspace.h"

namespace rapid::rerank {

nn::Matrix ListFeatureMatrix(const data::Dataset& data,
                             const data::ImpressionList& list) {
  nn::Matrix out(static_cast<int>(list.items.size()), ListFeatureDim(data));
  ListFeatureRowsInto(data, list, out.data(), out.cols());
  return out;
}

void ListFeatureRowsInto(const data::Dataset& data,
                         const data::ImpressionList& list, float* out,
                         size_t row_stride) {
  const int L = static_cast<int>(list.items.size());
  const int qu = data.user_feature_dim();
  const int qv = data.item_feature_dim();
  const int m = data.num_topics;
  assert(list.scores.size() == list.items.size());
  const data::User& user = data.user(list.user_id);
  for (int i = 0; i < L; ++i) {
    const data::Item& item = data.item(list.items[i]);
    float* row = out + i * row_stride;
    int c = 0;
    for (int k = 0; k < qu; ++k) row[c++] = user.features[k];
    for (int k = 0; k < qv; ++k) row[c++] = item.features[k];
    for (int j = 0; j < m; ++j) row[c++] = item.topic_coverage[j];
  }
  NormalizedScoresInto(list, out + qu + qv + m, row_stride);
}

int ListFeatureDim(const data::Dataset& data) {
  return data.user_feature_dim() + data.item_feature_dim() +
         data.num_topics + 1;
}

nn::Matrix BatchFeatureMatrix(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists) {
  assert(!lists.empty());
  const int L = static_cast<int>(lists[0]->items.size());
  const int F = ListFeatureDim(data);
  nn::Matrix out(static_cast<int>(lists.size()) * L, F);
  for (size_t b = 0; b < lists.size(); ++b) {
    assert(static_cast<int>(lists[b]->items.size()) == L);
    ListFeatureRowsInto(data, *lists[b], out.row(static_cast<int>(b) * L), F);
  }
  return out;
}

std::vector<nn::Variable> TimeMajorSteps(const nn::Matrix& feats, int batch,
                                         int length) {
  assert(feats.rows() == batch * length);
  std::vector<nn::Variable> steps;
  steps.reserve(length);
  for (int t = 0; t < length; ++t) {
    nn::Matrix x(batch, feats.cols());
    for (int b = 0; b < batch; ++b) {
      const float* src = feats.row(b * length + t);
      float* dst = x.row(b);
      for (int c = 0; c < feats.cols(); ++c) dst[c] = src[c];
    }
    steps.push_back(nn::Variable::Constant(std::move(x)));
  }
  return steps;
}

nn::Variable NeuralReranker::ListLoss(const data::Dataset& data,
                                      const data::ImpressionList& list,
                                      std::mt19937_64& rng) const {
  assert(list.clicks.size() == list.items.size());
  nn::Variable logits = BuildLogits(data, list, /*training=*/true, rng);
  const int L = static_cast<int>(list.items.size());

  if (config_.loss == RerankLoss::kPairwiseLogistic) {
    std::vector<int> pos, neg;
    for (int i = 0; i < L; ++i) {
      (list.clicks[i] ? pos : neg).push_back(i);
    }
    if (pos.empty() || neg.empty()) {
      // No informative pairs: fall through to the pointwise loss so the
      // batch still contributes gradient.
    } else {
      // mean over pairs of softplus(-(s_pos - s_neg)).
      std::vector<nn::Variable> pair_losses;
      pair_losses.reserve(pos.size() * neg.size());
      for (int i : pos) {
        nn::Variable si = nn::SliceRows(logits, i, 1);
        for (int j : neg) {
          nn::Variable sj = nn::SliceRows(logits, j, 1);
          pair_losses.push_back(
              nn::Softplus(nn::Scale(nn::Sub(si, sj), -1.0f)));
        }
      }
      return nn::MeanAll(nn::ConcatRows(pair_losses));
    }
  }

  nn::Matrix targets(L, 1);
  for (int i = 0; i < L; ++i) {
    targets.at(i, 0) = static_cast<float>(list.clicks[i]);
  }
  return nn::BceWithLogits(logits, targets, nn::Matrix::Constant(L, 1, 1.0f));
}

void NeuralReranker::Fit(const data::Dataset& data,
                         const std::vector<data::ImpressionList>& train,
                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  InitNet(data, rng);
  TrainLoop(data, train, rng, config_.epochs);
}

void NeuralReranker::FineTune(const data::Dataset& data,
                              const std::vector<data::ImpressionList>& train,
                              uint64_t seed, int epochs) {
  if (train.empty() || epochs <= 0) return;
  std::mt19937_64 rng(seed);
  TrainLoop(data, train, rng, epochs);
}

void NeuralReranker::TrainLoop(const data::Dataset& data,
                               const std::vector<data::ImpressionList>& train,
                               std::mt19937_64& rng, int epochs) {
  nn::Adam opt(Params(), config_.learning_rate);

  std::vector<int> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    double epoch_loss = 0.0;
    int batches = 0;
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end = std::min(order.size(), start + config_.batch_size);
      opt.ZeroGrad();
      nn::Variable total;
      bool first = true;
      for (size_t i = start; i < end; ++i) {
        nn::Variable l = ListLoss(data, train[order[i]], rng);
        total = first ? l : nn::Add(total, l);
        first = false;
      }
      nn::Variable loss =
          nn::Scale(total, 1.0f / static_cast<float>(end - start));
      loss.Backward();
      nn::ClipGradNorm(opt.params(), config_.grad_clip);
      opt.Step();
      epoch_loss += loss.value().at(0, 0);
      ++batches;
    }
    final_loss_ = static_cast<float>(epoch_loss / std::max(batches, 1));
  }
}

bool NeuralReranker::SaveModel(const std::string& path) const {
  return nn::SaveParams(path, Params());
}

bool NeuralReranker::LoadModel(const data::Dataset& data,
                               const std::string& path) {
  std::mt19937_64 rng(0);  // Initialization values are overwritten.
  InitNet(data, rng);
  std::vector<nn::Variable> params = Params();
  return nn::LoadParams(path, &params);
}

bool NeuralReranker::SaveModel(std::ostream& out) const {
  return nn::SaveParams(out, Params());
}

bool NeuralReranker::LoadModel(const data::Dataset& data, std::istream& in) {
  std::mt19937_64 rng(0);  // Initialization values are overwritten.
  InitNet(data, rng);
  std::vector<nn::Variable> params = Params();
  return nn::LoadParams(in, &params);
}

bool NeuralReranker::InferBatchLogits(
    const data::Dataset& /*data*/,
    const std::vector<const data::ImpressionList*>& /*lists*/,
    nn::Workspace& /*ws*/, float* /*logits*/) const {
  return false;
}

nn::Variable NeuralReranker::BuildLogits(const data::Dataset& data,
                                         const data::ImpressionList& list,
                                         bool training,
                                         std::mt19937_64& rng) const {
  return BuildBatchLogits(data, {&list}, training, rng);
}

std::vector<float> NeuralReranker::ScoreList(
    const data::Dataset& data, const data::ImpressionList& list) const {
  return ScoreBatch(data, {&list}).front();
}

std::vector<std::vector<float>> NeuralReranker::ScoreBatch(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists) const {
  std::vector<std::vector<float>> out;
  ScoreBatchInto(data, lists, &out);
  return out;
}

void NeuralReranker::ScoreBatchInto(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists,
    std::vector<std::vector<float>>* out) const {
  // Pre-size every output vector before any arena scope opens: a scope
  // rewind must never reclaim a buffer the caller keeps (nn/arena.h rule 1).
  out->resize(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    (*out)[i].resize(lists[i]->items.size());
  }
  if (lists.empty()) return;

  std::mt19937_64 rng(0);  // Inference paths must not consume randomness.

  // Everything below is scratch. Containers and any graph come from (and
  // return to) the thread-local arena; flat buffers from the thread's
  // malloc-backed inference workspace.
  nn::arena::ArenaScope scratch_scope;
  nn::Workspace& ws = nn::Workspace::ThisThread();

  // Group positions by list length; the group order does not affect any
  // output (each list's scores are read back from its own logit block).
  std::vector<size_t> order(lists.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return lists[a]->items.size() < lists[b]->items.size();
  });

  size_t start = 0;
  while (start < order.size()) {
    const size_t L = lists[order[start]]->items.size();
    size_t end = start;
    while (end < order.size() && lists[order[end]]->items.size() == L) ++end;
    if (L == 0) {  // Empty lists score to empty vectors; no forward to run.
      start = end;
      continue;
    }
    // Per-group scopes: feature blocks, workspace buffers and any forward
    // graph are reclaimed before the next group runs, keeping the
    // high-water mark at max-over-groups rather than sum.
    nn::arena::ArenaScope group_scope;
    nn::Workspace::Scope ws_scope(ws);
    std::vector<const data::ImpressionList*> group;
    group.reserve(end - start);
    for (size_t g = start; g < end; ++g) group.push_back(lists[order[g]]);
    float* logits = ws.Take(group.size() * L);
    if (!InferBatchLogits(data, group, ws, logits)) {
      // The graph path. No-grad mode keeps the graph free of parent edges
      // and backward closures (inference never calls Backward).
      nn::NoGradScope no_grad;
      const nn::Variable graph =
          BuildBatchLogits(data, group, /*training=*/false, rng);
      assert(static_cast<size_t>(graph.rows()) == group.size() * L);
      std::copy(graph.value().data(), graph.value().data() + graph.rows(),
                logits);
    }
    for (size_t g = start; g < end; ++g) {
      const float* block = logits + (g - start) * L;
      std::copy(block, block + L, (*out)[order[g]].begin());
    }
    start = end;
  }
}

namespace {

// Stable score-descending sort of a list's items (shared by the single and
// batched rerank paths so both produce identical permutations).
std::vector<int> SortByScores(const data::ImpressionList& list,
                              const std::vector<float>& scores) {
  std::vector<int> idx(list.items.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
    return scores[a] > scores[b];
  });
  std::vector<int> out;
  out.reserve(idx.size());
  for (int i : idx) out.push_back(list.items[i]);
  return out;
}

}  // namespace

std::vector<int> NeuralReranker::Rerank(
    const data::Dataset& data, const data::ImpressionList& list) const {
  return SortByScores(list, ScoreList(data, list));
}

void NeuralReranker::RerankBatchInto(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists,
    std::vector<std::vector<int>>* out) const {
  // Thread-local score scratch: (re)sized inside ScoreBatchInto before any
  // arena scope opens, so its buffers are heap-backed, warm after the first
  // call on a thread, and never handed across threads.
  static thread_local std::vector<std::vector<float>> scores;
  ScoreBatchInto(data, lists, &scores);
  // Pre-size the output permutations outside the arena scope (they outlive
  // it); the sort below then allocates at most stable_sort's temporary
  // buffer, which the arena absorbs.
  out->resize(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    (*out)[i].resize(lists[i]->items.size());
  }
  nn::arena::ArenaScope sort_scope;
  for (size_t i = 0; i < lists.size(); ++i) {
    const data::ImpressionList& list = *lists[i];
    const std::vector<float>& s = scores[i];
    std::vector<int>& perm = (*out)[i];
    // Same stable index sort as SortByScores, done in place so the single
    // and batched paths stay permutation-identical.
    std::iota(perm.begin(), perm.end(), 0);
    std::stable_sort(perm.begin(), perm.end(),
                     [&s](int a, int b) { return s[a] > s[b]; });
    for (int& v : perm) v = list.items[v];
  }
}

}  // namespace rapid::rerank
