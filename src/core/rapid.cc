#include "core/rapid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "datagen/history.h"
#include "nn/kernels.h"

namespace rapid::core {

namespace {

using nn::Variable;

// Per-item relevance input e_i = [x_u, x_v, tau_v, initial score] (paper
// Section III-B plus the normalized initial score, so every neural
// re-ranker in this repo sees identical per-item inputs — see DESIGN.md),
// stacked list-major over a same-length batch.
nn::Matrix RelevanceFeatureMatrix(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists) {
  return rerank::BatchFeatureMatrix(data, lists);
}

// idx[b*L + i] = i*B + b: reorders time-major recurrence output rows
// (step-of-all-lists) back to list-major blocks.
std::vector<int> ListMajorIndex(int B, int L) {
  std::vector<int> idx(static_cast<size_t>(B) * L);
  for (int b = 0; b < B; ++b) {
    for (int i = 0; i < L; ++i) idx[b * L + i] = i * B + b;
  }
  return idx;
}

// RAPID-mean topic input: row j is [x_u, mean of topic j's item features]
// over the real (mask 1) rows of the `TopicHistoryStepsInto` layout, or
// zeros for a topic with no history. `x` is (m x (qu + qv)).
void MeanTopicInputInto(const float* steps, const float* masks, int steps_n,
                        int m, int qu, int qv, float* x) {
  const size_t width = static_cast<size_t>(qu + qv);
  std::fill_n(x, m * width, 0.0f);
  for (int j = 0; j < m; ++j) {
    int len = 0;
    for (int t = 0; t < steps_n; ++t) len += masks[t * m + j] != 0.0f;
    if (len == 0) continue;
    const int first = steps_n - len;  // left padding: oldest real step
    float* row = x + j * width;
    const float* first_row =
        steps + (static_cast<size_t>(first) * m + j) * width;
    std::copy(first_row, first_row + qu, row);  // x_u
    for (int t = first; t < steps_n; ++t) {
      const float* item = steps + (static_cast<size_t>(t) * m + j) * width + qu;
      for (int k = 0; k < qv; ++k) {
        row[qu + k] += item[k] / static_cast<float>(len);
      }
    }
  }
}

// Tiles a per-list (L x d) constant (e.g. the sinusoidal positional
// encoding) B times: row b*L + i of the result is row i of `pe`.
nn::Matrix TileRows(const nn::Matrix& pe, int B) {
  nn::Matrix out(B * pe.rows(), pe.cols());
  for (int b = 0; b < B; ++b) {
    for (int i = 0; i < pe.rows(); ++i) {
      const float* src = pe.row(i);
      float* dst = out.row(b * pe.rows() + i);
      for (int c = 0; c < pe.cols(); ++c) dst[c] = src[c];
    }
  }
  return out;
}

}  // namespace

struct RapidReranker::Net {
  Net(const data::Dataset& data, const RapidConfig& cfg, std::mt19937_64& rng)
      : rel_in_dim(rerank::ListFeatureDim(data)),
        beh_in_dim(data.user_feature_dim() + data.item_feature_dim()) {
    const int h = cfg.hidden_dim;
    const int m = data.num_topics;
    if (cfg.relevance_encoder == RelevanceEncoder::kBiLstm) {
      bilstm = std::make_unique<nn::BiLstm>(rel_in_dim, h, rng);
    } else {
      // Transformer relevance encoder at d_model = 2h so the head input
      // width matches the Bi-LSTM variant.
      trans_proj = std::make_unique<nn::Linear>(rel_in_dim, 2 * h, rng);
      trans_enc =
          std::make_unique<nn::TransformerEncoderLayer>(2 * h, 2, 4 * h, rng);
    }
    if (cfg.diversity_aggregator == DiversityAggregator::kLstm) {
      topic_lstm = std::make_unique<nn::Lstm>(beh_in_dim, h, rng);
    } else if (cfg.diversity_aggregator == DiversityAggregator::kMean) {
      mean_proj = std::make_unique<nn::Linear>(beh_in_dim, h, rng,
                                               nn::Activation::kTanh);
    }
    if (cfg.diversity_aggregator != DiversityAggregator::kNone) {
      // Input: flattened attended topic matrix plus a skip connection of
      // the empirical history topic distribution (aids trainability at
      // small data scale; see DESIGN.md).
      theta_mlp = std::make_unique<nn::Mlp>(
          std::vector<int>{m * h + m, 2 * h, m}, rng, nn::Activation::kRelu);
    }
    // Head input: encoded context, raw-feature skip, and (when the
    // diversity estimator is on) the m per-topic gains plus their sum.
    const int head_in =
        2 * h + rel_in_dim +
        (cfg.diversity_aggregator == DiversityAggregator::kNone ? 0 : m + 1);
    score_mlp = std::make_unique<nn::Mlp>(std::vector<int>{head_in, h, 1},
                                          rng, nn::Activation::kRelu);
    if (cfg.head == OutputHead::kProbabilistic) {
      sigma_mlp = std::make_unique<nn::Mlp>(std::vector<int>{head_in, h, 1},
                                            rng, nn::Activation::kRelu);
    }
  }

  int rel_in_dim;
  int beh_in_dim;
  std::unique_ptr<nn::BiLstm> bilstm;
  std::unique_ptr<nn::Linear> trans_proj;
  std::unique_ptr<nn::TransformerEncoderLayer> trans_enc;
  std::unique_ptr<nn::Lstm> topic_lstm;
  std::unique_ptr<nn::Linear> mean_proj;
  std::unique_ptr<nn::Mlp> theta_mlp;
  std::unique_ptr<nn::Mlp> score_mlp;  // deterministic head / mean head
  std::unique_ptr<nn::Mlp> sigma_mlp;  // probabilistic std head
};

RapidReranker::RapidReranker(RapidConfig config)
    : NeuralReranker(config.train), rapid_config_(config) {}
RapidReranker::~RapidReranker() = default;
RapidReranker::RapidReranker(RapidReranker&&) noexcept = default;
RapidReranker& RapidReranker::operator=(RapidReranker&&) noexcept = default;

std::string RapidReranker::name() const {
  if (rapid_config_.diversity_aggregator == DiversityAggregator::kNone) {
    return "RAPID-RNN";
  }
  if (rapid_config_.diversity_aggregator == DiversityAggregator::kMean) {
    return "RAPID-mean";
  }
  if (rapid_config_.relevance_encoder == RelevanceEncoder::kTransformer) {
    return "RAPID-trans";
  }
  return rapid_config_.head == OutputHead::kProbabilistic ? "RAPID-pro"
                                                          : "RAPID-det";
}

void RapidReranker::InitNet(const data::Dataset& data, std::mt19937_64& rng) {
  net_ = std::make_unique<Net>(data, rapid_config_, rng);
}

Variable RapidReranker::RelevanceStates(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists) const {
  const int B = static_cast<int>(lists.size());
  const int L = static_cast<int>(lists[0]->items.size());
  const nn::Matrix feats = RelevanceFeatureMatrix(data, lists);
  if (rapid_config_.relevance_encoder == RelevanceEncoder::kBiLstm) {
    // One time-major recurrence encodes all lists at once; rows evolve
    // independently, so each list's states match its solo encoding.
    Variable tm = nn::ConcatRows(
        net_->bilstm->Forward(rerank::TimeMajorSteps(feats, B, L)));
    if (B == 1) return tm;  // time-major == list-major for one list
    return nn::GatherRows(tm, ListMajorIndex(B, L));
  }
  Variable h = net_->trans_proj->Forward(Variable::Constant(feats));
  h = nn::Add(h, Variable::Constant(TileRows(
                     nn::SinusoidalPositionalEncoding(L, h.cols()), B)));
  return net_->trans_enc->Forward(h, /*segment=*/L);
}

Variable RapidReranker::Theta(const data::Dataset& data, int user_id) const {
  const int m = data.num_topics;
  const int D = rapid_config_.max_seq_len;
  const int qu = data.user_feature_dim();
  const int qv = data.item_feature_dim();
  // The m per-topic behavior sequences as the D left-padded steps of one
  // batched recurrence; the mask keeps padded topics' state unchanged.
  nn::Matrix steps(D * m, qu + qv);
  nn::Matrix masks(D * m, 1);
  data::TopicHistoryStepsInto(data, user_id, D, steps.data(), masks.data());

  Variable topic_repr;  // (m x q_h)
  if (rapid_config_.diversity_aggregator == DiversityAggregator::kLstm) {
    // Batch all m topic sequences through one shared LSTM: step t input is
    // the (m x (qu+qv)) matrix of each topic's t-th item.
    std::vector<Variable> inputs, step_masks;
    inputs.reserve(D);
    step_masks.reserve(D);
    for (int t = 0; t < D; ++t) {
      nn::Matrix x(m, qu + qv);
      nn::Matrix mask(m, 1);
      std::copy(steps.row(t * m), steps.row(t * m) + x.size(), x.data());
      std::copy(masks.row(t * m), masks.row(t * m) + m, mask.data());
      inputs.push_back(Variable::Constant(std::move(x)));
      step_masks.push_back(Variable::Constant(std::move(mask)));
    }
    topic_repr = net_->topic_lstm->ForwardLast(inputs, step_masks);
  } else {
    // RAPID-mean: mean item embedding per topic, projected to q_h.
    nn::Matrix x(m, qu + qv);
    MeanTopicInputInto(steps.data(), masks.data(), D, m, qu, qv, x.data());
    topic_repr = net_->mean_proj->Forward(Variable::Constant(std::move(x)));
  }

  // Inter-topic interactions (Eq. 2) and the preference head (Eq. 3).
  // A sigmoid (not softmax) keeps per-topic preferences independent —
  // a softmax here collapses under the elementwise-product gradient path.
  Variable attended = nn::UnprojectedSelfAttention(topic_repr);
  nn::Matrix hist_dist(1, m);
  data::HistoryTopicDistributionInto(data, user_id, hist_dist.data());
  Variable theta = net_->theta_mlp->Forward(nn::ConcatCols(
      {nn::FlattenToRow(attended),
       Variable::Constant(std::move(hist_dist))}));  // (1 x m)
  return nn::Sigmoid(theta);
}

void RapidReranker::ThetaInfer(const data::Dataset& data, int user_id,
                               float* theta, nn::Workspace& ws) const {
  const int m = data.num_topics;
  const int D = rapid_config_.max_seq_len;
  const int h = rapid_config_.hidden_dim;
  const int qu = data.user_feature_dim();
  const int qv = data.item_feature_dim();
  nn::Workspace::Scope scope(ws);
  float* steps = ws.Take(static_cast<size_t>(D) * m * (qu + qv));
  float* masks = ws.Take(static_cast<size_t>(D) * m);
  data::TopicHistoryStepsInto(data, user_id, D, steps, masks);
  const float* topic_repr;  // (m x q_h)
  if (rapid_config_.diversity_aggregator == DiversityAggregator::kLstm) {
    float* states = ws.Take(static_cast<size_t>(D) * m * h);
    net_->topic_lstm->Infer(steps, masks, D, m, /*reverse=*/false, states,
                            ws);
    topic_repr = states + static_cast<size_t>(D - 1) * m * h;
  } else {
    float* x = ws.Take(static_cast<size_t>(m) * (qu + qv));
    MeanTopicInputInto(steps, masks, D, m, qu, qv, x);
    float* repr = ws.Take(static_cast<size_t>(m) * h);
    net_->mean_proj->Infer(x, m, repr);
    topic_repr = repr;
  }
  // [FlattenToRow(attended), history topic distribution] as one row.
  float* theta_in = ws.Take(static_cast<size_t>(m) * h + m);
  nn::UnprojectedSelfAttentionInfer(topic_repr, m, h, theta_in, ws);
  data::HistoryTopicDistributionInto(data, user_id, theta_in + m * h);
  net_->theta_mlp->Infer(theta_in, 1, theta, ws);
  nn::kernel::Active().sigmoid(theta, theta, m);
}

Variable RapidReranker::BuildBatchLogits(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists, bool training,
    std::mt19937_64& rng) const {
  const int B = static_cast<int>(lists.size());
  const int L = static_cast<int>(lists[0]->items.size());
  // Skip connection of the raw per-item features into the head alongside
  // the encoded listwise context (small-scale trainability; DESIGN.md).
  Variable head_in =
      nn::ConcatCols({RelevanceStates(data, lists),
                      Variable::Constant(RelevanceFeatureMatrix(data, lists))});

  if (rapid_config_.diversity_aggregator != DiversityAggregator::kNone) {
    // The personalized diversity gain is inherently per list (theta is
    // per user, d_R per candidate set): compute each list's (L x m) block
    // and stack. A user appearing in several lists shares one Theta graph.
    std::unordered_map<int, Variable> theta_by_user;
    std::vector<Variable> deltas;
    deltas.reserve(lists.size());
    for (const data::ImpressionList* list : lists) {
      auto it = theta_by_user.find(list->user_id);
      if (it == theta_by_user.end()) {
        it = theta_by_user.emplace(list->user_id, Theta(data, list->user_id))
                 .first;
      }
      // Marginal diversity d_R (Eq. 5, under the configured submodular
      // function) as a constant (L x m), weighted by the personalized
      // preference (Eq. 6).
      const auto md = MarginalDiversityOf(rapid_config_.diversity_function,
                                          data, list->items);
      nn::Matrix d_mat(L, data.num_topics);
      for (int i = 0; i < L; ++i) {
        for (int j = 0; j < data.num_topics; ++j) d_mat.at(i, j) = md[i][j];
      }
      deltas.push_back(nn::MulRowBroadcast(
          Variable::Constant(std::move(d_mat)), it->second));
    }
    Variable delta = B == 1 ? deltas[0] : nn::ConcatRows(deltas);
    // Alongside the per-topic gains, expose their sum `theta . d_i` — the
    // scalar personalized diversity gain — which is the easiest signal for
    // the head when m is large and the per-topic columns are sparse.
    head_in = nn::ConcatCols({head_in, delta, nn::SumCols(delta)});
  }

  Variable mean_logits = net_->score_mlp->Forward(head_in);  // (B*L x 1)
  if (rapid_config_.head == OutputHead::kDeterministic) {
    return mean_logits;
  }

  // Probabilistic head (Section III-D2): std via softplus; training uses
  // the reparameterization trick, inference the UCB (mean + std).
  Variable sigma = nn::Softplus(net_->sigma_mlp->Forward(head_in));
  if (training) {
    nn::Matrix noise(B * L, 1);
    std::normal_distribution<float> n01(0.0f, 1.0f);
    for (int i = 0; i < B * L; ++i) noise.at(i, 0) = n01(rng);
    return nn::Add(mean_logits,
                   nn::Mul(sigma, Variable::Constant(std::move(noise))));
  }
  return nn::Add(mean_logits, sigma);
}

bool RapidReranker::InferBatchLogits(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists, nn::Workspace& ws,
    float* logits) const {
  if (rapid_config_.relevance_encoder != RelevanceEncoder::kBiLstm) {
    return false;
  }
  const nn::kernel::KernelTable& kt = nn::kernel::Active();
  const int B = static_cast<int>(lists.size());
  const int L = static_cast<int>(lists[0]->items.size());
  const int rows = B * L;
  const int h2 = 2 * rapid_config_.hidden_dim;
  const int F = net_->rel_in_dim;
  const int m = data.num_topics;
  const bool diversity =
      rapid_config_.diversity_aggregator != DiversityAggregator::kNone;
  const int cols = h2 + F + (diversity ? m + 1 : 0);
  nn::Workspace::Scope scope(ws);

  // Relevance: the Bi-LSTM over the time-major features (row t*B + b is
  // item t of list b), then head_in rows [H, e] in list-major order.
  float* feats = ws.Take(static_cast<size_t>(rows) * F);
  for (int b = 0; b < B; ++b) {
    rerank::ListFeatureRowsInto(data, *lists[b], feats + b * F,
                                static_cast<size_t>(B) * F);
  }
  float* states = ws.Take(static_cast<size_t>(rows) * h2);
  net_->bilstm->Infer(feats, L, B, states, ws);
  float* head_in = ws.Take(static_cast<size_t>(rows) * cols);
  for (int b = 0; b < B; ++b) {
    for (int t = 0; t < L; ++t) {
      float* row = head_in + static_cast<size_t>(b * L + t) * cols;
      const size_t tm = static_cast<size_t>(t) * B + b;
      std::copy(states + tm * h2, states + (tm + 1) * h2, row);
      std::copy(feats + tm * F, feats + (tm + 1) * F, row + h2);
    }
  }

  if (diversity) {
    // Delta = d_R ⊙ theta per list, then [Delta, sum(Delta)] per row. A
    // user repeated in the batch reuses its first theta.
    float* theta = ws.Take(static_cast<size_t>(B) * m);
    float* md = ws.Take(static_cast<size_t>(L) * m);
    float* delta = ws.Take(static_cast<size_t>(L) * m);
    float* delta_sum = ws.Take(L);
    for (int b = 0; b < B; ++b) {
      const data::ImpressionList& list = *lists[b];
      float* theta_b = theta + static_cast<size_t>(b) * m;
      int first = 0;
      while (lists[first]->user_id != list.user_id) ++first;
      if (first < b) {
        std::copy(theta + first * m, theta + (first + 1) * m, theta_b);
      } else {
        ThetaInfer(data, list.user_id, theta_b, ws);
      }
      MarginalDiversityOfInto(rapid_config_.diversity_function, data,
                              list.items, md);
      nn::MulRowBroadcastInto(md, theta_b, delta, L, m);
      nn::SumColsInto(delta, delta_sum, L, m);
      for (int i = 0; i < L; ++i) {
        float* row = head_in + static_cast<size_t>(b * L + i) * cols + h2 + F;
        std::copy(delta + i * m, delta + (i + 1) * m, row);
        row[m] = delta_sum[i];
      }
    }
  }

  if (rapid_config_.head == OutputHead::kDeterministic) {
    net_->score_mlp->Infer(head_in, rows, logits, ws);
    return true;
  }
  // UCB inference: mean + softplus(std head).
  float* mean = ws.Take(rows);
  float* sigma = ws.Take(rows);
  net_->score_mlp->Infer(head_in, rows, mean, ws);
  net_->sigma_mlp->Infer(head_in, rows, sigma, ws);
  nn::SoftplusInto(sigma, sigma, rows);
  kt.add(mean, sigma, logits, rows);
  return true;
}

std::vector<Variable> RapidReranker::Params() const {
  std::vector<Variable> out;
  auto append = [&out](const std::vector<Variable>& ps) {
    out.insert(out.end(), ps.begin(), ps.end());
  };
  if (net_->bilstm) append(net_->bilstm->Params());
  if (net_->trans_proj) append(net_->trans_proj->Params());
  if (net_->trans_enc) append(net_->trans_enc->Params());
  if (net_->topic_lstm) append(net_->topic_lstm->Params());
  if (net_->mean_proj) append(net_->mean_proj->Params());
  if (net_->theta_mlp) append(net_->theta_mlp->Params());
  append(net_->score_mlp->Params());
  if (net_->sigma_mlp) append(net_->sigma_mlp->Params());
  return out;
}

std::vector<float> RapidReranker::PreferenceDistribution(
    const data::Dataset& data, int user_id) const {
  assert(net_ != nullptr && "call Fit before PreferenceDistribution");
  assert(rapid_config_.diversity_aggregator != DiversityAggregator::kNone);
  const nn::Matrix theta = Theta(data, user_id).value();
  std::vector<float> out(theta.cols());
  for (int j = 0; j < theta.cols(); ++j) out[j] = theta.at(0, j);
  return out;
}

}  // namespace rapid::core
