#ifndef RAPID_CORE_RAPID_H_
#define RAPID_CORE_RAPID_H_

#include <memory>
#include <string>
#include <vector>

#include "core/diversity_function.h"
#include "rerank/neural_base.h"

namespace rapid::core {

/// Which architecture computes the listwise relevance representation
/// (paper Section III-B; the transformer swap is the RAPID-trans ablation).
enum class RelevanceEncoder { kBiLstm, kTransformer };

/// How the per-topic behavior sequences are aggregated into topic
/// representations (Section III-C):
///  - kLstm: the paper's intra-topic LSTM (final state per topic);
///  - kMean: RAPID-mean ablation — mean of the item embeddings per topic;
///  - kNone: RAPID-RNN ablation — the personalized diversity estimator is
///    removed entirely.
enum class DiversityAggregator { kLstm, kMean, kNone };

/// Output approach of the re-ranker module (Section III-D):
///  - kDeterministic (RAPID-det): a single fused MLP head;
///  - kProbabilistic (RAPID-pro): mean/std heads with reparameterized
///    sampling during training and UCB (mean + std) scoring at inference.
enum class OutputHead { kDeterministic, kProbabilistic };

/// Full configuration of a RAPID model and its training loop.
struct RapidConfig {
  /// Hidden size q_h of the LSTMs / attention.
  int hidden_dim = 16;
  /// Maximum per-topic behavior sequence length D (paper default 5).
  int max_seq_len = 5;
  RelevanceEncoder relevance_encoder = RelevanceEncoder::kBiLstm;
  DiversityAggregator diversity_aggregator = DiversityAggregator::kLstm;
  OutputHead head = OutputHead::kProbabilistic;
  /// Which submodular diversity function drives the marginal-diversity
  /// features (the paper's pluggable Eq. 4; default is its probabilistic
  /// coverage).
  DiversityFunctionKind diversity_function =
      DiversityFunctionKind::kProbabilisticCoverage;
  rerank::NeuralRerankConfig train;
};

/// RAPID: re-ranking with personalized diversification (the paper's
/// primary contribution).
///
/// Pipeline per list:
///  1. listwise relevance: Bi-LSTM (or transformer) over the item feature
///     sequence `e_i = [x_u, x_v, tau_v]` -> `H in R^{L x 2q_h}`;
///  2. personalized diversity: per-topic behavior LSTM -> topic matrix
///     `V in R^{m x q_h}` -> parameter-free self-attention (Eq. 2) ->
///     MLP + softmax -> preference distribution `theta in R^m`; the
///     marginal coverage diversity `d_R` (Eq. 5) is weighted elementwise:
///     `Delta = theta ⊙ d_R`;
///  3. re-ranker: MLP over `[H, Delta]`, deterministic or probabilistic.
/// Trained end-to-end with pointwise BCE on clicks (Eq. 11).
class RapidReranker : public rerank::NeuralReranker {
 public:
  explicit RapidReranker(RapidConfig config = {});
  ~RapidReranker() override;

  /// Movable (the network lives behind a pimpl), not copyable — serving
  /// code hands fitted models around by value or `unique_ptr`.
  RapidReranker(RapidReranker&&) noexcept;
  RapidReranker& operator=(RapidReranker&&) noexcept;

  /// "RAPID-pro", "RAPID-det", "RAPID-RNN", "RAPID-mean" or "RAPID-trans",
  /// derived from the configuration.
  std::string name() const override;

  /// The learned preference distribution `theta` over topics for a user
  /// (Section III-C / the RQ5 case study). Must be called after Fit.
  std::vector<float> PreferenceDistribution(const data::Dataset& data,
                                            int user_id) const;

  const RapidConfig& config() const { return rapid_config_; }

 protected:
  void InitNet(const data::Dataset& data, std::mt19937_64& rng) override;
  nn::Variable BuildBatchLogits(
      const data::Dataset& data,
      const std::vector<const data::ImpressionList*>& lists, bool training,
      std::mt19937_64& rng) const override;
  /// The graph-free forward for the Bi-LSTM relevance encoder (every
  /// config but RAPID-trans, which keeps the graph path).
  bool InferBatchLogits(const data::Dataset& data,
                        const std::vector<const data::ImpressionList*>& lists,
                        nn::Workspace& ws, float* logits) const override;
  std::vector<nn::Variable> Params() const override;

 private:
  struct Net;
  /// Relevance representations of a batch of same-length lists, stacked
  /// list-major: (B*L x 2q_h). Each list's block is bit-identical to its
  /// solo encoding (time-major Bi-LSTM batching / per-list attention).
  nn::Variable RelevanceStates(
      const data::Dataset& data,
      const std::vector<const data::ImpressionList*>& lists) const;
  /// Preference distribution theta (1 x m) for a user.
  nn::Variable Theta(const data::Dataset& data, int user_id) const;
  /// `Theta(data, user_id).value()` into `theta[0, m)`, graph-free.
  void ThetaInfer(const data::Dataset& data, int user_id, float* theta,
                  nn::Workspace& ws) const;

  RapidConfig rapid_config_;
  std::unique_ptr<Net> net_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_RAPID_H_
