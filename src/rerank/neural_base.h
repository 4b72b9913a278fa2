#ifndef RAPID_RERANK_NEURAL_BASE_H_
#define RAPID_RERANK_NEURAL_BASE_H_

#include <iosfwd>
#include <random>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "rerank/reranker.h"

namespace rapid::rerank {

/// Per-list training objective.
enum class RerankLoss {
  /// The paper's Eq. 11: pointwise binary cross-entropy on clicks.
  kPointwiseBce,
  /// BPR-style pairwise logistic loss over (clicked, unclicked) pairs
  /// within a list (used by DESA, whose original formulation is pairwise).
  kPairwiseLogistic,
};

/// Shared hyper-parameters of all neural re-rankers.
struct NeuralRerankConfig {
  int hidden_dim = 16;
  int epochs = 10;
  /// Lists per gradient step.
  int batch_size = 16;
  /// Grid-searched over {1e-3, 3e-3, 6e-3, 1e-2} on the Taobao simulator;
  /// 6e-3 is the best shared setting across all neural re-rankers.
  float learning_rate = 6e-3f;
  float grad_clip = 5.0f;
  RerankLoss loss = RerankLoss::kPointwiseBce;
};

/// Base class for neural re-rankers: owns the training loop (Adam over
/// mini-batches of lists, pointwise BCE on click labels, gradient
/// clipping) and the score-then-sort inference. Subclasses implement the
/// network: `InitNet` builds parameters, `BuildBatchLogits` maps a batch
/// of same-length lists to one stacked `(B*L x 1)` logit column — the
/// single forward implementation behind every entry point. `ScoreList` /
/// `Rerank` are batch-of-one wrappers over it; `ScoreBatch` /
/// `RerankBatch` group mixed-length inputs by length and run one forward
/// per group.
///
/// Thread safety: `Fit`/`LoadModel` are exclusive; after either completes,
/// the const inference surface (`Rerank`/`RerankBatch`/`ScoreList`/
/// `ScoreBatch`/`SaveModel`) is safe to call concurrently from many
/// threads (see the contract on `Reranker::Rerank`). Subclass
/// `BuildBatchLogits` implementations must uphold this: with `training ==
/// false` they may only *read* the network parameters and must keep all
/// scratch state (graphs, buffers) local to the call.
class NeuralReranker : public Reranker {
 public:
  explicit NeuralReranker(NeuralRerankConfig config) : config_(config) {}

  void Fit(const data::Dataset& data,
           const std::vector<data::ImpressionList>& train,
           uint64_t seed) override;

  /// Continues training on `train` *without* re-initializing the network:
  /// `epochs` passes of the same mini-batch loop as `Fit` (fresh Adam
  /// state per call) over the already-fitted parameters — the online
  /// trainer's incremental update on drained feedback batches. Requires a
  /// prior `Fit` or `LoadModel`; exclusive access like `Fit` (never call
  /// concurrently with inference on the same object). No-op on an empty
  /// `train`.
  void FineTune(const data::Dataset& data,
                const std::vector<data::ImpressionList>& train, uint64_t seed,
                int epochs = 1);

  std::vector<int> Rerank(const data::Dataset& data,
                          const data::ImpressionList& list) const override;

  /// Batched inference: groups same-length lists and runs one forward per
  /// group through `ScoreBatchInto`; sorts each list by its scores. Output
  /// `i` is bit-identical to `Rerank(data, *lists[i])`. The whole call runs
  /// under the thread-local arena (nn/arena.h) in no-grad mode — on a warm
  /// thread with a reused `*out` it performs zero heap allocations.
  void RerankBatchInto(
      const data::Dataset& data,
      const std::vector<const data::ImpressionList*>& lists,
      std::vector<std::vector<int>>* out) const override;

  /// Per-item re-ranking scores in list order (inference mode). A
  /// batch-of-one wrapper over `ScoreBatch` — there is exactly one forward
  /// implementation (`BuildBatchLogits`); do not override this in models
  /// (pre-batching subclass overrides are deprecated, see DESIGN.md).
  std::vector<float> ScoreList(const data::Dataset& data,
                               const data::ImpressionList& list) const;

  /// Per-item scores for several lists at once (inference mode). Lists may
  /// have mixed lengths: same-length lists are grouped, each group is
  /// concatenated list-major into one `(B*L x F)` block and scored by a
  /// single `BuildBatchLogits` forward. Result `i` aligns with `lists[i]`
  /// and is bit-identical to `ScoreList(data, *lists[i])` — batching is a
  /// pure throughput optimization, never a numeric change.
  std::vector<std::vector<float>> ScoreBatch(
      const data::Dataset& data,
      const std::vector<const data::ImpressionList*>& lists) const;

  /// `ScoreBatch` into caller-owned storage. `*out` is resized to
  /// `lists.size()` and each inner vector to its list length *before* any
  /// arena scope opens (outputs must never live in the arena — see
  /// nn/arena.h lifetime rules). Each same-length group runs the family's
  /// graph-free `InferBatchLogits` over the thread's `nn::Workspace`, or,
  /// for families without one, `BuildBatchLogits` in no-grad mode inside a
  /// per-group arena scope. Either way a warm caller that reuses `*out`
  /// allocates nothing on the heap.
  void ScoreBatchInto(const data::Dataset& data,
                      const std::vector<const data::ImpressionList*>& lists,
                      std::vector<std::vector<float>>* out) const;

  /// Mean training loss of the last epoch.
  float final_loss() const { return final_loss_; }

  /// The shared training hyper-parameters. `serve::Snapshot` persists these
  /// in its header so a serving process can reconstruct the model family
  /// without the training code's configuration.
  const NeuralRerankConfig& train_config() const { return config_; }

  /// Persists the trained weights to `path` (binary). Requires a prior
  /// Fit (or LoadModel). Returns false on I/O failure.
  bool SaveModel(const std::string& path) const;

  /// Rebuilds the network for `data`'s dimensions and restores weights
  /// saved by `SaveModel`. The configuration must match the one used at
  /// save time (shape mismatches fail). Returns false on failure.
  bool LoadModel(const data::Dataset& data, const std::string& path);

  /// Stream variants, used by `serve::Snapshot` to embed the weight blob
  /// after its own configuration header.
  bool SaveModel(std::ostream& out) const;
  bool LoadModel(const data::Dataset& data, std::istream& in);

 protected:
  /// Builds the network parameters for `data`'s dimensions.
  virtual void InitNet(const data::Dataset& data, std::mt19937_64& rng) = 0;

  /// The single forward implementation: logits for a batch of lists that
  /// all share one length `L`, stacked list-major — row `b*L + i` is item
  /// `i` of `lists[b]`, giving a `(B*L x 1)` output column. Implementations
  /// must be bit-exact under concatenation: each list's logit block must
  /// equal the `B == 1` forward of that list alone (attend per list via
  /// the `segment` overloads in nn/layers.h; never mix rows across lists).
  /// `training` enables stochastic paths (exploration noise, dropout)
  /// using `rng`; the training loop always calls with `B == 1`.
  virtual nn::Variable BuildBatchLogits(
      const data::Dataset& data,
      const std::vector<const data::ImpressionList*>& lists, bool training,
      std::mt19937_64& rng) const = 0;

  /// The graph-free inference hook behind `ScoreBatchInto`. A family that
  /// implements it writes the `B*L` inference logits of a same-length
  /// group into `logits` (row `b*L + i` is item `i` of `lists[b]`) as a
  /// straight sequence of kernel calls over `ws`, and returns true. The
  /// result must be bitwise equal to
  /// `BuildBatchLogits(data, lists, /*training=*/false, rng).value()` on
  /// every backend: same kernels, same order, same per-element operands
  /// (see the `Infer` methods in nn/layers.h). The default returns false,
  /// and `ScoreBatchInto` then runs `BuildBatchLogits` under a
  /// `NoGradScope`. The family alone decides; there is no switch. Training
  /// never calls this.
  virtual bool InferBatchLogits(
      const data::Dataset& data,
      const std::vector<const data::ImpressionList*>& lists,
      nn::Workspace& ws, float* logits) const;

  /// Batch-of-one convenience over `BuildBatchLogits` (training loop,
  /// losses).
  nn::Variable BuildLogits(const data::Dataset& data,
                           const data::ImpressionList& list, bool training,
                           std::mt19937_64& rng) const;

  /// All trainable parameters.
  virtual std::vector<nn::Variable> Params() const = 0;

  /// Per-list training loss; default is pointwise BCE of `BuildLogits`
  /// against the list's clicks. Subclasses may override (e.g. pairwise).
  virtual nn::Variable ListLoss(const data::Dataset& data,
                                const data::ImpressionList& list,
                                std::mt19937_64& rng) const;

  NeuralRerankConfig config_;
  float final_loss_ = 0.0f;

 private:
  /// The shared mini-batch Adam loop behind `Fit` and `FineTune`.
  void TrainLoop(const data::Dataset& data,
                 const std::vector<data::ImpressionList>& train,
                 std::mt19937_64& rng, int epochs);
};

/// Builds the `(L x F)` per-item input matrix of a list:
/// `[x_u, x_v, tau_v, normalized initial score]`, `F = q_u + q_v + m + 1`.
nn::Matrix ListFeatureMatrix(const data::Dataset& data,
                             const data::ImpressionList& list);

/// Writes the rows of `ListFeatureMatrix` without allocating: row `i` goes
/// to `out + i * row_stride` (`row_stride >= F`). A stride of `B * F`
/// writes list `b` of a same-length batch time-major, from `out + b * F`.
void ListFeatureRowsInto(const data::Dataset& data,
                         const data::ImpressionList& list, float* out,
                         size_t row_stride);

/// Stacks `ListFeatureMatrix` of each list into one `(B*L x F)` block,
/// list-major (rows `[b*L, (b+1)*L)` hold list `b`). All lists must share
/// one length `L`. Rows are bitwise copies of the per-list matrices.
nn::Matrix BatchFeatureMatrix(
    const data::Dataset& data,
    const std::vector<const data::ImpressionList*>& lists);

/// Splits a list-major `(B*L x F)` feature block into `L` time-major
/// `(B x F)` constant steps: step `t`'s row `b` is block row `b*L + t`.
/// Feed these to `Lstm`/`BiLstm`/`GruCell`, whose per-row arithmetic makes
/// the batched recurrence bit-identical to `B` single-list runs; reorder
/// the time-major step outputs back to list-major with `nn::GatherRows`.
std::vector<nn::Variable> TimeMajorSteps(const nn::Matrix& feats, int batch,
                                         int length);

/// The input feature dimension of `ListFeatureMatrix` for `data`.
int ListFeatureDim(const data::Dataset& data);

}  // namespace rapid::rerank

#endif  // RAPID_RERANK_NEURAL_BASE_H_
