#ifndef RAPID_NN_LAYERS_H_
#define RAPID_NN_LAYERS_H_

#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "nn/ops.h"
#include "nn/variable.h"
#include "nn/workspace.h"

namespace rapid::nn {

/// Elementwise nonlinearity selector for `Linear` / `Mlp`.
enum class Activation { kIdentity, kRelu, kTanh, kSigmoid };

/// Applies the selected activation to `x`.
Variable Activate(const Variable& x, Activation act);

// Graph-free inference. Beside `Forward`, the layers below carry an
// `Infer` method that computes the same values over raw row-major buffers
// from an `nn::Workspace`: no `Variable`, no `Node`, no per-op
// allocation. Each `Infer` calls the same `KernelTable` entries, in the
// same order, on the same per-element operands as its `Forward` (a zeroed
// `gemm_nn` per `MatMul`, `Add` as a separate `add`, `Transpose` as a copy
// followed by `gemm_nn`), and the kernel contract (nn/kernels.h) makes a
// per-row or per-slice call bitwise equal to a whole-matrix one. So
// `Infer` is bitwise equal to `Forward(...).value()` on either backend.
// Weights are read through `const Matrix&`; `Params()` is never called.

/// Base class for trainable components: anything that owns parameters.
class Module {
 public:
  virtual ~Module() = default;
  /// All trainable parameters of this module (recursively).
  virtual std::vector<Variable> Params() const = 0;
  /// Total scalar parameter count.
  int NumParams() const;
};

/// Fully connected layer `y = act(x W + b)` with `x: (batch x in)`.
class Linear : public Module {
 public:
  /// Xavier-uniform initialization of `W: (in x out)`, zero bias.
  Linear(int in_dim, int out_dim, std::mt19937_64& rng,
         Activation act = Activation::kIdentity);

  Variable Forward(const Variable& x) const;
  /// `y (rows x out) = act(x W + b)` for `x (rows x in)`. `y` must not
  /// alias `x`.
  void Infer(const float* x, int rows, float* y) const;
  std::vector<Variable> Params() const override { return {w_, b_}; }

  int in_dim() const { return w_.rows(); }
  int out_dim() const { return w_.cols(); }
  const Variable& weight() const { return w_; }
  const Variable& bias() const { return b_; }

 private:
  Variable w_;
  Variable b_;
  Activation act_;
};

/// Multi-layer perceptron. `dims = {in, h1, ..., out}`; hidden layers use
/// `hidden_act`, the final layer uses `output_act`.
class Mlp : public Module {
 public:
  Mlp(const std::vector<int>& dims, std::mt19937_64& rng,
      Activation hidden_act = Activation::kRelu,
      Activation output_act = Activation::kIdentity);

  Variable Forward(const Variable& x) const;
  /// `Forward` over `x (rows x in)` into `y (rows x out)`; hidden layers
  /// take their buffers from `ws`.
  void Infer(const float* x, int rows, float* y, Workspace& ws) const;
  std::vector<Variable> Params() const override;

 private:
  std::vector<Linear> layers_;
};

/// A single LSTM cell (Hochreiter & Schmidhuber, 1997) with fused gate
/// weights in i, f, g, o order.
class LstmCell : public Module {
 public:
  LstmCell(int in_dim, int hidden_dim, std::mt19937_64& rng);

  /// One step. `x: (batch x in)`, `h`/`c`: `(batch x hidden)`.
  /// Returns the new `(h, c)`.
  std::pair<Variable, Variable> Forward(const Variable& x, const Variable& h,
                                        const Variable& c) const;

  /// The input half of the gate pre-activation, `xw = x Wx`, for `rows`
  /// rows of `x (rows x in)` into `xw (rows x 4h)`. Row-independent, so one
  /// call can project every step of a sequence at once.
  void InferInput(const float* x, int rows, float* xw) const;
  /// One `Forward` step given `xw` from `InferInput`: reads `h`, `c`
  /// `(rows x hidden)`, writes `h_out`, `c_out` (which must alias neither).
  void Infer(const float* xw, const float* h, const float* c, int rows,
             float* h_out, float* c_out, Workspace& ws) const;

  std::vector<Variable> Params() const override { return {wx_, wh_, b_}; }
  int hidden_dim() const { return hidden_dim_; }
  int in_dim() const { return wx_.rows(); }

 private:
  int hidden_dim_;
  Variable wx_;  // (in x 4h)
  Variable wh_;  // (h x 4h)
  Variable b_;   // (1 x 4h)
};

/// A single GRU cell (used by the DLCM baseline) with fused z, r gates and a
/// separate candidate path.
class GruCell : public Module {
 public:
  GruCell(int in_dim, int hidden_dim, std::mt19937_64& rng);

  /// One step. Returns the new hidden state.
  Variable Forward(const Variable& x, const Variable& h) const;

  std::vector<Variable> Params() const override {
    return {wx_zr_, wh_zr_, b_zr_, wx_n_, wh_n_, b_n_};
  }
  int hidden_dim() const { return hidden_dim_; }

 private:
  int hidden_dim_;
  Variable wx_zr_, wh_zr_, b_zr_;  // fused z,r gates
  Variable wx_n_, wh_n_, b_n_;     // candidate
};

/// Unidirectional LSTM over a timestep-major sequence of `(batch x in)`
/// inputs. Supports optional per-step `(batch x 1)` masks: masked-out rows
/// carry their previous state through the step (left/right padding safe).
class Lstm : public Module {
 public:
  Lstm(int in_dim, int hidden_dim, std::mt19937_64& rng);

  /// Runs the sequence; returns one `(batch x hidden)` state per step.
  /// `masks` is empty (no masking) or one `(batch x 1)` 0/1 matrix per step.
  std::vector<Variable> Forward(const std::vector<Variable>& inputs,
                                const std::vector<Variable>& masks = {}) const;

  /// Runs the sequence and returns only the final state.
  Variable ForwardLast(const std::vector<Variable>& inputs,
                       const std::vector<Variable>& masks = {}) const;

  /// `Forward` over `steps` time-major steps of `batch` rows: step `t` is
  /// rows `[t*batch, (t+1)*batch)` of `x (steps*batch x in)`, and `masks`
  /// is null or `steps*batch` 0/1 values in the same layout. Writes each
  /// step's state into the same rows of `states (steps*batch x hidden)`.
  /// With `reverse`, the steps run from last to first (the `Forward` of the
  /// reversed sequence) and each state lands on the rows of the input that
  /// produced it.
  void Infer(const float* x, const float* masks, int steps, int batch,
             bool reverse, float* states, Workspace& ws) const;

  std::vector<Variable> Params() const override { return cell_.Params(); }
  int hidden_dim() const { return cell_.hidden_dim(); }

 private:
  LstmCell cell_;
};

/// Bidirectional LSTM: concatenates forward and backward per-step states
/// into `(batch x 2*hidden)` outputs.
class BiLstm : public Module {
 public:
  BiLstm(int in_dim, int hidden_dim, std::mt19937_64& rng);

  std::vector<Variable> Forward(const std::vector<Variable>& inputs) const;

  /// `Forward` over time-major `x (steps*batch x in)` (layout as in
  /// `Lstm::Infer`) into time-major `out (steps*batch x 2*hidden)`.
  void Infer(const float* x, int steps, int batch, float* out,
             Workspace& ws) const;

  std::vector<Variable> Params() const override;
  int hidden_dim() const { return fwd_.hidden_dim(); }

 private:
  Lstm fwd_;
  Lstm bwd_;
};

/// Parameter-free scaled dot-product self-attention over the rows of `v`:
/// `softmax(v v^T / sqrt(d)) v`. This is Eq.(2) of the RAPID paper.
///
/// `segment > 0` treats the rows as independent contiguous blocks of
/// `segment` rows (a batch of same-length lists stacked list-major):
/// attention never crosses a block boundary, and each block's output is
/// bit-identical to calling the function on that block alone. `segment ==
/// 0` (default) attends over all rows — the single-list case.
Variable UnprojectedSelfAttention(const Variable& v, int segment = 0);

/// `UnprojectedSelfAttention` of one block `v (rows x cols)` (segment 0)
/// into `out (rows x cols)`, graph-free.
void UnprojectedSelfAttentionInfer(const float* v, int rows, int cols,
                                   float* out, Workspace& ws);

/// Multi-head self-attention with learned Q/K/V/O projections over the rows
/// of an `(L x d)` input — or, with `segment > 0`, a `(B*L x d)` stack of
/// `B` independent length-`segment` blocks (see `UnprojectedSelfAttention`
/// for the blocking contract). Projections run on the full matrix; the
/// attention itself is computed per block.
class MultiHeadAttention : public Module {
 public:
  /// `dim` must be divisible by `num_heads`.
  MultiHeadAttention(int dim, int num_heads, std::mt19937_64& rng);

  Variable Forward(const Variable& x, int segment = 0) const;
  std::vector<Variable> Params() const override;

 private:
  int dim_;
  int num_heads_;
  int head_dim_;
  Linear wq_, wk_, wv_, wo_;
};

/// Pre-LN transformer encoder block: MHA + position-wise FFN with residual
/// connections and layer normalization (used by PRM / SetRank / RAPID-trans).
/// `segment` batches independent blocks through one forward, exactly as in
/// `MultiHeadAttention::Forward` (LayerNorm and the FFN are row-wise and
/// need no blocking).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int dim, int num_heads, int ffn_dim,
                          std::mt19937_64& rng);

  Variable Forward(const Variable& x, int segment = 0) const;
  std::vector<Variable> Params() const override;

 private:
  MultiHeadAttention mha_;
  Linear ffn1_, ffn2_;
  Variable ln1_gamma_, ln1_beta_, ln2_gamma_, ln2_beta_;
};

/// Returns the sinusoidal positional-encoding matrix `(length x dim)`
/// (Vaswani et al., 2017).
Matrix SinusoidalPositionalEncoding(int length, int dim);

}  // namespace rapid::nn

#endif  // RAPID_NN_LAYERS_H_
