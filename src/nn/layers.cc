#include "nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/kernels.h"

namespace rapid::nn {

namespace {

// Xavier/Glorot uniform initialization.
Matrix XavierUniform(int in_dim, int out_dim, std::mt19937_64& rng) {
  const float limit = std::sqrt(6.0f / (in_dim + out_dim));
  return Matrix::Uniform(in_dim, out_dim, -limit, limit, rng);
}

// `c (m x n) = a (m x k) * b (k x n)` exactly as `Gemm(a, b, &c)` computes
// it for `MatMul`: zero `c`, then one accumulating `gemm_nn`.
void GemmInto(const float* a, const float* b, float* c, int m, int n, int k) {
  std::fill_n(c, static_cast<size_t>(m) * n, 0.0f);
  if (m == 0 || n == 0 || k == 0) return;
  kernel::Active().gemm_nn(a, b, c, m, n, k);
}

// `Activate` in place over `n` values (the kernel maps may alias).
void ActivateInPlace(float* y, int n, Activation act) {
  const kernel::KernelTable& kt = kernel::Active();
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      kt.relu(y, y, n);
      return;
    case Activation::kTanh:
      kt.tanh_act(y, y, n);
      return;
    case Activation::kSigmoid:
      kt.sigmoid(y, y, n);
      return;
  }
}

}  // namespace

Variable Activate(const Variable& x, Activation act) {
  switch (act) {
    case Activation::kIdentity:
      return x;
    case Activation::kRelu:
      return Relu(x);
    case Activation::kTanh:
      return Tanh(x);
    case Activation::kSigmoid:
      return Sigmoid(x);
  }
  return x;
}

int Module::NumParams() const {
  int n = 0;
  for (const Variable& p : Params()) n += p.value().size();
  return n;
}

Linear::Linear(int in_dim, int out_dim, std::mt19937_64& rng, Activation act)
    : w_(Variable::Parameter(XavierUniform(in_dim, out_dim, rng))),
      b_(Variable::Parameter(Matrix(1, out_dim))),
      act_(act) {}

Variable Linear::Forward(const Variable& x) const {
  return Activate(AddRowBroadcast(MatMul(x, w_), b_), act_);
}

void Linear::Infer(const float* x, int rows, float* y) const {
  const Matrix& w = w_.value();
  GemmInto(x, w.data(), y, rows, w.cols(), w.rows());
  kernel::Active().bias_row(y, b_.value().data(), rows, w.cols());
  ActivateInPlace(y, rows * w.cols(), act_);
}

Mlp::Mlp(const std::vector<int>& dims, std::mt19937_64& rng,
         Activation hidden_act, Activation output_act) {
  assert(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    layers_.emplace_back(dims[i], dims[i + 1], rng,
                         last ? output_act : hidden_act);
  }
}

Variable Mlp::Forward(const Variable& x) const {
  Variable h = x;
  for (const Linear& l : layers_) h = l.Forward(h);
  return h;
}

void Mlp::Infer(const float* x, int rows, float* y, Workspace& ws) const {
  Workspace::Scope scope(ws);
  const float* in = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    float* out = i + 1 == layers_.size()
                     ? y
                     : ws.Take(static_cast<size_t>(rows) *
                               layers_[i].out_dim());
    layers_[i].Infer(in, rows, out);
    in = out;
  }
}

std::vector<Variable> Mlp::Params() const {
  std::vector<Variable> out;
  for (const Linear& l : layers_) {
    for (const Variable& p : l.Params()) out.push_back(p);
  }
  return out;
}

LstmCell::LstmCell(int in_dim, int hidden_dim, std::mt19937_64& rng)
    : hidden_dim_(hidden_dim),
      wx_(Variable::Parameter(XavierUniform(in_dim, 4 * hidden_dim, rng))),
      wh_(Variable::Parameter(XavierUniform(hidden_dim, 4 * hidden_dim, rng))),
      b_(Variable::Parameter(Matrix(1, 4 * hidden_dim))) {
  // Initialize the forget-gate bias to 1 (standard trick for gradient flow).
  for (int c = hidden_dim; c < 2 * hidden_dim; ++c) {
    b_.mutable_value().at(0, c) = 1.0f;
  }
}

std::pair<Variable, Variable> LstmCell::Forward(const Variable& x,
                                                const Variable& h,
                                                const Variable& c) const {
  const int hd = hidden_dim_;
  Variable gates =
      AddRowBroadcast(Add(MatMul(x, wx_), MatMul(h, wh_)), b_);
  Variable i = Sigmoid(SliceCols(gates, 0, hd));
  Variable f = Sigmoid(SliceCols(gates, hd, hd));
  Variable g = Tanh(SliceCols(gates, 2 * hd, hd));
  Variable o = Sigmoid(SliceCols(gates, 3 * hd, hd));
  Variable c_new = Add(Mul(f, c), Mul(i, g));
  Variable h_new = Mul(o, Tanh(c_new));
  return {h_new, c_new};
}

void LstmCell::InferInput(const float* x, int rows, float* xw) const {
  const Matrix& wx = wx_.value();
  GemmInto(x, wx.data(), xw, rows, wx.cols(), wx.rows());
}

void LstmCell::Infer(const float* xw, const float* h, const float* c,
                     int rows, float* h_out, float* c_out,
                     Workspace& ws) const {
  const kernel::KernelTable& kt = kernel::Active();
  const int hd = hidden_dim_;
  const int n4 = rows * 4 * hd;
  const int n = rows * hd;
  Workspace::Scope scope(ws);
  float* hw = ws.Take(n4);
  GemmInto(h, wh_.value().data(), hw, rows, 4 * hd, hd);
  float* gates = ws.Take(n4);
  kt.add(xw, hw, gates, n4);
  kt.bias_row(gates, b_.value().data(), rows, 4 * hd);
  // SliceCols into four (rows x hidden) blocks i | f | g | o.
  float* act = ws.Take(static_cast<size_t>(4) * n);
  for (int k = 0; k < 4; ++k) {
    for (int r = 0; r < rows; ++r) {
      const float* src = gates + static_cast<size_t>(r) * 4 * hd + k * hd;
      std::copy(src, src + hd, act + static_cast<size_t>(k) * n + r * hd);
    }
  }
  float* i = act;
  float* f = act + n;
  float* g = act + 2 * n;
  float* o = act + 3 * n;
  kt.sigmoid(i, i, n);
  kt.sigmoid(f, f, n);
  kt.tanh_act(g, g, n);
  kt.sigmoid(o, o, n);
  float* fc = ws.Take(n);
  kt.mul(f, c, fc, n);
  float* ig = ws.Take(n);
  kt.mul(i, g, ig, n);
  kt.add(fc, ig, c_out, n);
  float* tanh_c = ws.Take(n);
  kt.tanh_act(c_out, tanh_c, n);
  kt.mul(o, tanh_c, h_out, n);
}

GruCell::GruCell(int in_dim, int hidden_dim, std::mt19937_64& rng)
    : hidden_dim_(hidden_dim),
      wx_zr_(Variable::Parameter(XavierUniform(in_dim, 2 * hidden_dim, rng))),
      wh_zr_(
          Variable::Parameter(XavierUniform(hidden_dim, 2 * hidden_dim, rng))),
      b_zr_(Variable::Parameter(Matrix(1, 2 * hidden_dim))),
      wx_n_(Variable::Parameter(XavierUniform(in_dim, hidden_dim, rng))),
      wh_n_(Variable::Parameter(XavierUniform(hidden_dim, hidden_dim, rng))),
      b_n_(Variable::Parameter(Matrix(1, hidden_dim))) {}

Variable GruCell::Forward(const Variable& x, const Variable& h) const {
  const int hd = hidden_dim_;
  Variable zr =
      Sigmoid(AddRowBroadcast(Add(MatMul(x, wx_zr_), MatMul(h, wh_zr_)), b_zr_));
  Variable z = SliceCols(zr, 0, hd);
  Variable r = SliceCols(zr, hd, hd);
  Variable n = Tanh(AddRowBroadcast(
      Add(MatMul(x, wx_n_), Mul(r, MatMul(h, wh_n_))), b_n_));
  // h' = (1 - z) ⊙ n + z ⊙ h.
  Variable one_minus_z = AddScalar(Scale(z, -1.0f), 1.0f);
  return Add(Mul(one_minus_z, n), Mul(z, h));
}

Lstm::Lstm(int in_dim, int hidden_dim, std::mt19937_64& rng)
    : cell_(in_dim, hidden_dim, rng) {}

std::vector<Variable> Lstm::Forward(const std::vector<Variable>& inputs,
                                    const std::vector<Variable>& masks) const {
  assert(!inputs.empty());
  assert(masks.empty() || masks.size() == inputs.size());
  const int batch = inputs[0].rows();
  Variable h = Variable::Constant(Matrix(batch, cell_.hidden_dim()));
  Variable c = Variable::Constant(Matrix(batch, cell_.hidden_dim()));
  std::vector<Variable> states;
  states.reserve(inputs.size());
  for (size_t t = 0; t < inputs.size(); ++t) {
    auto [h_new, c_new] = cell_.Forward(inputs[t], h, c);
    if (!masks.empty()) {
      // Masked rows keep the previous state: s = m*s_new + (1-m)*s_old.
      const Variable& m = masks[t];
      Variable inv_m = AddScalar(Scale(m, -1.0f), 1.0f);
      h_new = Add(MulColBroadcast(h_new, m), MulColBroadcast(h, inv_m));
      c_new = Add(MulColBroadcast(c_new, m), MulColBroadcast(c, inv_m));
    }
    h = h_new;
    c = c_new;
    states.push_back(h);
  }
  return states;
}

void Lstm::Infer(const float* x, const float* masks, int steps, int batch,
                 bool reverse, float* states, Workspace& ws) const {
  const kernel::KernelTable& kt = kernel::Active();
  const int hd = cell_.hidden_dim();
  const size_t n = static_cast<size_t>(batch) * hd;
  const size_t n4 = 4 * n;
  Workspace::Scope scope(ws);
  float* xw = ws.Take(steps * n4);
  cell_.InferInput(x, steps * batch, xw);
  float* zero = ws.Take(n);  // the zero initial h and c
  std::fill_n(zero, n, 0.0f);
  float* c_bufs[2] = {ws.Take(n), ws.Take(n)};
  const float* h = zero;
  const float* c = zero;
  for (int k = 0; k < steps; ++k) {
    const int t = reverse ? steps - 1 - k : k;
    float* h_new = states + t * n;
    float* c_new = c_bufs[k % 2];
    Workspace::Scope step_scope(ws);
    cell_.Infer(xw + t * n4, h, c, batch, h_new, c_new, ws);
    if (masks != nullptr) {
      // Masked rows keep the previous state: s = m*s_new + (1-m)*s_old.
      const float* m = masks + static_cast<size_t>(t) * batch;
      float* inv_m = ws.Take(batch);
      std::copy(m, m + batch, inv_m);
      kt.scale(inv_m, -1.0f, batch);
      AddScalarInto(inv_m, 1.0f, inv_m, batch);
      float* kept = ws.Take(n);
      float* carried = ws.Take(n);
      MulColBroadcastInto(h_new, m, kept, batch, hd);
      MulColBroadcastInto(h, inv_m, carried, batch, hd);
      kt.add(kept, carried, h_new, n);
      MulColBroadcastInto(c_new, m, kept, batch, hd);
      MulColBroadcastInto(c, inv_m, carried, batch, hd);
      kt.add(kept, carried, c_new, n);
    }
    h = h_new;
    c = c_new;
  }
}

Variable Lstm::ForwardLast(const std::vector<Variable>& inputs,
                           const std::vector<Variable>& masks) const {
  return Forward(inputs, masks).back();
}

BiLstm::BiLstm(int in_dim, int hidden_dim, std::mt19937_64& rng)
    : fwd_(in_dim, hidden_dim, rng), bwd_(in_dim, hidden_dim, rng) {}

std::vector<Variable> BiLstm::Forward(
    const std::vector<Variable>& inputs) const {
  std::vector<Variable> fwd_states = fwd_.Forward(inputs);
  std::vector<Variable> reversed(inputs.rbegin(), inputs.rend());
  std::vector<Variable> bwd_states = bwd_.Forward(reversed);
  std::vector<Variable> out;
  out.reserve(inputs.size());
  for (size_t t = 0; t < inputs.size(); ++t) {
    out.push_back(ConcatCols(
        {fwd_states[t], bwd_states[inputs.size() - 1 - t]}));
  }
  return out;
}

void BiLstm::Infer(const float* x, int steps, int batch, float* out,
                   Workspace& ws) const {
  const int hd = hidden_dim();
  const int rows = steps * batch;
  Workspace::Scope scope(ws);
  float* fwd = ws.Take(static_cast<size_t>(rows) * hd);
  float* bwd = ws.Take(static_cast<size_t>(rows) * hd);
  fwd_.Infer(x, nullptr, steps, batch, /*reverse=*/false, fwd, ws);
  bwd_.Infer(x, nullptr, steps, batch, /*reverse=*/true, bwd, ws);
  for (int r = 0; r < rows; ++r) {
    float* dst = out + static_cast<size_t>(r) * 2 * hd;
    std::copy(fwd + static_cast<size_t>(r) * hd,
              fwd + static_cast<size_t>(r + 1) * hd, dst);
    std::copy(bwd + static_cast<size_t>(r) * hd,
              bwd + static_cast<size_t>(r + 1) * hd, dst + hd);
  }
}

std::vector<Variable> BiLstm::Params() const {
  std::vector<Variable> out = fwd_.Params();
  for (const Variable& p : bwd_.Params()) out.push_back(p);
  return out;
}

Variable UnprojectedSelfAttention(const Variable& v, int segment) {
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(v.cols()));
  const int seg = segment > 0 ? segment : v.rows();
  assert(seg > 0 && v.rows() % seg == 0);
  if (seg == v.rows()) {
    Variable scores = Scale(MatMul(v, Transpose(v)), inv_sqrt_d);
    return MatMul(SoftmaxRows(scores), v);
  }
  std::vector<Variable> blocks;
  blocks.reserve(v.rows() / seg);
  for (int start = 0; start < v.rows(); start += seg) {
    Variable vb = SliceRows(v, start, seg);
    Variable scores = Scale(MatMul(vb, Transpose(vb)), inv_sqrt_d);
    blocks.push_back(MatMul(SoftmaxRows(scores), vb));
  }
  return ConcatRows(blocks);
}

void UnprojectedSelfAttentionInfer(const float* v, int rows, int cols,
                                   float* out, Workspace& ws) {
  const kernel::KernelTable& kt = kernel::Active();
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(cols));
  Workspace::Scope scope(ws);
  float* vt = ws.Take(static_cast<size_t>(cols) * rows);  // Transpose(v)
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      vt[static_cast<size_t>(c) * rows + r] =
          v[static_cast<size_t>(r) * cols + c];
    }
  }
  float* scores = ws.Take(static_cast<size_t>(rows) * rows);
  GemmInto(v, vt, scores, rows, rows, cols);
  kt.scale(scores, inv_sqrt_d, rows * rows);
  kt.softmax_rows(scores, rows, rows);
  GemmInto(scores, v, out, rows, cols, rows);
}

MultiHeadAttention::MultiHeadAttention(int dim, int num_heads,
                                       std::mt19937_64& rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng) {
  assert(dim % num_heads == 0);
}

Variable MultiHeadAttention::Forward(const Variable& x, int segment) const {
  assert(x.cols() == dim_);
  const int seg = segment > 0 ? segment : x.rows();
  assert(seg > 0 && x.rows() % seg == 0);
  Variable q = wq_.Forward(x);
  Variable k = wk_.Forward(x);
  Variable v = wv_.Forward(x);
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Variable> heads;
  heads.reserve(num_heads_);
  for (int hidx = 0; hidx < num_heads_; ++hidx) {
    Variable qh = SliceCols(q, hidx * head_dim_, head_dim_);
    Variable kh = SliceCols(k, hidx * head_dim_, head_dim_);
    Variable vh = SliceCols(v, hidx * head_dim_, head_dim_);
    if (seg == x.rows()) {
      Variable attn =
          SoftmaxRows(Scale(MatMul(qh, Transpose(kh)), inv_sqrt_d));
      heads.push_back(MatMul(attn, vh));
      continue;
    }
    std::vector<Variable> blocks;
    blocks.reserve(x.rows() / seg);
    for (int start = 0; start < x.rows(); start += seg) {
      Variable qb = SliceRows(qh, start, seg);
      Variable kb = SliceRows(kh, start, seg);
      Variable vb = SliceRows(vh, start, seg);
      Variable attn =
          SoftmaxRows(Scale(MatMul(qb, Transpose(kb)), inv_sqrt_d));
      blocks.push_back(MatMul(attn, vb));
    }
    heads.push_back(ConcatRows(blocks));
  }
  return wo_.Forward(ConcatCols(heads));
}

std::vector<Variable> MultiHeadAttention::Params() const {
  std::vector<Variable> out;
  for (const Linear* l : {&wq_, &wk_, &wv_, &wo_}) {
    for (const Variable& p : l->Params()) out.push_back(p);
  }
  return out;
}

TransformerEncoderLayer::TransformerEncoderLayer(int dim, int num_heads,
                                                 int ffn_dim,
                                                 std::mt19937_64& rng)
    : mha_(dim, num_heads, rng),
      ffn1_(dim, ffn_dim, rng, Activation::kRelu),
      ffn2_(ffn_dim, dim, rng),
      ln1_gamma_(Variable::Parameter(Matrix::Constant(1, dim, 1.0f))),
      ln1_beta_(Variable::Parameter(Matrix(1, dim))),
      ln2_gamma_(Variable::Parameter(Matrix::Constant(1, dim, 1.0f))),
      ln2_beta_(Variable::Parameter(Matrix(1, dim))) {}

Variable TransformerEncoderLayer::Forward(const Variable& x,
                                          int segment) const {
  Variable h =
      Add(x, mha_.Forward(LayerNorm(x, ln1_gamma_, ln1_beta_), segment));
  Variable h2 =
      Add(h, ffn2_.Forward(ffn1_.Forward(LayerNorm(h, ln2_gamma_, ln2_beta_))));
  return h2;
}

std::vector<Variable> TransformerEncoderLayer::Params() const {
  std::vector<Variable> out = mha_.Params();
  for (const Variable& p : ffn1_.Params()) out.push_back(p);
  for (const Variable& p : ffn2_.Params()) out.push_back(p);
  out.push_back(ln1_gamma_);
  out.push_back(ln1_beta_);
  out.push_back(ln2_gamma_);
  out.push_back(ln2_beta_);
  return out;
}

Matrix SinusoidalPositionalEncoding(int length, int dim) {
  Matrix pe(length, dim);
  for (int pos = 0; pos < length; ++pos) {
    for (int i = 0; i < dim; ++i) {
      const double angle =
          pos / std::pow(10000.0, 2.0 * (i / 2) / static_cast<double>(dim));
      pe.at(pos, i) = static_cast<float>(i % 2 == 0 ? std::sin(angle)
                                                    : std::cos(angle));
    }
  }
  return pe;
}

}  // namespace rapid::nn
