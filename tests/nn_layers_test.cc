#include "nn/layers.h"

#include <gtest/gtest.h>

#include <random>

#include "nn/gradcheck.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "test_paths.h"

namespace rapid::nn {
namespace {

TEST(LinearTest, ShapesAndForward) {
  std::mt19937_64 rng(1);
  Linear l(3, 2, rng);
  Variable x = Variable::Constant(Matrix::Randn(5, 3, 1.0f, rng));
  Variable y = l.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
  EXPECT_EQ(l.NumParams(), 3 * 2 + 2);
}

TEST(LinearTest, GradCheck) {
  std::mt19937_64 rng(2);
  Linear l(4, 3, rng, Activation::kTanh);
  Variable x = Variable::Constant(Matrix::Randn(2, 4, 1.0f, rng));
  GradCheckResult r = CheckGradients(
      [&] { return SumAll(Square(l.Forward(x))); }, l.Params());
  EXPECT_TRUE(r.ok()) << r.max_rel_error;
}

TEST(MlpTest, DepthAndParamCount) {
  std::mt19937_64 rng(3);
  Mlp mlp({8, 16, 4, 1}, rng);
  EXPECT_EQ(mlp.NumParams(), (8 * 16 + 16) + (16 * 4 + 4) + (4 * 1 + 1));
  Variable x = Variable::Constant(Matrix::Randn(3, 8, 1.0f, rng));
  Variable y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 1);
}

TEST(MlpTest, GradCheck) {
  std::mt19937_64 rng(4);
  Mlp mlp({3, 6, 2}, rng, Activation::kTanh, Activation::kIdentity);
  Variable x = Variable::Constant(Matrix::Randn(2, 3, 1.0f, rng));
  GradCheckResult r = CheckGradients(
      [&] { return MeanAll(Square(mlp.Forward(x))); }, mlp.Params());
  EXPECT_TRUE(r.ok()) << r.max_rel_error;
}

TEST(MlpTest, CanFitXor) {
  std::mt19937_64 rng(5);
  Mlp mlp({2, 8, 1}, rng, Activation::kTanh);
  Matrix xs(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  Matrix ys(4, 1, {0, 1, 1, 0});
  Matrix w = Matrix::Constant(4, 1, 1.0f);
  Adam opt(mlp.Params(), 0.05f);
  float final_loss = 1.0f;
  for (int step = 0; step < 400; ++step) {
    opt.ZeroGrad();
    Variable logits = mlp.Forward(Variable::Constant(xs));
    Variable loss = BceWithLogits(logits, ys, w);
    loss.Backward();
    opt.Step();
    final_loss = loss.value().at(0, 0);
  }
  EXPECT_LT(final_loss, 0.05f);
}

TEST(LstmCellTest, StateShapes) {
  std::mt19937_64 rng(6);
  LstmCell cell(5, 7, rng);
  Variable x = Variable::Constant(Matrix::Randn(3, 5, 1.0f, rng));
  Variable h = Variable::Constant(Matrix(3, 7));
  Variable c = Variable::Constant(Matrix(3, 7));
  auto [h2, c2] = cell.Forward(x, h, c);
  EXPECT_EQ(h2.rows(), 3);
  EXPECT_EQ(h2.cols(), 7);
  EXPECT_EQ(c2.cols(), 7);
  // Hidden state bounded by tanh output times sigmoid gate.
  EXPECT_LE(h2.value().MaxAbs(), 1.0f);
}

TEST(LstmCellTest, ForgetBiasInitializedToOne) {
  std::mt19937_64 rng(6);
  LstmCell cell(2, 3, rng);
  const Variable b = cell.Params()[2];  // a copy: Params() is a temporary
  for (int c = 3; c < 6; ++c) EXPECT_FLOAT_EQ(b.value().at(0, c), 1.0f);
  EXPECT_FLOAT_EQ(b.value().at(0, 0), 0.0f);
}

TEST(LstmTest, SequenceGradCheck) {
  std::mt19937_64 rng(7);
  Lstm lstm(3, 4, rng);
  std::vector<Variable> inputs;
  for (int t = 0; t < 3; ++t) {
    inputs.push_back(Variable::Constant(Matrix::Randn(2, 3, 1.0f, rng)));
  }
  GradCheckResult r = CheckGradients(
      [&] { return SumAll(Square(lstm.ForwardLast(inputs))); },
      lstm.Params());
  EXPECT_TRUE(r.ok()) << r.max_rel_error;
}

TEST(LstmTest, MaskedStepKeepsState) {
  std::mt19937_64 rng(8);
  Lstm lstm(2, 3, rng);
  Variable x1 = Variable::Constant(Matrix::Randn(1, 2, 1.0f, rng));
  Variable x2 = Variable::Constant(Matrix::Randn(1, 2, 1.0f, rng));
  Variable on = Variable::Constant(Matrix::Constant(1, 1, 1.0f));
  Variable off = Variable::Constant(Matrix(1, 1));
  // With the second step masked out the state must equal the 1-step state.
  auto states = lstm.Forward({x1, x2}, {on, off});
  auto one_step = lstm.Forward({x1}, {on});
  EXPECT_TRUE(
      states.back().value().AllClose(one_step.back().value(), 1e-6f));
}

TEST(LstmTest, MaskedGradCheck) {
  std::mt19937_64 rng(17);
  Lstm lstm(2, 3, rng);
  std::vector<Variable> inputs, masks;
  for (int t = 0; t < 3; ++t) {
    inputs.push_back(Variable::Constant(Matrix::Randn(2, 2, 1.0f, rng)));
    Matrix m(2, 1);
    m.at(0, 0) = 1.0f;
    m.at(1, 0) = (t < 2) ? 1.0f : 0.0f;
    masks.push_back(Variable::Constant(m));
  }
  GradCheckResult r = CheckGradients(
      [&] { return SumAll(Square(lstm.ForwardLast(inputs, masks))); },
      lstm.Params());
  EXPECT_TRUE(r.ok()) << r.max_rel_error;
}

TEST(BiLstmTest, OutputConcatenatesBothDirections) {
  std::mt19937_64 rng(9);
  BiLstm bi(3, 4, rng);
  std::vector<Variable> inputs;
  for (int t = 0; t < 5; ++t) {
    inputs.push_back(Variable::Constant(Matrix::Randn(2, 3, 1.0f, rng)));
  }
  auto out = bi.Forward(inputs);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].cols(), 8);
  EXPECT_EQ(out[0].rows(), 2);
}

TEST(BiLstmTest, GradCheck) {
  std::mt19937_64 rng(10);
  BiLstm bi(2, 3, rng);
  std::vector<Variable> inputs;
  for (int t = 0; t < 3; ++t) {
    inputs.push_back(Variable::Constant(Matrix::Randn(1, 2, 1.0f, rng)));
  }
  GradCheckResult r = CheckGradients(
      [&] {
        auto states = bi.Forward(inputs);
        return SumAll(Square(ConcatRows(states)));
      },
      bi.Params());
  EXPECT_TRUE(r.ok()) << r.max_rel_error;
}

TEST(GruCellTest, GradCheckAndShapes) {
  std::mt19937_64 rng(11);
  GruCell cell(3, 4, rng);
  Variable x = Variable::Constant(Matrix::Randn(2, 3, 1.0f, rng));
  Variable h0 = Variable::Constant(Matrix(2, 4));
  Variable h1 = cell.Forward(x, h0);
  EXPECT_EQ(h1.cols(), 4);
  GradCheckResult r = CheckGradients(
      [&] { return SumAll(Square(cell.Forward(x, h0))); }, cell.Params());
  EXPECT_TRUE(r.ok()) << r.max_rel_error;
}

TEST(SelfAttentionTest, UnprojectedRowsAreConvexCombinations) {
  std::mt19937_64 rng(12);
  Variable v = Variable::Constant(Matrix::Constant(4, 3, 2.0f));
  // All rows identical -> attention output equals the input rows.
  Matrix out = UnprojectedSelfAttention(v).value();
  EXPECT_TRUE(out.AllClose(v.value(), 1e-5f));
}

TEST(SelfAttentionTest, UnprojectedGradCheck) {
  std::mt19937_64 rng(13);
  Variable v = Variable::Parameter(Matrix::Randn(3, 4, 0.7f, rng));
  GradCheckResult r = CheckGradients(
      [&] { return SumAll(Square(UnprojectedSelfAttention(v))); }, {v});
  EXPECT_TRUE(r.ok()) << r.max_rel_error;
}

TEST(MultiHeadAttentionTest, ShapeAndGradCheck) {
  std::mt19937_64 rng(14);
  MultiHeadAttention mha(8, 2, rng);
  Variable x = Variable::Constant(Matrix::Randn(5, 8, 0.7f, rng));
  Variable y = mha.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);
  GradCheckResult r = CheckGradients(
      [&] { return MeanAll(Square(mha.Forward(x))); }, mha.Params());
  EXPECT_TRUE(r.ok()) << r.max_rel_error;
}

TEST(TransformerTest, EncoderLayerGradCheck) {
  std::mt19937_64 rng(15);
  TransformerEncoderLayer enc(8, 2, 16, rng);
  Variable x = Variable::Constant(Matrix::Randn(4, 8, 0.7f, rng));
  Variable y = enc.Forward(x);
  EXPECT_EQ(y.rows(), 4);
  EXPECT_EQ(y.cols(), 8);
  GradCheckResult r = CheckGradients(
      [&] { return MeanAll(Square(enc.Forward(x))); }, enc.Params());
  EXPECT_TRUE(r.ok()) << r.max_rel_error;
}

TEST(PositionalEncodingTest, ValuesBoundedAndDistinct) {
  Matrix pe = SinusoidalPositionalEncoding(10, 8);
  EXPECT_EQ(pe.rows(), 10);
  EXPECT_EQ(pe.cols(), 8);
  EXPECT_LE(pe.MaxAbs(), 1.0f);
  // Different positions produce different encodings.
  bool differ = false;
  for (int c = 0; c < 8; ++c) {
    if (pe.at(0, c) != pe.at(5, c)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  Variable p = Variable::Parameter(Matrix(1, 1, {5.0f}));
  Sgd opt({p}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    Variable loss = MeanAll(Square(p));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(p.value().at(0, 0), 0.0f, 1e-3f);
}

TEST(OptimizerTest, AdamConvergesOnLinearRegression) {
  std::mt19937_64 rng(16);
  Matrix x = Matrix::Randn(32, 3, 1.0f, rng);
  Matrix true_w(3, 1, {1.0f, -2.0f, 0.5f});
  Matrix y;
  Gemm(x, true_w, &y);
  Variable w = Variable::Parameter(Matrix(3, 1));
  Adam opt({w}, 0.05f);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    Variable pred = MatMul(Variable::Constant(x), w);
    Variable loss = MseLoss(pred, y);
    loss.Backward();
    opt.Step();
  }
  EXPECT_TRUE(w.value().AllClose(true_w, 0.02f));
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Variable p = Variable::Parameter(Matrix(1, 2, {0, 0}));
  p.mutable_grad().at(0, 0) = 3.0f;
  p.mutable_grad().at(0, 1) = 4.0f;  // norm 5
  const float pre = ClipGradNorm({p}, 1.0f);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(p.grad().at(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(p.grad().at(0, 1), 0.8f, 1e-5f);
}

TEST(OptimizerTest, ClipGradNormLeavesSmallGradients) {
  Variable p = Variable::Parameter(Matrix(1, 1, {0.0f}));
  p.mutable_grad().at(0, 0) = 0.5f;
  ClipGradNorm({p}, 1.0f);
  EXPECT_FLOAT_EQ(p.grad().at(0, 0), 0.5f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  std::mt19937_64 rng(20);
  Mlp a({4, 8, 2}, rng);
  Mlp b({4, 8, 2}, rng);  // Different random init.
  const std::string path = test::UniqueTempPath("params.bin");
  ASSERT_TRUE(SaveParams(path, a.Params()));
  std::vector<Variable> bp = b.Params();
  ASSERT_TRUE(LoadParams(path, &bp));
  auto ap = a.Params();
  for (size_t i = 0; i < ap.size(); ++i) {
    EXPECT_TRUE(ap[i].value().Equals(bp[i].value()));
  }
}

TEST(SerializeTest, ShapeMismatchFails) {
  std::mt19937_64 rng(21);
  Mlp a({4, 8, 2}, rng);
  Mlp b({4, 9, 2}, rng);
  const std::string path = test::UniqueTempPath("params2.bin");
  ASSERT_TRUE(SaveParams(path, a.Params()));
  std::vector<Variable> bp = b.Params();
  EXPECT_FALSE(LoadParams(path, &bp));
}

TEST(SerializeTest, MissingFileFails) {
  std::vector<Variable> p;
  EXPECT_FALSE(LoadParams("/nonexistent/zzz.bin", &p));
}

}  // namespace
}  // namespace rapid::nn
