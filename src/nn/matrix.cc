#include "nn/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "nn/kernels.h"

namespace rapid::nn {

Matrix::Matrix(int rows, int cols)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, 0.0f) {
  assert(rows >= 0 && cols >= 0);
}

Matrix::Matrix(int rows, int cols, std::vector<float> values)
    : rows_(rows), cols_(cols), data_(std::move(values)) {
  assert(static_cast<size_t>(rows) * cols == data_.size());
}

void Matrix::Fill(float v) {
  for (float& x : data_) x = v;
}

Matrix Matrix::Constant(int rows, int cols, float v) {
  Matrix m(rows, cols);
  m.Fill(v);
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.at(i, i) = 1.0f;
  return m;
}

Matrix Matrix::Randn(int rows, int cols, float stddev, std::mt19937_64& rng) {
  Matrix m(rows, cols);
  std::normal_distribution<float> dist(0.0f, stddev);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = dist(rng);
  return m;
}

Matrix Matrix::Uniform(int rows, int cols, float lo, float hi,
                       std::mt19937_64& rng) {
  Matrix m(rows, cols);
  std::uniform_real_distribution<float> dist(lo, hi);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = dist(rng);
  return m;
}

Matrix Matrix::RowVector(const std::vector<float>& values) {
  return Matrix(1, static_cast<int>(values.size()), values);
}

Matrix Matrix::ColVector(const std::vector<float>& values) {
  return Matrix(static_cast<int>(values.size()), 1, values);
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

float Matrix::Sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return static_cast<float>(s);
}

float Matrix::Mean() const { return empty() ? 0.0f : Sum() / size(); }

float Matrix::MaxAbs() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

float Matrix::Norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

bool Matrix::Equals(const Matrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         data_ == other.data_;
}

bool Matrix::AllClose(const Matrix& other, float tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (int i = 0; i < size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Matrix::ToString() const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")[";
  const int max_show = 8;
  for (int i = 0; i < std::min(size(), max_show); ++i) {
    if (i) os << ", ";
    os << data_[i];
  }
  if (size() > max_show) os << ", ...";
  os << "]";
  return os.str();
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* out, GemmOpts opts) {
  const int m = opts.trans_a ? a.cols() : a.rows();
  const int k = opts.trans_a ? a.rows() : a.cols();
  const int n = opts.trans_b ? b.rows() : b.cols();
  assert(k == (opts.trans_b ? b.cols() : b.rows()));
  if (opts.accumulate) {
    assert(out->rows() == m && out->cols() == n);
  } else if (out->rows() != m || out->cols() != n) {
    *out = Matrix(m, n);
  } else {
    // Warm path: reuse the existing buffer. Zeroing first lets both forms
    // share one accumulation chain per element in the kernels.
    out->SetZero();
  }
  if (m == 0 || n == 0 || k == 0) return;
  const kernel::KernelTable& kt = kernel::Active();
  if (!opts.trans_a && !opts.trans_b) {
    kt.gemm_nn(a.data(), b.data(), out->data(), m, n, k);
  } else if (opts.trans_a && !opts.trans_b) {
    kt.gemm_tn(a.data(), b.data(), out->data(), m, n, k);
  } else if (!opts.trans_a && opts.trans_b) {
    kt.gemm_nt(a.data(), b.data(), out->data(), m, n, k);
  } else {
    // Doubly-transposed form: no hot caller, one backend-independent
    // reference loop. out += a^T * b^T; a is (k x m), b is (n x k).
    for (int i = 0; i < m; ++i) {
      float* orow = out->row(i);
      for (int j = 0; j < n; ++j) {
        const float* brow = b.row(j);
        double s = 0.0;
        for (int kk = 0; kk < k; ++kk) s += a.at(kk, i) * brow[kk];
        orow[j] += static_cast<float>(s);
      }
    }
  }
}

Matrix Add(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out = a;
  kernel::Active().add(out.data(), b.data(), out.data(), out.size());
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out = a;
  // a - b == a + (-1)*b exactly in IEEE, so axpy keeps this bit-exact.
  kernel::Active().axpy(out.data(), -1.0f, b.data(), out.size());
  return out;
}

Matrix Mul(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out = a;
  kernel::Active().mul(out.data(), b.data(), out.data(), out.size());
  return out;
}

void AddInPlace(Matrix* a, const Matrix& b) {
  assert(a->rows() == b.rows() && a->cols() == b.cols());
  kernel::Active().add(a->data(), b.data(), a->data(), a->size());
}

void AxpyInPlace(Matrix* a, float s, const Matrix& b) {
  assert(a->rows() == b.rows() && a->cols() == b.cols());
  kernel::Active().axpy(a->data(), s, b.data(), a->size());
}

void ScaleInPlace(Matrix* a, float s) {
  kernel::Active().scale(a->data(), s, a->size());
}

void AddRowBroadcastInPlace(Matrix* a, const Matrix& bias) {
  assert(bias.rows() == 1 && bias.cols() == a->cols());
  kernel::Active().bias_row(a->data(), bias.data(), a->rows(), a->cols());
}

void AddScalarInto(const float* x, float s, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] = x[i] + s;
}

void SoftplusInto(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    // Stable: softplus(v) = max(v, 0) + log1p(exp(-|v|)).
    y[i] = std::max(v, 0.0f) + std::log1p(std::exp(-std::fabs(v)));
  }
}

void MulColBroadcastInto(const float* x, const float* s, float* y, int rows,
                         int cols) {
  for (int r = 0; r < rows; ++r) {
    const float sv = s[r];
    const float* xr = x + static_cast<size_t>(r) * cols;
    float* yr = y + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) yr[c] = xr[c] * sv;
  }
}

void MulRowBroadcastInto(const float* x, const float* v, float* y, int rows,
                         int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<size_t>(r) * cols;
    float* yr = y + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) yr[c] = xr[c] * v[c];
  }
}

void SumColsInto(const float* x, float* y, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<size_t>(r) * cols;
    double s = 0.0;
    for (int c = 0; c < cols; ++c) s += xr[c];
    y[r] = static_cast<float>(s);
  }
}

}  // namespace rapid::nn
