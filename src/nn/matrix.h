#ifndef RAPID_NN_MATRIX_H_
#define RAPID_NN_MATRIX_H_

#include <cstddef>
#include <random>
#include <string>
#include <vector>

namespace rapid::nn {

/// A dense row-major 2-D matrix of single-precision floats.
///
/// `Matrix` is the storage type underneath the autograd layer. All neural
/// computations in this library are expressed over 2-D matrices; batched
/// sequence models iterate over timesteps with `(batch x feature)` slices so
/// that the hot loops stay inside the matmul kernels below.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a `rows x cols` matrix initialized to zero.
  Matrix(int rows, int cols);

  /// Creates a `rows x cols` matrix from a flat row-major buffer.
  /// `values.size()` must equal `rows * cols`.
  Matrix(int rows, int cols, std::vector<float> values);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// Number of rows.
  int rows() const { return rows_; }
  /// Number of columns.
  int cols() const { return cols_; }
  /// Total number of elements.
  int size() const { return rows_ * cols_; }
  /// True if the matrix holds no elements.
  bool empty() const { return size() == 0; }

  /// Mutable element access (no bounds checks in release builds).
  float& at(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  /// Const element access.
  float at(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Raw row-major buffer.
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Pointer to the start of row `r`.
  float* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  /// Sets every element to `v`.
  void Fill(float v);
  /// Sets every element to zero.
  void SetZero() { Fill(0.0f); }

  /// Returns a `rows x cols` matrix of zeros.
  static Matrix Zeros(int rows, int cols) { return Matrix(rows, cols); }
  /// Returns a `rows x cols` matrix with every element `v`.
  static Matrix Constant(int rows, int cols, float v);
  /// Returns the `n x n` identity.
  static Matrix Identity(int n);
  /// Returns a matrix with i.i.d. N(0, stddev^2) entries.
  static Matrix Randn(int rows, int cols, float stddev, std::mt19937_64& rng);
  /// Returns a matrix with i.i.d. Uniform(lo, hi) entries.
  static Matrix Uniform(int rows, int cols, float lo, float hi,
                        std::mt19937_64& rng);
  /// Builds a `1 x values.size()` row vector.
  static Matrix RowVector(const std::vector<float>& values);
  /// Builds a `values.size() x 1` column vector.
  static Matrix ColVector(const std::vector<float>& values);

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Sum of all elements.
  float Sum() const;
  /// Mean of all elements.
  float Mean() const;
  /// Maximum absolute element; 0 for an empty matrix.
  float MaxAbs() const;
  /// Frobenius norm.
  float Norm() const;

  /// True if shapes and all elements match exactly.
  bool Equals(const Matrix& other) const;
  /// True if shapes match and elements differ by at most `tol`.
  bool AllClose(const Matrix& other, float tol) const;

  /// Human-readable rendering for logs and test failures.
  std::string ToString() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

/// Options for `Gemm`. Designated initializers keep call sites readable:
/// `Gemm(a, b, &out, {.trans_b = true, .accumulate = true})`.
struct GemmOpts {
  bool trans_a = false;
  bool trans_b = false;
  bool accumulate = false;
};

/// General matrix multiply: `out (+)= op(a) * op(b)` where `op` optionally
/// transposes. Shapes after transposition must contract: op(a) is (m x k),
/// op(b) is (k x n), out is (m x n).
///
/// With `accumulate == false` (default), `out` is shaped/zeroed and then
/// written; its existing buffer is reused when the shape already matches,
/// so a warm caller allocates nothing. With `accumulate == true`, `out`
/// must already have the exact result shape and is added into. `out` must
/// not alias `a` or `b`.
///
/// Dispatches to the runtime-selected kernel backend (see nn/kernels.h).
void Gemm(const Matrix& a, const Matrix& b, Matrix* out, GemmOpts opts = {});

/// out = a + b, elementwise; shapes must match.
Matrix Add(const Matrix& a, const Matrix& b);
/// out = a - b, elementwise; shapes must match.
Matrix Sub(const Matrix& a, const Matrix& b);
/// out = a ⊙ b, elementwise; shapes must match.
Matrix Mul(const Matrix& a, const Matrix& b);
/// a += b, elementwise; shapes must match.
void AddInPlace(Matrix* a, const Matrix& b);
/// a += s * b, elementwise (axpy); shapes must match.
void AxpyInPlace(Matrix* a, float s, const Matrix& b);
/// a *= s.
void ScaleInPlace(Matrix* a, float s);
/// Adds the `1 x cols` row vector `bias` to every row of `a`.
void AddRowBroadcastInPlace(Matrix* a, const Matrix& bias);

/// Raw row-major forms of the arithmetic the graph ops in nn/ops.h do
/// outside the kernel table. The ops and the graph-free inference path
/// (the `Infer` methods in nn/layers.h) both call these, so each formula is
/// written once and the two paths stay bitwise equal. `y` may alias `x`.
///
/// y[i] = x[i] + s.
void AddScalarInto(const float* x, float s, float* y, int n);
/// y[i] = softplus(x[i]) = max(x, 0) + log1p(exp(-|x|)).
void SoftplusInto(const float* x, float* y, int n);
/// y(r, c) = x(r, c) * s[r] over a (rows x cols) block.
void MulColBroadcastInto(const float* x, const float* s, float* y, int rows,
                         int cols);
/// y(r, c) = x(r, c) * v[c] over a (rows x cols) block.
void MulRowBroadcastInto(const float* x, const float* v, float* y, int rows,
                         int cols);
/// y[r] = sum over c of x(r, c), accumulated in double. `y` must not alias
/// `x`.
void SumColsInto(const float* x, float* y, int rows, int cols);

}  // namespace rapid::nn

#endif  // RAPID_NN_MATRIX_H_
