#ifndef RAPID_NN_KERNELS_H_
#define RAPID_NN_KERNELS_H_

/// Runtime-dispatched SIMD math kernels.
///
/// Every dense-math hot loop in `rapid::nn` — GEMM and the elementwise /
/// activation passes — funnels through one function-pointer table selected
/// exactly once at startup:
///
///   * `kScalar` — the original portable loops, kept bit-for-bit identical
///     to the pre-kernel-layer code so the `ScoreBatch`-exactness and
///     snapshot gates hold unchanged on machines without AVX2 (and under
///     the forced-scalar CI fixture).
///   * `kAvx2` — blocked, AVX2/FMA-vectorized implementations compiled
///     into a separate translation unit with `-mavx2 -mfma` (gated by the
///     `RAPID_ENABLE_AVX2` CMake option and a compile probe).
///
/// Selection: `RAPID_KERNEL_BACKEND=scalar|avx2|auto` overrides; otherwise
/// CPUID decides (`auto`). Requesting `avx2` on a machine without it falls
/// back to scalar with a one-line stderr notice.
///
/// ## Exactness contract
///
/// Within one backend, every kernel is *shape-tiling independent*: the
/// value computed for an output element depends only on its own input
/// operands (its row of A and all of B for GEMM; its own input value for
/// elementwise maps; its own row for row passes), never on how many other
/// rows share the call. The AVX2 kernels guarantee this by using masked
/// vector tails — tail elements run the exact same instruction sequence as
/// full lanes — and by keeping one accumulation chain per output element
/// regardless of register blocking. This is what keeps the batched
/// `[B*L, d]` forward bitwise-equal to per-list forwards on *both*
/// backends. Across backends results differ by rounding only (FMA and
/// vectorized exp vs. two-step multiply-add and libm); the scalar-vs-AVX2
/// property suite bounds the drift, and snapshot canaries absorb it with
/// their existing tolerance.
namespace rapid::nn::kernel {

enum class Backend { kScalar, kAvx2 };

/// The dispatch table. All pointers are non-null for the active table.
/// GEMM entries compute `c (+)= op(a) * op(b)` over row-major buffers;
/// callers zero `c` first for the non-accumulating case so that both
/// forms share one accumulation chain per element.
struct KernelTable {
  /// c += a * b. a is (m x k), b is (k x n), c is (m x n).
  void (*gemm_nn)(const float* a, const float* b, float* c, int m, int n,
                  int k);
  /// c += a^T * b. a is (k x m), b is (k x n), c is (m x n).
  void (*gemm_tn)(const float* a, const float* b, float* c, int m, int n,
                  int k);
  /// c += a * b^T. a is (m x k), b is (n x k), c is (m x n).
  void (*gemm_nt)(const float* a, const float* b, float* c, int m, int n,
                  int k);

  /// The elementwise maps below read `x[i]` before they write `y[i]` on
  /// both backends, so `y` may alias `x` (an in-place map).
  ///
  /// y[i] = sigmoid(x[i]) (numerically stable for both signs).
  void (*sigmoid)(const float* x, float* y, int n);
  /// y[i] = tanh(x[i]).
  void (*tanh_act)(const float* x, float* y, int n);
  /// y[i] = max(x[i], 0).
  void (*relu)(const float* x, float* y, int n);
  /// In-place row softmax over a (rows x cols) row-major buffer:
  /// max-subtracted exp, then normalize. Matches `SoftmaxRows`.
  void (*softmax_rows)(float* data, int rows, int cols);

  /// y[i] = a[i] + b[i]. `y` may alias `a` (in-place add).
  void (*add)(const float* a, const float* b, float* y, int n);
  /// y[i] = a[i] * b[i]. `y` may alias `a`.
  void (*mul)(const float* a, const float* b, float* y, int n);
  /// y[i] += s * x[i].
  void (*axpy)(float* y, float s, const float* x, int n);
  /// y[i] *= s.
  void (*scale)(float* y, float s, int n);
  /// Adds the length-`cols` row `bias` to every row of (rows x cols) `a`.
  void (*bias_row)(float* a, const float* bias, int rows, int cols);
};

/// The active table (selected on first use, stable afterwards unless a
/// `ScopedBackendOverride` is live).
const KernelTable& Active();

/// The backend behind `Active()`.
Backend ActiveBackend();

/// "scalar" or "avx2".
const char* BackendName(Backend backend);

/// True when this build carries the AVX2 kernels *and* the CPU supports
/// AVX2+FMA.
bool Avx2Available();

/// The scalar table, always available (property tests compare against it).
const KernelTable& ScalarTable();

/// Testing/bench hook: forces `Active()` to the given backend for this
/// object's lifetime, restoring the previous selection on destruction.
/// Process-global and NOT safe against concurrent forwards — use only in
/// single-threaded test/bench phases. Forcing `kAvx2` when
/// `Avx2Available()` is false keeps scalar and reports it via `forced()`.
class ScopedBackendOverride {
 public:
  explicit ScopedBackendOverride(Backend backend);
  ~ScopedBackendOverride();
  ScopedBackendOverride(const ScopedBackendOverride&) = delete;
  ScopedBackendOverride& operator=(const ScopedBackendOverride&) = delete;

  /// The backend actually in force (differs from the request when AVX2 is
  /// unavailable).
  Backend forced() const { return forced_; }

 private:
  Backend previous_;
  Backend forced_;
};

}  // namespace rapid::nn::kernel

#endif  // RAPID_NN_KERNELS_H_
