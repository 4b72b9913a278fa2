#include "nn/ops.h"

#include <cassert>
#include <cmath>

#include "nn/kernels.h"

namespace rapid::nn {

namespace {

using internal::Node;

// True if the i-th parent of `n` participates in differentiation.
bool NeedsGrad(const Node& n, int i) { return n.parents[i]->requires_grad; }

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  assert(a.cols() == b.rows());
  Matrix out;
  Gemm(a.value(), b.value(), &out);
  return Variable::FromOp(std::move(out), {a, b}, [](Node& n) {
    // dL/da += dL/dout * b^T ; dL/db += a^T * dL/dout.
    if (NeedsGrad(n, 0)) {
      Gemm(n.grad, n.parents[1]->value, &n.parents[0]->grad,
           {.trans_b = true, .accumulate = true});
    }
    if (NeedsGrad(n, 1)) {
      Gemm(n.parents[0]->value, n.grad, &n.parents[1]->grad,
           {.trans_a = true, .accumulate = true});
    }
  });
}

Variable Add(const Variable& a, const Variable& b) {
  return Variable::FromOp(nn::Add(a.value(), b.value()), {a, b}, [](Node& n) {
    if (NeedsGrad(n, 0)) AddInPlace(&n.parents[0]->grad, n.grad);
    if (NeedsGrad(n, 1)) AddInPlace(&n.parents[1]->grad, n.grad);
  });
}

Variable AddRowBroadcast(const Variable& x, const Variable& bias) {
  assert(bias.rows() == 1 && bias.cols() == x.cols());
  Matrix out = x.value();
  AddRowBroadcastInPlace(&out, bias.value());
  return Variable::FromOp(std::move(out), {x, bias}, [](Node& n) {
    if (NeedsGrad(n, 0)) AddInPlace(&n.parents[0]->grad, n.grad);
    if (NeedsGrad(n, 1)) {
      Matrix& bg = n.parents[1]->grad;
      for (int r = 0; r < n.grad.rows(); ++r) {
        const float* grow = n.grad.row(r);
        for (int c = 0; c < n.grad.cols(); ++c) bg.at(0, c) += grow[c];
      }
    }
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  return Variable::FromOp(nn::Sub(a.value(), b.value()), {a, b}, [](Node& n) {
    if (NeedsGrad(n, 0)) AddInPlace(&n.parents[0]->grad, n.grad);
    if (NeedsGrad(n, 1)) AxpyInPlace(&n.parents[1]->grad, -1.0f, n.grad);
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  return Variable::FromOp(nn::Mul(a.value(), b.value()), {a, b}, [](Node& n) {
    if (NeedsGrad(n, 0)) {
      AddInPlace(&n.parents[0]->grad, nn::Mul(n.grad, n.parents[1]->value));
    }
    if (NeedsGrad(n, 1)) {
      AddInPlace(&n.parents[1]->grad, nn::Mul(n.grad, n.parents[0]->value));
    }
  });
}

Variable MulColBroadcast(const Variable& x, const Variable& s) {
  assert(s.rows() == x.rows() && s.cols() == 1);
  Matrix out = x.value();
  MulColBroadcastInto(out.data(), s.value().data(), out.data(), out.rows(),
                      out.cols());
  return Variable::FromOp(std::move(out), {x, s}, [](Node& n) {
    const Matrix& xin = n.parents[0]->value;
    const Matrix& sin = n.parents[1]->value;
    if (NeedsGrad(n, 0)) {
      Matrix& pg = n.parents[0]->grad;
      for (int r = 0; r < pg.rows(); ++r) {
        const float sv = sin.at(r, 0);
        const float* g = n.grad.row(r);
        float* dst = pg.row(r);
        for (int c = 0; c < pg.cols(); ++c) dst[c] += g[c] * sv;
      }
    }
    if (NeedsGrad(n, 1)) {
      Matrix& sg = n.parents[1]->grad;
      for (int r = 0; r < xin.rows(); ++r) {
        const float* g = n.grad.row(r);
        const float* xr = xin.row(r);
        double acc = 0.0;
        for (int c = 0; c < xin.cols(); ++c) acc += g[c] * xr[c];
        sg.at(r, 0) += static_cast<float>(acc);
      }
    }
  });
}

Variable MulRowBroadcast(const Variable& x, const Variable& v) {
  assert(v.rows() == 1 && v.cols() == x.cols());
  Matrix out = x.value();
  MulRowBroadcastInto(out.data(), v.value().data(), out.data(), out.rows(),
                      out.cols());
  return Variable::FromOp(std::move(out), {x, v}, [](Node& n) {
    const Matrix& xin = n.parents[0]->value;
    const Matrix& vin = n.parents[1]->value;
    if (NeedsGrad(n, 0)) {
      Matrix& pg = n.parents[0]->grad;
      for (int r = 0; r < pg.rows(); ++r) {
        const float* g = n.grad.row(r);
        float* dst = pg.row(r);
        for (int c = 0; c < pg.cols(); ++c) dst[c] += g[c] * vin.at(0, c);
      }
    }
    if (NeedsGrad(n, 1)) {
      Matrix& vg = n.parents[1]->grad;
      for (int r = 0; r < xin.rows(); ++r) {
        const float* g = n.grad.row(r);
        const float* xr = xin.row(r);
        for (int c = 0; c < xin.cols(); ++c) vg.at(0, c) += g[c] * xr[c];
      }
    }
  });
}

Variable Scale(const Variable& a, float s) {
  Matrix out = a.value();
  ScaleInPlace(&out, s);
  return Variable::FromOp(std::move(out), {a}, [s](Node& n) {
    if (NeedsGrad(n, 0)) AxpyInPlace(&n.parents[0]->grad, s, n.grad);
  });
}

Variable AddScalar(const Variable& a, float s) {
  Matrix out = a.value();
  AddScalarInto(out.data(), s, out.data(), out.size());
  return Variable::FromOp(std::move(out), {a}, [](Node& n) {
    if (NeedsGrad(n, 0)) AddInPlace(&n.parents[0]->grad, n.grad);
  });
}

Variable Sigmoid(const Variable& x) {
  Matrix out(x.rows(), x.cols());
  kernel::Active().sigmoid(x.value().data(), out.data(), out.size());
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    for (int i = 0; i < n.value.size(); ++i) {
      const float y = n.value.data()[i];
      pg.data()[i] += n.grad.data()[i] * y * (1.0f - y);
    }
  });
}

Variable Tanh(const Variable& x) {
  Matrix out(x.rows(), x.cols());
  kernel::Active().tanh_act(x.value().data(), out.data(), out.size());
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    for (int i = 0; i < n.value.size(); ++i) {
      const float y = n.value.data()[i];
      pg.data()[i] += n.grad.data()[i] * (1.0f - y * y);
    }
  });
}

Variable Relu(const Variable& x) {
  Matrix out(x.rows(), x.cols());
  kernel::Active().relu(x.value().data(), out.data(), out.size());
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    const Matrix& xin = n.parents[0]->value;
    for (int i = 0; i < n.value.size(); ++i) {
      if (xin.data()[i] > 0.0f) pg.data()[i] += n.grad.data()[i];
    }
  });
}

Variable Softplus(const Variable& x) {
  Matrix out = x.value();
  SoftplusInto(out.data(), out.data(), out.size());
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    const Matrix& xin = n.parents[0]->value;
    for (int i = 0; i < n.value.size(); ++i) {
      const float v = xin.data()[i];
      const float sig = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                                  : std::exp(v) / (1.0f + std::exp(v));
      pg.data()[i] += n.grad.data()[i] * sig;
    }
  });
}

Variable Square(const Variable& x) {
  Matrix out = x.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= out.data()[i];
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    const Matrix& xin = n.parents[0]->value;
    for (int i = 0; i < n.value.size(); ++i) {
      pg.data()[i] += n.grad.data()[i] * 2.0f * xin.data()[i];
    }
  });
}

Variable Exp(const Variable& x) {
  Matrix out = x.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::exp(out.data()[i]);
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    for (int i = 0; i < n.value.size(); ++i) {
      pg.data()[i] += n.grad.data()[i] * n.value.data()[i];
    }
  });
}

Variable Log(const Variable& x) {
  Matrix out = x.value();
  for (int i = 0; i < out.size(); ++i) {
    assert(out.data()[i] > 0.0f);
    out.data()[i] = std::log(out.data()[i]);
  }
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    const Matrix& xin = n.parents[0]->value;
    for (int i = 0; i < n.value.size(); ++i) {
      pg.data()[i] += n.grad.data()[i] / xin.data()[i];
    }
  });
}

Variable SoftmaxRows(const Variable& x) {
  Matrix out = x.value();
  kernel::Active().softmax_rows(out.data(), out.rows(), out.cols());
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    // d x_j = y_j * (g_j - sum_k g_k y_k), per row.
    for (int r = 0; r < n.value.rows(); ++r) {
      const float* y = n.value.row(r);
      const float* g = n.grad.row(r);
      double dot = 0.0;
      for (int c = 0; c < n.value.cols(); ++c) dot += g[c] * y[c];
      float* prow = pg.row(r);
      for (int c = 0; c < n.value.cols(); ++c) {
        prow[c] += y[c] * (g[c] - static_cast<float>(dot));
      }
    }
  });
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  assert(!parts.empty());
  const int rows = parts[0].rows();
  int cols = 0;
  for (const Variable& p : parts) {
    assert(p.rows() == rows);
    cols += p.cols();
  }
  Matrix out(rows, cols);
  int off = 0;
  for (const Variable& p : parts) {
    for (int r = 0; r < rows; ++r) {
      const float* src = p.value().row(r);
      float* dst = out.row(r) + off;
      for (int c = 0; c < p.cols(); ++c) dst[c] = src[c];
    }
    off += p.cols();
  }
  return Variable::FromOp(std::move(out), parts, [](Node& n) {
    int off = 0;
    for (size_t i = 0; i < n.parents.size(); ++i) {
      const int pc = n.parents[i]->value.cols();
      if (n.parents[i]->requires_grad) {
        Matrix& pg = n.parents[i]->grad;
        for (int r = 0; r < n.grad.rows(); ++r) {
          const float* src = n.grad.row(r) + off;
          float* dst = pg.row(r);
          for (int c = 0; c < pc; ++c) dst[c] += src[c];
        }
      }
      off += pc;
    }
  });
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  assert(!parts.empty());
  const int cols = parts[0].cols();
  int rows = 0;
  for (const Variable& p : parts) {
    assert(p.cols() == cols);
    rows += p.rows();
  }
  Matrix out(rows, cols);
  int off = 0;
  for (const Variable& p : parts) {
    for (int r = 0; r < p.rows(); ++r) {
      const float* src = p.value().row(r);
      float* dst = out.row(off + r);
      for (int c = 0; c < cols; ++c) dst[c] = src[c];
    }
    off += p.rows();
  }
  return Variable::FromOp(std::move(out), parts, [](Node& n) {
    int off = 0;
    for (size_t i = 0; i < n.parents.size(); ++i) {
      const int pr = n.parents[i]->value.rows();
      if (n.parents[i]->requires_grad) {
        Matrix& pg = n.parents[i]->grad;
        for (int r = 0; r < pr; ++r) {
          const float* src = n.grad.row(off + r);
          float* dst = pg.row(r);
          for (int c = 0; c < n.grad.cols(); ++c) dst[c] += src[c];
        }
      }
      off += pr;
    }
  });
}

Variable SliceCols(const Variable& x, int start, int len) {
  assert(start >= 0 && len >= 0 && start + len <= x.cols());
  Matrix out(x.rows(), len);
  for (int r = 0; r < x.rows(); ++r) {
    const float* src = x.value().row(r) + start;
    float* dst = out.row(r);
    for (int c = 0; c < len; ++c) dst[c] = src[c];
  }
  return Variable::FromOp(std::move(out), {x}, [start, len](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    for (int r = 0; r < n.grad.rows(); ++r) {
      const float* src = n.grad.row(r);
      float* dst = pg.row(r) + start;
      for (int c = 0; c < len; ++c) dst[c] += src[c];
    }
  });
}

Variable SliceRows(const Variable& x, int start, int len) {
  assert(start >= 0 && len >= 0 && start + len <= x.rows());
  Matrix out(len, x.cols());
  for (int r = 0; r < len; ++r) {
    const float* src = x.value().row(start + r);
    float* dst = out.row(r);
    for (int c = 0; c < x.cols(); ++c) dst[c] = src[c];
  }
  return Variable::FromOp(std::move(out), {x}, [start, len](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    for (int r = 0; r < len; ++r) {
      const float* src = n.grad.row(r);
      float* dst = pg.row(start + r);
      for (int c = 0; c < n.grad.cols(); ++c) dst[c] += src[c];
    }
  });
}

Variable GatherRows(const Variable& x, std::vector<int> rows) {
  Matrix out(static_cast<int>(rows.size()), x.cols());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r] >= 0 && rows[r] < x.rows());
    const float* src = x.value().row(rows[r]);
    float* dst = out.row(static_cast<int>(r));
    for (int c = 0; c < x.cols(); ++c) dst[c] = src[c];
  }
  return Variable::FromOp(std::move(out), {x},
                          [rows = std::move(rows)](Node& n) {
                            if (!NeedsGrad(n, 0)) return;
                            Matrix& pg = n.parents[0]->grad;
                            for (size_t r = 0; r < rows.size(); ++r) {
                              const float* src =
                                  n.grad.row(static_cast<int>(r));
                              float* dst = pg.row(rows[r]);
                              for (int c = 0; c < n.grad.cols(); ++c) {
                                dst[c] += src[c];
                              }
                            }
                          });
}

Variable Transpose(const Variable& x) {
  return Variable::FromOp(x.value().Transposed(), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    AddInPlace(&n.parents[0]->grad, n.grad.Transposed());
  });
}

Variable FlattenToRow(const Variable& x) {
  Matrix out(1, x.rows() * x.cols());
  for (int i = 0; i < out.size(); ++i) out.data()[i] = x.value().data()[i];
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    for (int i = 0; i < pg.size(); ++i) pg.data()[i] += n.grad.data()[i];
  });
}

Variable SumAll(const Variable& x) {
  Matrix out(1, 1);
  out.at(0, 0) = x.value().Sum();
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    const float g = n.grad.at(0, 0);
    Matrix& pg = n.parents[0]->grad;
    for (int i = 0; i < pg.size(); ++i) pg.data()[i] += g;
  });
}

Variable MeanAll(const Variable& x) {
  const float inv = x.value().empty() ? 0.0f : 1.0f / x.value().size();
  Matrix out(1, 1);
  out.at(0, 0) = x.value().Sum() * inv;
  return Variable::FromOp(std::move(out), {x}, [inv](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    const float g = n.grad.at(0, 0) * inv;
    Matrix& pg = n.parents[0]->grad;
    for (int i = 0; i < pg.size(); ++i) pg.data()[i] += g;
  });
}

Variable MeanRows(const Variable& x) {
  assert(x.rows() > 0);
  const float inv = 1.0f / x.rows();
  Matrix out(1, x.cols());
  for (int r = 0; r < x.rows(); ++r) {
    const float* src = x.value().row(r);
    for (int c = 0; c < x.cols(); ++c) out.at(0, c) += src[c] * inv;
  }
  return Variable::FromOp(std::move(out), {x}, [inv](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    const float* g = n.grad.row(0);
    for (int r = 0; r < pg.rows(); ++r) {
      float* dst = pg.row(r);
      for (int c = 0; c < pg.cols(); ++c) dst[c] += g[c] * inv;
    }
  });
}

Variable SumCols(const Variable& x) {
  Matrix out(x.rows(), 1);
  SumColsInto(x.value().data(), out.data(), x.rows(), x.cols());
  return Variable::FromOp(std::move(out), {x}, [](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    for (int r = 0; r < pg.rows(); ++r) {
      const float g = n.grad.at(r, 0);
      float* dst = pg.row(r);
      for (int c = 0; c < pg.cols(); ++c) dst[c] += g;
    }
  });
}

Variable Dropout(const Variable& x, float p, bool training,
                 std::mt19937_64& rng) {
  if (!training || p <= 0.0f) return Scale(x, 1.0f);
  assert(p < 1.0f);
  const float keep = 1.0f - p;
  const float inv_keep = 1.0f / keep;
  auto mask = std::make_shared<Matrix>(x.rows(), x.cols());
  std::bernoulli_distribution coin(keep);
  Matrix out = x.value();
  for (int i = 0; i < out.size(); ++i) {
    const float m = coin(rng) ? inv_keep : 0.0f;
    mask->data()[i] = m;
    out.data()[i] *= m;
  }
  return Variable::FromOp(std::move(out), {x}, [mask](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    Matrix& pg = n.parents[0]->grad;
    for (int i = 0; i < pg.size(); ++i) {
      pg.data()[i] += n.grad.data()[i] * mask->data()[i];
    }
  });
}

Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps) {
  assert(gamma.rows() == 1 && gamma.cols() == x.cols());
  assert(beta.rows() == 1 && beta.cols() == x.cols());
  const int rows = x.rows(), cols = x.cols();
  Matrix out(rows, cols);
  auto xhat = std::make_shared<Matrix>(rows, cols);
  auto inv_std = std::make_shared<std::vector<float>>(rows);
  for (int r = 0; r < rows; ++r) {
    const float* src = x.value().row(r);
    double mean = 0.0;
    for (int c = 0; c < cols; ++c) mean += src[c];
    mean /= cols;
    double var = 0.0;
    for (int c = 0; c < cols; ++c) {
      const double d = src[c] - mean;
      var += d * d;
    }
    var /= cols;
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    (*inv_std)[r] = istd;
    float* hrow = xhat->row(r);
    float* orow = out.row(r);
    for (int c = 0; c < cols; ++c) {
      hrow[c] = (src[c] - static_cast<float>(mean)) * istd;
      orow[c] = hrow[c] * gamma.value().at(0, c) + beta.value().at(0, c);
    }
  }
  return Variable::FromOp(
      std::move(out), {x, gamma, beta}, [xhat, inv_std](Node& n) {
        const int rows = n.value.rows(), cols = n.value.cols();
        const Matrix& gmat = n.parents[1]->value;
        // gamma and beta gradients.
        if (n.parents[1]->requires_grad) {
          Matrix& gg = n.parents[1]->grad;
          for (int r = 0; r < rows; ++r) {
            const float* g = n.grad.row(r);
            const float* h = xhat->row(r);
            for (int c = 0; c < cols; ++c) gg.at(0, c) += g[c] * h[c];
          }
        }
        if (n.parents[2]->requires_grad) {
          Matrix& bg = n.parents[2]->grad;
          for (int r = 0; r < rows; ++r) {
            const float* g = n.grad.row(r);
            for (int c = 0; c < cols; ++c) bg.at(0, c) += g[c];
          }
        }
        if (!n.parents[0]->requires_grad) return;
        // dx = (istd / cols) * (cols*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
        Matrix& xg = n.parents[0]->grad;
        for (int r = 0; r < rows; ++r) {
          const float* g = n.grad.row(r);
          const float* h = xhat->row(r);
          double s1 = 0.0, s2 = 0.0;
          for (int c = 0; c < cols; ++c) {
            const double dxh = g[c] * gmat.at(0, c);
            s1 += dxh;
            s2 += dxh * h[c];
          }
          const float istd = (*inv_std)[r];
          float* dst = xg.row(r);
          for (int c = 0; c < cols; ++c) {
            const double dxh = g[c] * gmat.at(0, c);
            dst[c] += static_cast<float>(
                istd * (dxh - s1 / cols - h[c] * s2 / cols));
          }
        }
      });
}

Variable BceWithLogits(const Variable& logits, const Matrix& targets,
                       const Matrix& weights) {
  assert(logits.rows() == targets.rows() && logits.cols() == targets.cols());
  assert(logits.rows() == weights.rows() && logits.cols() == weights.cols());
  double wsum = 0.0;
  for (int i = 0; i < weights.size(); ++i) wsum += weights.data()[i];
  const float inv_w = wsum > 0.0 ? static_cast<float>(1.0 / wsum) : 0.0f;
  double loss = 0.0;
  const Matrix& z = logits.value();
  for (int i = 0; i < z.size(); ++i) {
    const float zi = z.data()[i];
    const float yi = targets.data()[i];
    // loss_i = max(z,0) - z*y + log(1+exp(-|z|)).
    loss += weights.data()[i] *
            (std::max(zi, 0.0f) - zi * yi +
             std::log1p(std::exp(-std::fabs(zi))));
  }
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(loss) * inv_w;
  auto t = std::make_shared<Matrix>(targets);
  auto w = std::make_shared<Matrix>(weights);
  return Variable::FromOp(std::move(out), {logits}, [t, w, inv_w](Node& n) {
    if (!NeedsGrad(n, 0)) return;
    const float g = n.grad.at(0, 0) * inv_w;
    const Matrix& z = n.parents[0]->value;
    Matrix& pg = n.parents[0]->grad;
    for (int i = 0; i < z.size(); ++i) {
      const float zi = z.data()[i];
      const float sig = zi >= 0.0f ? 1.0f / (1.0f + std::exp(-zi))
                                   : std::exp(zi) / (1.0f + std::exp(zi));
      pg.data()[i] += g * w->data()[i] * (sig - t->data()[i]);
    }
  });
}

Variable MseLoss(const Variable& x, const Matrix& target) {
  assert(x.rows() == target.rows() && x.cols() == target.cols());
  return MeanAll(Square(Sub(x, Variable::Constant(target))));
}

}  // namespace rapid::nn
