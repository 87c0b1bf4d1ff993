#include "ref/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ref/gemm.hpp"
#include "util/trace.hpp"

namespace dnnperf::ref {

namespace {

int out_dim(int in, int k, int stride, int pad) {
  const int out = (in + 2 * pad - k) / stride + 1;
  if (out <= 0) throw std::invalid_argument("kernel: output dim <= 0");
  return out;
}

void check_rank(const Tensor& t, int rank, const char* what) {
  if (t.rank() != rank) throw std::invalid_argument(std::string(what) + ": bad rank");
}

/// One output row `oy` of one max-pool plane: y/argmax[0, ow) from the
/// plane xp of width w. Each cell scans its window in (ky, kx) order through
/// row pointers, and keeps the max and its offset with selects (a max and
/// a conditional move), not a branch that random data mispredicts half the
/// time.
void maxpool_row(const float* __restrict xp, int w, int oy, int k, int stride, int ow,
                 float* __restrict y, float* __restrict argmax) {
  for (int ox = 0; ox < ow; ++ox) {
    float best = -std::numeric_limits<float>::infinity();
    int best_idx = 0;  // offset inside the plane
    for (int ky = 0; ky < k; ++ky) {
      const int row = (oy * stride + ky) * w + ox * stride;
      const float* xrow = xp + row;
      for (int kx = 0; kx < k; ++kx) {
        const float v = xrow[kx];
        const bool wins = v > best;
        best = wins ? v : best;
        best_idx = wins ? row + kx : best_idx;
      }
    }
    y[ox] = best;
    argmax[ox] = static_cast<float>(best_idx);
  }
}

}  // namespace

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b, ConvSpec spec,
                      ThreadPool& pool) {
  check_rank(x, 4, "conv2d x");
  check_rank(w, 4, "conv2d w");
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int oc = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  if (w.dim(1) != c) throw std::invalid_argument("conv2d: channel mismatch");
  if (b.size() != static_cast<std::size_t>(oc)) throw std::invalid_argument("conv2d: bias size");
  const int oh = out_dim(h, kh, spec.stride, spec.pad);
  const int ow = out_dim(ww, kw, spec.stride, spec.pad);

  DNNPERF_TRACE_SPAN_VAR(span, "ref", "conv2d_fwd_direct");
  if (span.active())
    span.set_args(std::move(
                      util::trace::Args().add("n", n).add("c", c).add("oc", oc).add("k", kh))
                      .str());
  span.set_flops(2.0 * n * oh * ow * oc * c * kh * kw);

  Tensor y({n, oc, oh, ow});
  pool.parallel_for(static_cast<std::size_t>(n) * oc, [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      const int ni = static_cast<int>(idx) / oc;
      const int oci = static_cast<int>(idx) % oc;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          float acc = b[static_cast<std::size_t>(oci)];
          for (int ci = 0; ci < c; ++ci) {
            for (int ky = 0; ky < kh; ++ky) {
              const int iy = oy * spec.stride + ky - spec.pad;
              if (iy < 0 || iy >= h) continue;
              for (int kx = 0; kx < kw; ++kx) {
                const int ix = ox * spec.stride + kx - spec.pad;
                if (ix < 0 || ix >= ww) continue;
                acc += x.at4(ni, ci, iy, ix) * w.at4(oci, ci, ky, kx);
              }
            }
          }
          y.at4(ni, oci, oy, ox) = acc;
        }
      }
    }
  });
  return y;
}

void conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& dy, ConvSpec spec,
                     Tensor& dx, Tensor& dw, Tensor& db, ThreadPool& pool) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int oc = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int oh = dy.dim(2), ow = dy.dim(3);

  dx = Tensor::zeros(x.shape());
  dw = Tensor::zeros(w.shape());
  db = Tensor::zeros({oc});

  // db and dw: parallel over output channels (disjoint writes).
  pool.parallel_for(static_cast<std::size_t>(oc), [&](std::size_t begin, std::size_t end) {
    for (std::size_t oci = begin; oci < end; ++oci) {
      const int o = static_cast<int>(oci);
      float bias_acc = 0.0f;
      for (int ni = 0; ni < n; ++ni)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox) {
            const float g = dy.at4(ni, o, oy, ox);
            bias_acc += g;
            for (int ci = 0; ci < c; ++ci)
              for (int ky = 0; ky < kh; ++ky) {
                const int iy = oy * spec.stride + ky - spec.pad;
                if (iy < 0 || iy >= h) continue;
                for (int kx = 0; kx < kw; ++kx) {
                  const int ix = ox * spec.stride + kx - spec.pad;
                  if (ix < 0 || ix >= ww) continue;
                  dw.at4(o, ci, ky, kx) += g * x.at4(ni, ci, iy, ix);
                }
              }
          }
      db[oci] = bias_acc;
    }
  });

  // dx: parallel over (n, c) — disjoint writes per input channel plane.
  pool.parallel_for(static_cast<std::size_t>(n) * c, [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      const int ni = static_cast<int>(idx) / c;
      const int ci = static_cast<int>(idx) % c;
      for (int o = 0; o < oc; ++o)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox) {
            const float g = dy.at4(ni, o, oy, ox);
            for (int ky = 0; ky < kh; ++ky) {
              const int iy = oy * spec.stride + ky - spec.pad;
              if (iy < 0 || iy >= h) continue;
              for (int kx = 0; kx < kw; ++kx) {
                const int ix = ox * spec.stride + kx - spec.pad;
                if (ix < 0 || ix >= ww) continue;
                dx.at4(ni, ci, iy, ix) += g * w.at4(o, ci, ky, kx);
              }
            }
          }
    }
  });
}

void dense_forward(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& y,
                   ThreadPool& pool) {
  check_rank(x, 2, "dense x");
  check_rank(w, 2, "dense w");
  const int n = x.dim(0), f = x.dim(1), o = w.dim(1);
  if (w.dim(0) != f) throw std::invalid_argument("dense: feature mismatch");
  DNNPERF_TRACE_SPAN_VAR(span, "ref", "dense_fwd");
  if (span.active())
    span.set_args(std::move(util::trace::Args().add("n", n).add("f", f).add("o", o)).str());
  span.set_flops(2.0 * n * f * o);
  // Seed every output row with the bias, then accumulate x*w through the
  // packed GEMM.
  y.resize({n, o});
  for (int ni = 0; ni < n; ++ni)
    for (int oi = 0; oi < o; ++oi)
      y[static_cast<std::size_t>(ni) * o + oi] = b[static_cast<std::size_t>(oi)];
  gemm(x, w, y, pool, /*accumulate=*/true);
}

Tensor dense_forward(const Tensor& x, const Tensor& w, const Tensor& b, ThreadPool& pool) {
  Tensor y;
  dense_forward(x, w, b, y, pool);
  return y;
}

void dense_backward(const Tensor& x, const Tensor& w, const Tensor& dy, Tensor& dx, Tensor& dw,
                    Tensor& db, ThreadPool& pool) {
  const int n = x.dim(0), f = x.dim(1), o = w.dim(1);
  dx.resize(x.shape());
  dw.resize(w.shape());
  db.resize({o});
  db.zero();
  for (int ni = 0; ni < n; ++ni)
    for (int oi = 0; oi < o; ++oi)
      db[static_cast<std::size_t>(oi)] += dy[static_cast<std::size_t>(ni) * o + oi];
  // dW [F,O] = X^T [F,N] * dY [N,O]; X is stored [N,F], i.e. already the
  // k-major transposed-A layout gemm_at packs from.
  gemm_at(x, dy, dw, pool);
  pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t begin, std::size_t end) {
    for (std::size_t ni = begin; ni < end; ++ni)
      for (int fi = 0; fi < f; ++fi) {
        float acc = 0.0f;
        for (int oi = 0; oi < o; ++oi)
          acc += dy[ni * o + oi] * w[static_cast<std::size_t>(fi) * o + oi];
        dx[ni * f + fi] = acc;
      }
  });
}

void relu_forward(const Tensor& x, Tensor& y, ThreadPool& pool) {
  y.resize(x.shape());
  pool.parallel_for(x.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  });
}

Tensor relu_forward(const Tensor& x, ThreadPool& pool) {
  Tensor y;
  relu_forward(x, y, pool);
  return y;
}

void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx, ThreadPool& pool) {
  dx.resize(x.shape());
  pool.parallel_for(x.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dx[i] = x[i] > 0.0f ? dy[i] : 0.0f;
  });
}

Tensor relu_backward(const Tensor& x, const Tensor& dy, ThreadPool& pool) {
  Tensor dx;
  relu_backward(x, dy, dx, pool);
  return dx;
}

void maxpool_forward(const Tensor& x, int k, int stride, Tensor& y, Tensor& argmax,
                     ThreadPool& pool) {
  check_rank(x, 4, "maxpool x");
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = out_dim(h, k, stride, 0);
  const int ow = out_dim(w, k, stride, 0);
  DNNPERF_TRACE_SPAN_VAR(span, "ref", "maxpool_fwd");
  if (span.active())
    span.set_args(std::move(util::trace::Args().add("n", n).add("c", c).add("k", k)).str());
  y.resize({n, c, oh, ow});
  argmax.resize({n, c, oh, ow});
  const std::size_t plane_in = static_cast<std::size_t>(h) * w;
  const std::size_t plane_out = static_cast<std::size_t>(oh) * ow;
  const float* px = x.data();
  float* py = y.data();
  float* pa = argmax.data();
  pool.parallel_for(static_cast<std::size_t>(n) * c, [&](std::size_t begin, std::size_t end) {
    for (std::size_t plane = begin; plane < end; ++plane) {
      const float* xp = px + plane * plane_in;
      for (int oy = 0; oy < oh; ++oy) {
        const std::size_t row = plane * plane_out + static_cast<std::size_t>(oy) * ow;
        maxpool_row(xp, w, oy, k, stride, ow, py + row, pa + row);
      }
    }
  });
}

Tensor maxpool_forward(const Tensor& x, int k, int stride, Tensor& argmax, ThreadPool& pool) {
  Tensor y;
  maxpool_forward(x, k, stride, y, argmax, pool);
  return y;
}

void maxpool_backward(const std::vector<int>& x_shape, const Tensor& dy, const Tensor& argmax,
                      Tensor& dx, ThreadPool& pool) {
  dx.resize(x_shape);
  // Serial scatter: argmax offsets may collide across output cells only
  // within one (n,c) plane; parallelize over planes.
  const int n = dx.dim(0), c = dx.dim(1);
  const std::size_t plane_in = static_cast<std::size_t>(dx.dim(2)) * dx.dim(3);
  const std::size_t plane_out = dy.size() / (static_cast<std::size_t>(n) * c);
  pool.parallel_for(static_cast<std::size_t>(n) * c, [&](std::size_t begin, std::size_t end) {
    for (std::size_t plane = begin; plane < end; ++plane) {
      float* dx_plane = dx.data() + plane * plane_in;
      std::fill(dx_plane, dx_plane + plane_in, 0.0f);
      for (std::size_t j = 0; j < plane_out; ++j) {
        const std::size_t src = plane * plane_out + j;
        dx_plane[static_cast<std::size_t>(argmax[src])] += dy[src];
      }
    }
  });
}

Tensor maxpool_backward(const Tensor& x, const Tensor& dy, const Tensor& argmax,
                        ThreadPool& pool) {
  Tensor dx;
  maxpool_backward(x.shape(), dy, argmax, dx, pool);
  return dx;
}

void global_avg_pool_forward(const Tensor& x, Tensor& y) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  y.resize({n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci) {
      float acc = 0.0f;
      for (int hy = 0; hy < h; ++hy)
        for (int wx = 0; wx < w; ++wx) acc += x.at4(ni, ci, hy, wx);
      y[static_cast<std::size_t>(ni) * c + ci] = acc * inv;
    }
}

Tensor global_avg_pool_forward(const Tensor& x) {
  Tensor y;
  global_avg_pool_forward(x, y);
  return y;
}

void global_avg_pool_backward(const std::vector<int>& x_shape, const Tensor& dy, Tensor& dx) {
  dx.resize(x_shape);
  const int n = dx.dim(0), c = dx.dim(1), h = dx.dim(2), w = dx.dim(3);
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci) {
      const float g = dy[static_cast<std::size_t>(ni) * c + ci] * inv;
      for (int hy = 0; hy < h; ++hy)
        for (int wx = 0; wx < w; ++wx) dx.at4(ni, ci, hy, wx) = g;
    }
}

Tensor global_avg_pool_backward(const Tensor& x, const Tensor& dy) {
  Tensor dx;
  global_avg_pool_backward(x.shape(), dy, dx);
  return dx;
}

void batchnorm_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps,
                       BatchNormCache& cache, Tensor& y) {
  check_rank(x, 4, "batchnorm x");
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const float m = static_cast<float>(n * h * w);
  y.resize(x.shape());
  cache.x_hat.resize(x.shape());
  cache.inv_std.assign(static_cast<std::size_t>(c), 0.0f);
  for (int ci = 0; ci < c; ++ci) {
    float mean = 0.0f;
    for (int ni = 0; ni < n; ++ni)
      for (int hy = 0; hy < h; ++hy)
        for (int wx = 0; wx < w; ++wx) mean += x.at4(ni, ci, hy, wx);
    mean /= m;
    float var = 0.0f;
    for (int ni = 0; ni < n; ++ni)
      for (int hy = 0; hy < h; ++hy)
        for (int wx = 0; wx < w; ++wx) {
          const float d = x.at4(ni, ci, hy, wx) - mean;
          var += d * d;
        }
    var /= m;
    const float inv_std = 1.0f / std::sqrt(var + eps);
    cache.inv_std[static_cast<std::size_t>(ci)] = inv_std;
    const float g = gamma[static_cast<std::size_t>(ci)];
    const float b = beta[static_cast<std::size_t>(ci)];
    for (int ni = 0; ni < n; ++ni)
      for (int hy = 0; hy < h; ++hy)
        for (int wx = 0; wx < w; ++wx) {
          const float xh = (x.at4(ni, ci, hy, wx) - mean) * inv_std;
          cache.x_hat.at4(ni, ci, hy, wx) = xh;
          y.at4(ni, ci, hy, wx) = g * xh + b;
        }
  }
}

Tensor batchnorm_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps,
                         BatchNormCache& cache) {
  Tensor y;
  batchnorm_forward(x, gamma, beta, eps, cache, y);
  return y;
}

void batchnorm_backward(const Tensor& dy, const BatchNormCache& cache, const Tensor& gamma,
                        Tensor& dx, Tensor& dgamma, Tensor& dbeta) {
  const int n = dy.dim(0), c = dy.dim(1), h = dy.dim(2), w = dy.dim(3);
  const float m = static_cast<float>(n * h * w);
  dx.resize(dy.shape());
  dgamma.resize({c});
  dbeta.resize({c});
  for (int ci = 0; ci < c; ++ci) {
    float sum_dy = 0.0f;
    float sum_dy_xhat = 0.0f;
    for (int ni = 0; ni < n; ++ni)
      for (int hy = 0; hy < h; ++hy)
        for (int wx = 0; wx < w; ++wx) {
          const float g = dy.at4(ni, ci, hy, wx);
          sum_dy += g;
          sum_dy_xhat += g * cache.x_hat.at4(ni, ci, hy, wx);
        }
    dgamma[static_cast<std::size_t>(ci)] = sum_dy_xhat;
    dbeta[static_cast<std::size_t>(ci)] = sum_dy;
    const float gam = gamma[static_cast<std::size_t>(ci)];
    const float inv_std = cache.inv_std[static_cast<std::size_t>(ci)];
    for (int ni = 0; ni < n; ++ni)
      for (int hy = 0; hy < h; ++hy)
        for (int wx = 0; wx < w; ++wx) {
          const float xh = cache.x_hat.at4(ni, ci, hy, wx);
          dx.at4(ni, ci, hy, wx) =
              gam * inv_std / m * (m * dy.at4(ni, ci, hy, wx) - sum_dy - xh * sum_dy_xhat);
        }
  }
}

float softmax_xent(const Tensor& logits, const std::vector<int>& labels, Tensor& dlogits) {
  check_rank(logits, 2, "softmax logits");
  const int n = logits.dim(0), k = logits.dim(1);
  if (labels.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("softmax_xent: labels size");
  dlogits.resize(logits.shape());
  float loss = 0.0f;
  for (int ni = 0; ni < n; ++ni) {
    const std::size_t base = static_cast<std::size_t>(ni) * k;
    float mx = logits[base];
    for (int ki = 1; ki < k; ++ki) mx = std::max(mx, logits[base + ki]);
    float denom = 0.0f;
    for (int ki = 0; ki < k; ++ki) denom += std::exp(logits[base + ki] - mx);
    const int label = labels[static_cast<std::size_t>(ni)];
    if (label < 0 || label >= k) throw std::invalid_argument("softmax_xent: bad label");
    loss -= (logits[base + label] - mx) - std::log(denom);
    for (int ki = 0; ki < k; ++ki) {
      const float p = std::exp(logits[base + ki] - mx) / denom;
      dlogits[base + ki] = (p - (ki == label ? 1.0f : 0.0f)) / static_cast<float>(n);
    }
  }
  return loss / static_cast<float>(n);
}

}  // namespace dnnperf::ref
