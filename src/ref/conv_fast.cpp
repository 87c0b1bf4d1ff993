#include "ref/conv_fast.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "ref/gemm_packed.hpp"
#include "util/trace.hpp"

namespace dnnperf::ref {

namespace {

int out_dim(int in, int k, int stride, int pad) {
  const int out = (in + 2 * pad - k) / stride + 1;
  if (out <= 0) throw std::invalid_argument("conv_fast: output dim <= 0");
  return out;
}

/// Implicit-GEMM forward: the im2col matrix exists only as the per-thread
/// MC x KC A-panel the packer fills on demand; bias is fused into the store
/// epilogue and the output is written straight into NCHW.
void forward_gemm_packed(const Tensor& x, const Tensor& w, const Tensor& b, ConvSpec spec,
                         Tensor& y, ThreadPool& pool) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), iw = x.dim(3);
  const int oc = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int oh = out_dim(h, kh, spec.stride, spec.pad);
  const int ow = out_dim(iw, kw, spec.stride, spec.pad);
  const int m = n * oh * ow;     // im2col rows (output positions)
  const int k = c * kh * kw;     // im2col columns (kernel taps)
  const int stride = spec.stride, pad = spec.pad;

  // Tap tables, computed once so the packer's inner loop is divide-free:
  // column index kk -> (ky, kx) for the bounds checks, and the tap's offset
  // (channel*H + ky)*W + kx from its row's receptive-field origin.
  std::vector<int> tap_y(static_cast<std::size_t>(k)), tap_x(static_cast<std::size_t>(k));
  std::vector<std::ptrdiff_t> tap_off(static_cast<std::size_t>(k));
  for (int kk = 0; kk < k; ++kk) {
    const int ky = (kk / kw) % kh, kx = kk % kw;
    tap_y[static_cast<std::size_t>(kk)] = ky;
    tap_x[static_cast<std::size_t>(kk)] = kx;
    tap_off[static_cast<std::size_t>(kk)] =
        (static_cast<std::ptrdiff_t>(kk / (kh * kw)) * h + ky) * iw + kx;
  }

  const float* px = x.data();
  const float* pw = w.data();
  const float* pb = b.data();
  y.resize({n, oc, oh, ow});  // every element is stored by the first k-block
  float* py = y.data();
  const std::size_t plane = static_cast<std::size_t>(oh) * ow;

  // A-panel packer: fused im2col. Row i is output position (ni, oy, ox);
  // element (i, kk) is the input tap x[ni, c, oy*s+ky-p, ox*s+kx-p]. A row
  // whose receptive field lies inside the image gathers with no bounds
  // checks; a border row checks every tap and zero-fills the padding.
  const auto pack_a = [&](float* dst, int i0, int mh, int k0, int kc) {
    const std::ptrdiff_t* off = tap_off.data() + k0;
    const int* ty = tap_y.data() + k0;
    const int* tx = tap_x.data() + k0;
    const int mpanels = (mh + detail::kMR - 1) / detail::kMR;
    for (int ip = 0; ip < mpanels; ++ip) {
      float* panel = dst + static_cast<std::size_t>(ip) * kc * detail::kMR;
      for (int r = 0; r < detail::kMR; ++r) {
        const int i = i0 + ip * detail::kMR + r;
        if (i >= i0 + mh) {
          for (int kk = 0; kk < kc; ++kk) panel[kk * detail::kMR + r] = 0.0f;
          continue;
        }
        const int ni = i / (oh * ow);
        const int rem = i % (oh * ow);
        const int base_y = (rem / ow) * stride - pad;
        const int base_x = (rem % ow) * stride - pad;
        const float* xn = px + static_cast<std::size_t>(ni) * c * h * iw;
        const std::ptrdiff_t origin = static_cast<std::ptrdiff_t>(base_y) * iw + base_x;
        if (base_y >= 0 && base_y + kh <= h && base_x >= 0 && base_x + kw <= iw) {
          const float* src = xn + origin;
          for (int kk = 0; kk < kc; ++kk) panel[kk * detail::kMR + r] = src[off[kk]];
          continue;
        }
        for (int kk = 0; kk < kc; ++kk) {
          const int iy = base_y + ty[kk];
          const int ix = base_x + tx[kk];
          const bool in = static_cast<unsigned>(iy) < static_cast<unsigned>(h) &&
                          static_cast<unsigned>(ix) < static_cast<unsigned>(iw);
          panel[kk * detail::kMR + r] = in ? xn[origin + off[kk]] : 0.0f;
        }
      }
    }
  };

  // B-panel packer: W viewed as W'[k, oc] without materializing it —
  // W'(kk, j) = w[j, kk] in the flat [OC, CKK] layout.
  const auto pack_b = [&](float* dst, int k0, int kc, int j0, int nw) {
    const int npanels = (nw + detail::kNR - 1) / detail::kNR;
    for (int jp = 0; jp < npanels; ++jp) {
      float* panel = dst + static_cast<std::size_t>(jp) * kc * detail::kNR;
      const int jbase = j0 + jp * detail::kNR;
      const int width = std::min(detail::kNR, j0 + nw - jbase);
      for (int q = 0; q < width; ++q) {
        const float* src = pw + static_cast<std::size_t>(jbase + q) * k + k0;
        for (int kk = 0; kk < kc; ++kk) panel[kk * detail::kNR + q] = src[kk];
      }
      for (int kk = 0; kk < kc; ++kk)
        for (int q = width; q < detail::kNR; ++q) panel[kk * detail::kNR + q] = 0.0f;
    }
  };

  // Store epilogue: scatter the accumulator tile to NCHW (column j is output
  // channel j, stride one OH*OW plane) and fuse the bias add into the first
  // k-block's store.
  const auto store = [&](int i, int j, int mh, int nw, const float* acc, bool first) {
    for (int r = 0; r < mh; ++r) {
      const int row = i + r;
      const int ni = row / (oh * ow);
      const int rem = row % (oh * ow);
      float* base = py + (static_cast<std::size_t>(ni) * oc + j) * plane +
                    static_cast<std::size_t>(rem);
      const float* arow = acc + r * detail::kNR;
      if (first)
        for (int q = 0; q < nw; ++q) base[q * plane] = arow[q] + pb[j + q];
      else
        for (int q = 0; q < nw; ++q) base[q * plane] += arow[q];
    }
  };

  detail::packed_gemm(m, oc, k, pack_a, pack_b, store, pool);
}

/// The per-image backward pass; the dX GEMM and col2im run only when `dx`
/// is given. dW and db do not depend on whether they do.
void backward_gemm(const Tensor& x, const Tensor& w, const Tensor& dy, ConvSpec spec, Tensor* dx,
                   Tensor& dw, Tensor& db, ThreadPool& pool) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int oc = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int p = dy.dim(2) * dy.dim(3);  // output positions per image
  const int ckk = c * kh * kw;
  DNNPERF_TRACE_SPAN_VAR(span, "ref", "conv2d_bwd_gemm");
  if (span.active()) {
    span.set_args(std::move(util::trace::Args().add("n", n).add("c", c).add("oc", oc).add("k", kh))
                      .str());
    span.set_flops((dx != nullptr ? 2.0 : 1.0) * 2.0 * n * p * oc * ckk);  // dW (and dX) GEMMs
  }
  const std::size_t x_image = static_cast<std::size_t>(c) * h * ww;
  const std::size_t dy_image = static_cast<std::size_t>(oc) * p;
  const std::size_t w_size = static_cast<std::size_t>(oc) * ckk;

  // Per-image weight/bias gradients, summed in image order below so the
  // result is the same bits for any thread count. They belong to the
  // calling thread (the lambda below runs on workers), so a training loop
  // reuses them from step to step.
  thread_local Tensor tls_dw_parts, tls_db_parts;
  Tensor& dw_parts = tls_dw_parts;
  Tensor& db_parts = tls_db_parts;
  dw_parts.resize({n, static_cast<int>(w_size)});
  db_parts.resize({n, oc});
  if (dx != nullptr) dx->resize(x.shape());

  // Images are independent. The GEMMs inside run inline on this worker (the
  // pool's re-entrancy guard); with one image they run on the whole pool.
  pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t begin, std::size_t end) {
    // [P, CKK] each, per thread and only ever grown. They come from the
    // buffer cache, so a later pool's threads reuse an exited one's pages.
    thread_local ScratchBuffer cols, dcols;
    const std::size_t need = static_cast<std::size_t>(p) * ckk;
    if (cols.size() < need) cols = ScratchBuffer(need);
    if (dx != nullptr && dcols.size() < need) dcols = ScratchBuffer(need);
    for (std::size_t i = begin; i < end; ++i) {
      // NCHW dY is already [OC, P] per image.
      const float* dy_i = dy.data() + i * dy_image;
      im2col_image(x.data() + i * x_image, c, h, ww, kh, kw, spec.stride, spec.pad, cols.data());
      {  // dW_i [OC, CKK] = dY_i [OC, P] * cols [P, CKK]
        detail::GemmMetricsScope metrics_scope(oc, p, ckk);
        detail::gemm_packed(dy_i, cols.data(), dw_parts.data() + i * w_size, oc, p, ckk,
                            /*accumulate=*/false, pool);
      }
      for (int o = 0; o < oc; ++o) {
        const float* row = dy_i + static_cast<std::size_t>(o) * p;
        float sum = 0.0f;
        for (int q = 0; q < p; ++q) sum += row[q];
        db_parts[i * oc + static_cast<std::size_t>(o)] = sum;
      }
      if (dx == nullptr) continue;
      {  // dcols [P, CKK] = dY_i^T [P, OC] * W [OC, CKK]
        detail::GemmMetricsScope metrics_scope(p, oc, ckk);
        detail::gemm_at_packed(dy_i, w.data(), dcols.data(), p, oc, ckk, /*accumulate=*/false,
                               pool);
      }
      float* dx_i = dx->data() + i * x_image;
      std::fill(dx_i, dx_i + x_image, 0.0f);
      col2im_image(dcols.data(), c, h, ww, kh, kw, spec.stride, spec.pad, dx_i);
    }
  });

  dw.resize(w.shape());
  db.resize({oc});
  dw.zero();
  db.zero();
  for (int i = 0; i < n; ++i) {
    const float* dw_i = dw_parts.data() + static_cast<std::size_t>(i) * w_size;
    for (std::size_t j = 0; j < w_size; ++j) dw[j] += dw_i[j];
    const float* db_i = db_parts.data() + static_cast<std::size_t>(i) * oc;
    for (int o = 0; o < oc; ++o) db[static_cast<std::size_t>(o)] += db_i[o];
  }
}

}  // namespace

void conv2d_forward_gemm(const Tensor& x, const Tensor& w, const Tensor& b, ConvSpec spec,
                         Tensor& y, ThreadPool& pool) {
  if (x.rank() != 4 || w.rank() != 4) throw std::invalid_argument("conv_fast: rank-4 inputs");
  if (w.dim(1) != x.dim(1)) throw std::invalid_argument("conv_fast: channel mismatch");
  if (b.size() != static_cast<std::size_t>(w.dim(0)))
    throw std::invalid_argument("conv_fast: bias size");
  DNNPERF_TRACE_SPAN_VAR(span, "ref", "conv2d_fwd_gemm");
  if (span.active()) {
    const int oh = out_dim(x.dim(2), w.dim(2), spec.stride, spec.pad);
    const int ow = out_dim(x.dim(3), w.dim(3), spec.stride, spec.pad);
    span.set_args(std::move(util::trace::Args()
                                .add("n", x.dim(0))
                                .add("c", x.dim(1))
                                .add("hw", x.dim(2))
                                .add("oc", w.dim(0))
                                .add("k", w.dim(2)))
                      .str());
    span.set_flops(2.0 * x.dim(0) * oh * ow * w.dim(0) * x.dim(1) * w.dim(2) * w.dim(3));
  }
  forward_gemm_packed(x, w, b, spec, y, pool);
}

Tensor conv2d_forward_gemm(const Tensor& x, const Tensor& w, const Tensor& b, ConvSpec spec,
                           ThreadPool& pool) {
  Tensor y;
  conv2d_forward_gemm(x, w, b, spec, y, pool);
  return y;
}

void conv2d_backward_gemm(const Tensor& x, const Tensor& w, const Tensor& dy, ConvSpec spec,
                          Tensor& dx, Tensor& dw, Tensor& db, ThreadPool& pool) {
  backward_gemm(x, w, dy, spec, &dx, dw, db, pool);
}

void conv2d_backward_gemm_params(const Tensor& x, const Tensor& w, const Tensor& dy,
                                 ConvSpec spec, Tensor& dw, Tensor& db, ThreadPool& pool) {
  backward_gemm(x, w, dy, spec, nullptr, dw, db, pool);
}

}  // namespace dnnperf::ref
