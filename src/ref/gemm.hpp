// Single-precision GEMM and the per-image im2col/col2im transforms — the
// standard lowering that turns convolution into matrix multiplication (what
// MKL-DNN and cuDNN-era frameworks actually execute, and the reason GEMM
// efficiency dominates the paper's kernel-efficiency calibration). The
// transforms work on one image at a time: the conv backward pass lowers each
// image into a per-thread [OH*OW, C*KH*KW] buffer, never a batch-sized one.
//
// The GEMM is BLIS-style: packed panels + a register-tiled microkernel (see
// ref/gemm_packed.hpp), parallel over the MC x NC macro-tile grid. Tests
// check it against a naive triple loop and the direct conv kernels.
#pragma once

#include "ref/tensor.hpp"
#include "ref/threadpool.hpp"

namespace dnnperf::ref {

/// C[m,n] = A[m,k] * B[k,n] (+ C if accumulate). All matrices dense
/// row-major.
void gemm(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool& pool,
          bool accumulate = false);

/// C[m,n] = A^T[k,m]^T * B[k,n]: multiplies using A stored transposed
/// (k-major) — used for the weight-gradient GEMM.
void gemm_at(const Tensor& a_t, const Tensor& b, Tensor& c, ThreadPool& pool,
             bool accumulate = false);

/// im2col of one image: x [C,H,W] -> cols [OH*OW, C*KH*KW] (row-major, one
/// row per output position, columns in (channel, ky, kx) order) for a
/// kh x kw kernel with the given stride/pad. Out-of-bounds taps produce
/// zeros. `cols` must hold OH*OW*C*KH*KW floats.
void im2col_image(const float* x, int c, int h, int w, int kh, int kw, int stride, int pad,
                  float* cols);

/// col2im of one image, the adjoint of im2col_image: scatter-adds the
/// column gradient cols [OH*OW, C*KH*KW] into x [C,H,W]. `x` is accumulated
/// into, not cleared.
void col2im_image(const float* cols, int c, int h, int w, int kh, int kw, int stride, int pad,
                  float* x);

}  // namespace dnnperf::ref
