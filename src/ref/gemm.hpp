// Single-precision GEMM and the im2col/col2im transforms — the standard
// lowering that turns convolution into matrix multiplication (what MKL-DNN
// and cuDNN-era frameworks actually execute, and the reason GEMM efficiency
// dominates the paper's kernel-efficiency calibration).
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

/// im2col: x [N,C,H,W] -> columns [N*OH*OW, C*KH*KW] for a kh x kw kernel
/// with the given stride/pad. Out-of-bounds taps produce zeros.
Tensor im2col(const Tensor& x, int kh, int kw, int stride, int pad, ThreadPool& pool);

/// col2im: scatter-add the column gradient back to input layout (inverse of
/// im2col for backward).
Tensor col2im(const Tensor& cols, int n, int c, int h, int w, int kh, int kw, int stride,
              int pad, ThreadPool& pool);

}  // namespace dnnperf::ref
