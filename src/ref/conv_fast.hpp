// GEMM-lowered convolution: the path MKL-DNN-era frameworks execute.
// Numerically equivalent to the direct kernels in ref/kernels.hpp (tests
// enforce <= 1e-4 max deviation) but structured as matrix multiplication.
// With P = OH*OW output positions per image and X_i, dY_i image i:
//
//   forward:  Y[N*P, OC]   = im2col(X) * W'[CKK, OC]           (+ bias)
//   dW:       dW[OC, CKK]  = sum_i dY_i[OC, P] * im2col(X_i)[P, CKK]
//   dX_i:     col2im( dY_i^T[P, OC] * W[OC, CKK] )
//
// The forward pass is an *implicit* GEMM: the im2col matrix is never
// materialized. Each thread packs one MC x KC panel of it at
// a time straight from the NCHW input (computing the kernel-tap addressing
// on the fly), the bias add is fused into the microkernel store epilogue,
// and the output is written directly in NCHW layout — peak extra memory is
// one MC x KC + KC x NC panel pair per thread. The backward pass runs
// image by image in parallel: each thread lowers one image into a
// thread-local [P, CKK] buffer and runs that image's two GEMMs inline (NCHW
// dY_i already is [OC, P], so nothing is transposed). Per-image dW and db
// are summed in image order, so the gradients are the same bits for any
// thread count. A network's first layer needs no dX (nothing consumes the
// gradient with respect to the data), so conv2d_backward_gemm_params skips
// the dX GEMM and the col2im.
#pragma once

#include "ref/gemm.hpp"
#include "ref/kernels.hpp"

namespace dnnperf::ref {

/// Forward convolution via implicit im2col + GEMM into `y` (resized, fully
/// overwritten). Same contract as conv2d_forward.
void conv2d_forward_gemm(const Tensor& x, const Tensor& w, const Tensor& b, ConvSpec spec,
                         Tensor& y, ThreadPool& pool);
Tensor conv2d_forward_gemm(const Tensor& x, const Tensor& w, const Tensor& b, ConvSpec spec,
                           ThreadPool& pool);

/// Backward convolution via GEMMs. Same contract as conv2d_backward; dx, dw
/// and db are resized, so buffers kept across calls are reused.
void conv2d_backward_gemm(const Tensor& x, const Tensor& w, const Tensor& dy, ConvSpec spec,
                          Tensor& dx, Tensor& dw, Tensor& db, ThreadPool& pool);

/// conv2d_backward_gemm without the input gradient: only dw and db, the same
/// bits as the full call's.
void conv2d_backward_gemm_params(const Tensor& x, const Tensor& w, const Tensor& dy,
                                 ConvSpec spec, Tensor& dw, Tensor& db, ThreadPool& pool);

}  // namespace dnnperf::ref
