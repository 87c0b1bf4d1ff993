// refdnn numeric kernels: straightforward, correct fp32 implementations of
// the forward and backward ops the zoo models are made of. Parallelized
// over the output with ThreadPool::parallel_for. All tensors are NCHW.
//
// These are validated by finite-difference gradient checks in the tests and
// power the runnable training examples. The direct conv kernels are
// intentionally simple and serve as the numeric oracle for the GEMM-lowered
// conv in ref/conv_fast.hpp, which is what the conv layers run. Dense runs on
// the packed register-tiled GEMM in ref/gemm.hpp — see DESIGN.md §6 for
// measured GFLOP/s.
#pragma once

#include <vector>

#include "ref/tensor.hpp"
#include "ref/threadpool.hpp"

namespace dnnperf::ref {

struct ConvSpec {
  int stride = 1;
  int pad = 0;
};

/// y = conv2d(x [N,C,H,W], w [OC,C,KH,KW]) + b [OC]
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b, ConvSpec spec,
                      ThreadPool& pool);
/// Gradients wrt x, w, b given dy; x/w are the forward inputs.
void conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& dy, ConvSpec spec,
                     Tensor& dx, Tensor& dw, Tensor& db, ThreadPool& pool);

// Each kernel below writes into caller-owned outputs: they are resized to
// the result's shape (Tensor::resize keeps storage that is big enough) and
// fully overwritten, so a caller that keeps its outputs across steps
// allocates nothing. The value-returning forms wrap them.

/// y = x [N,F] * w [F,O] + b [O]
void dense_forward(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& y,
                   ThreadPool& pool);
Tensor dense_forward(const Tensor& x, const Tensor& w, const Tensor& b, ThreadPool& pool);
void dense_backward(const Tensor& x, const Tensor& w, const Tensor& dy, Tensor& dx, Tensor& dw,
                    Tensor& db, ThreadPool& pool);

void relu_forward(const Tensor& x, Tensor& y, ThreadPool& pool);
Tensor relu_forward(const Tensor& x, ThreadPool& pool);
/// dx = dy where x > 0.
void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx, ThreadPool& pool);
Tensor relu_backward(const Tensor& x, const Tensor& dy, ThreadPool& pool);

/// Max pooling; `argmax` (same shape as y) is produced for the backward
/// pass. Each entry is the winner's offset iy*W + ix inside its own (n, c)
/// plane of x, so it stays exact in a float up to 2^24-element planes
/// whatever the batch and channel count. The first strict maximum of a
/// window in (ky, kx) order wins; a NaN never wins.
void maxpool_forward(const Tensor& x, int k, int stride, Tensor& y, Tensor& argmax,
                     ThreadPool& pool);
Tensor maxpool_forward(const Tensor& x, int k, int stride, Tensor& argmax, ThreadPool& pool);
/// The backward needs only the input's shape.
void maxpool_backward(const std::vector<int>& x_shape, const Tensor& dy, const Tensor& argmax,
                      Tensor& dx, ThreadPool& pool);
Tensor maxpool_backward(const Tensor& x, const Tensor& dy, const Tensor& argmax,
                        ThreadPool& pool);

/// Global average pool: [N,C,H,W] -> [N,C].
void global_avg_pool_forward(const Tensor& x, Tensor& y);
Tensor global_avg_pool_forward(const Tensor& x);
void global_avg_pool_backward(const std::vector<int>& x_shape, const Tensor& dy, Tensor& dx);
Tensor global_avg_pool_backward(const Tensor& x, const Tensor& dy);

/// Batch normalization over (N,H,W) per channel, training mode.
struct BatchNormCache {
  Tensor x_hat;  ///< normalized input
  std::vector<float> inv_std;
};
void batchnorm_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps,
                       BatchNormCache& cache, Tensor& y);
Tensor batchnorm_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps,
                         BatchNormCache& cache);
void batchnorm_backward(const Tensor& dy, const BatchNormCache& cache, const Tensor& gamma,
                        Tensor& dx, Tensor& dgamma, Tensor& dbeta);

/// Mean softmax cross-entropy over the batch; logits [N,K], labels size N.
/// dlogits gets (softmax - onehot) / N.
float softmax_xent(const Tensor& logits, const std::vector<int>& labels, Tensor& dlogits);

}  // namespace dnnperf::ref
