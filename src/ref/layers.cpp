#include "ref/layers.hpp"

#include <cmath>

#include "ref/conv_fast.hpp"

namespace dnnperf::ref {

Conv2dLayer::Conv2dLayer(std::string name, int in_c, int out_c, int k, ConvSpec spec,
                         ThreadPool& pool, util::Rng& rng)
    : name_(std::move(name)), spec_(spec), pool_(pool) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_c * k * k));
  weight = Tensor::randn({out_c, in_c, k, k}, rng, stddev);
  bias = Tensor::zeros({out_c});
  dweight = Tensor::zeros(weight.shape());
  dbias = Tensor::zeros(bias.shape());
}

Tensor Conv2dLayer::forward(const Tensor& x) {
  input_ = x;
  return conv2d_forward_gemm(x, weight, bias, spec_, pool_);
}

Tensor Conv2dLayer::backward(const Tensor& dy) {
  Tensor dx;
  conv2d_backward_gemm(input_, weight, dy, spec_, dx, dweight, dbias, pool_);
  return dx;
}

void Conv2dLayer::backward_params(const Tensor& dy) {
  conv2d_backward_gemm_params(input_, weight, dy, spec_, dweight, dbias, pool_);
}

std::vector<ParamRef> Conv2dLayer::params() {
  return {{name_ + "/w", &weight, &dweight}, {name_ + "/b", &bias, &dbias}};
}

DenseLayer::DenseLayer(std::string name, int in_f, int out_f, ThreadPool& pool, util::Rng& rng)
    : name_(std::move(name)), pool_(pool) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_f));
  weight = Tensor::randn({in_f, out_f}, rng, stddev);
  bias = Tensor::zeros({out_f});
  dweight = Tensor::zeros(weight.shape());
  dbias = Tensor::zeros(bias.shape());
}

Tensor DenseLayer::forward(const Tensor& x) {
  input_ = x;
  return dense_forward(x, weight, bias, pool_);
}

Tensor DenseLayer::backward(const Tensor& dy) {
  Tensor dx;
  dense_backward(input_, weight, dy, dx, dweight, dbias, pool_);
  return dx;
}

std::vector<ParamRef> DenseLayer::params() {
  return {{name_ + "/w", &weight, &dweight}, {name_ + "/b", &bias, &dbias}};
}

Tensor ReLULayer::forward(const Tensor& x) {
  input_ = x;
  return relu_forward(x, pool_);
}

Tensor ReLULayer::backward(const Tensor& dy) { return relu_backward(input_, dy, pool_); }

Tensor MaxPoolLayer::forward(const Tensor& x) {
  input_ = x;
  return maxpool_forward(x, k_, stride_, argmax_, pool_);
}

Tensor MaxPoolLayer::backward(const Tensor& dy) {
  return maxpool_backward(input_, dy, argmax_, pool_);
}

Tensor GlobalAvgPoolLayer::forward(const Tensor& x) {
  input_ = x;
  return global_avg_pool_forward(x);
}

Tensor GlobalAvgPoolLayer::backward(const Tensor& dy) {
  return global_avg_pool_backward(input_, dy);
}

BatchNormLayer::BatchNormLayer(std::string name, int channels, float eps)
    : name_(std::move(name)), eps_(eps) {
  gamma = Tensor::zeros({channels});
  gamma.fill(1.0f);
  beta = Tensor::zeros({channels});
  dgamma = Tensor::zeros({channels});
  dbeta = Tensor::zeros({channels});
}

Tensor BatchNormLayer::forward(const Tensor& x) {
  return batchnorm_forward(x, gamma, beta, eps_, cache_);
}

Tensor BatchNormLayer::backward(const Tensor& dy) {
  Tensor dx;
  batchnorm_backward(dy, cache_, gamma, dx, dgamma, dbeta);
  return dx;
}

std::vector<ParamRef> BatchNormLayer::params() {
  return {{name_ + "/gamma", &gamma, &dgamma}, {name_ + "/beta", &beta, &dbeta}};
}

Tensor FlattenLayer::forward(const Tensor& x) {
  input_shape_ = x.shape();
  const int n = x.dim(0);
  return x.reshaped({n, static_cast<int>(x.size()) / n});
}

Tensor FlattenLayer::backward(const Tensor& dy) { return dy.reshaped(input_shape_); }

}  // namespace dnnperf::ref
