#include "ref/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

const Tensor& Conv2dLayer::forward(const Tensor& x) {
  input_ = &x;
  conv2d_forward_gemm(x, weight, bias, spec_, y_, pool_);
  return y_;
}

void Conv2dLayer::backward(const Tensor& dy, Tensor& dx) {
  conv2d_backward_gemm(*input_, weight, dy, spec_, dx, dweight, dbias, pool_);
}

void Conv2dLayer::backward_params(const Tensor& dy) {
  conv2d_backward_gemm_params(*input_, weight, dy, spec_, dweight, dbias, pool_);
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

const Tensor& DenseLayer::forward(const Tensor& x) {
  input_ = &x;
  dense_forward(x, weight, bias, y_, pool_);
  return y_;
}

void DenseLayer::backward(const Tensor& dy, Tensor& dx) {
  dense_backward(*input_, weight, dy, dx, dweight, dbias, pool_);
}

std::vector<ParamRef> DenseLayer::params() {
  return {{name_ + "/w", &weight, &dweight}, {name_ + "/b", &bias, &dbias}};
}

const Tensor& ReLULayer::forward(const Tensor& x) {
  input_ = &x;
  relu_forward(x, y_, pool_);
  return y_;
}

void ReLULayer::backward(const Tensor& dy, Tensor& dx) { relu_backward(*input_, dy, dx, pool_); }

const Tensor& MaxPoolLayer::forward(const Tensor& x) {
  input_shape_ = x.shape();
  maxpool_forward(x, k_, stride_, y_, argmax_, pool_);
  return y_;
}

void MaxPoolLayer::backward(const Tensor& dy, Tensor& dx) {
  maxpool_backward(input_shape_, dy, argmax_, dx, pool_);
}

const Tensor& GlobalAvgPoolLayer::forward(const Tensor& x) {
  input_shape_ = x.shape();
  global_avg_pool_forward(x, y_);
  return y_;
}

void GlobalAvgPoolLayer::backward(const Tensor& dy, Tensor& dx) {
  global_avg_pool_backward(input_shape_, dy, dx);
}

BatchNormLayer::BatchNormLayer(std::string name, int channels, float eps)
    : name_(std::move(name)), eps_(eps) {
  gamma = Tensor::zeros({channels});
  gamma.fill(1.0f);
  beta = Tensor::zeros({channels});
  dgamma = Tensor::zeros({channels});
  dbeta = Tensor::zeros({channels});
}

const Tensor& BatchNormLayer::forward(const Tensor& x) {
  batchnorm_forward(x, gamma, beta, eps_, cache_, y_);
  return y_;
}

void BatchNormLayer::backward(const Tensor& dy, Tensor& dx) {
  batchnorm_backward(dy, cache_, gamma, dx, dgamma, dbeta);
}

std::vector<ParamRef> BatchNormLayer::params() {
  return {{name_ + "/gamma", &gamma, &dgamma}, {name_ + "/beta", &beta, &dbeta}};
}

const Tensor& FlattenLayer::forward(const Tensor& x) {
  input_shape_ = x.shape();
  const int n = x.dim(0);
  y_.resize({n, static_cast<int>(x.size()) / n});
  std::copy(x.data(), x.data() + x.size(), y_.data());
  return y_;
}

void FlattenLayer::backward(const Tensor& dy, Tensor& dx) {
  dx.resize(input_shape_);
  if (dx.size() != dy.size()) throw std::invalid_argument("FlattenLayer: gradient size");
  std::copy(dy.data(), dy.data() + dy.size(), dx.data());
}

}  // namespace dnnperf::ref
