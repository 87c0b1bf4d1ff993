// refdnn layers: stateful wrappers over the kernels with cached activations
// for backprop, exposing their parameters/gradients for the optimizer and
// for Horovod-style exchange.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ref/kernels.hpp"
#include "ref/tensor.hpp"
#include "ref/threadpool.hpp"
#include "util/rng.hpp"

namespace dnnperf::ref {

/// A named view of one parameter tensor and its gradient.
struct ParamRef {
  std::string name;
  Tensor* value;
  Tensor* grad;
};

class Layer {
 public:
  virtual ~Layer() = default;
  /// Training-mode forward; caches whatever backward needs.
  virtual Tensor forward(const Tensor& x) = 0;
  /// Gradient wrt the input; fills parameter gradients.
  virtual Tensor backward(const Tensor& dy) = 0;
  /// Fills parameter gradients only: the network's first layer, whose input
  /// gradient nothing consumes. Layers that can skip computing it override.
  virtual void backward_params(const Tensor& dy) { (void)backward(dy); }
  virtual std::vector<ParamRef> params() { return {}; }
  virtual std::string name() const = 0;
};

class Conv2dLayer : public Layer {
 public:
  Conv2dLayer(std::string name, int in_c, int out_c, int k, ConvSpec spec, ThreadPool& pool,
              util::Rng& rng);
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  void backward_params(const Tensor& dy) override;
  std::vector<ParamRef> params() override;
  std::string name() const override { return name_; }

  Tensor weight;
  Tensor bias;
  Tensor dweight;
  Tensor dbias;

 private:
  std::string name_;
  ConvSpec spec_;
  ThreadPool& pool_;
  Tensor input_;
};

class DenseLayer : public Layer {
 public:
  DenseLayer(std::string name, int in_f, int out_f, ThreadPool& pool, util::Rng& rng);
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<ParamRef> params() override;
  std::string name() const override { return name_; }

  Tensor weight;
  Tensor bias;
  Tensor dweight;
  Tensor dbias;

 private:
  std::string name_;
  ThreadPool& pool_;
  Tensor input_;
};

class ReLULayer : public Layer {
 public:
  ReLULayer(std::string name, ThreadPool& pool) : name_(std::move(name)), pool_(pool) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  ThreadPool& pool_;
  Tensor input_;
};

class MaxPoolLayer : public Layer {
 public:
  MaxPoolLayer(std::string name, int k, int stride, ThreadPool& pool)
      : name_(std::move(name)), k_(k), stride_(stride), pool_(pool) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  int k_;
  int stride_;
  ThreadPool& pool_;
  Tensor input_;
  Tensor argmax_;
};

class GlobalAvgPoolLayer : public Layer {
 public:
  explicit GlobalAvgPoolLayer(std::string name) : name_(std::move(name)) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Tensor input_;
};

class BatchNormLayer : public Layer {
 public:
  BatchNormLayer(std::string name, int channels, float eps = 1e-5f);
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<ParamRef> params() override;
  std::string name() const override { return name_; }

  Tensor gamma;
  Tensor beta;
  Tensor dgamma;
  Tensor dbeta;

 private:
  std::string name_;
  float eps_;
  BatchNormCache cache_;
};

/// [N,C,H,W] -> [N, C*H*W].
class FlattenLayer : public Layer {
 public:
  explicit FlattenLayer(std::string name) : name_(std::move(name)) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<int> input_shape_;
};

}  // namespace dnnperf::ref
