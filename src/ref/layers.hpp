// refdnn layers: stateful wrappers over the kernels with cached activations
// for backprop, exposing their parameters/gradients for the optimizer and
// for Horovod-style exchange.
//
// Buffer ownership: each layer owns its forward output and returns a
// reference to it, valid until the layer's next forward; the buffer is
// resized in place, so from the second step on a forward allocates nothing.
// A layer whose backward needs its input keeps a pointer to it, not a copy:
// the input must stay alive and unchanged until the matching backward (in
// a Network it is the previous layer's output or the network's own input
// copy). Max pool, global average pool and flatten keep only its shape.
// backward writes the input gradient into a caller-owned buffer, which
// Network alternates between two.
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
  /// Training-mode forward; remembers whatever backward needs. The result
  /// is the layer's own buffer, valid until its next forward.
  virtual const Tensor& forward(const Tensor& x) = 0;
  /// Writes the gradient wrt the input into `dx` (resized; must not alias
  /// `dy`) and fills the parameter gradients.
  virtual void backward(const Tensor& dy, Tensor& dx) = 0;
  /// Fills parameter gradients only: the network's first layer, whose input
  /// gradient nothing consumes. Layers that can skip computing it override.
  virtual void backward_params(const Tensor& dy) {
    Tensor dx;
    backward(dy, dx);
  }
  virtual std::vector<ParamRef> params() { return {}; }
  virtual std::string name() const = 0;
};

class Conv2dLayer : public Layer {
 public:
  Conv2dLayer(std::string name, int in_c, int out_c, int k, ConvSpec spec, ThreadPool& pool,
              util::Rng& rng);
  const Tensor& forward(const Tensor& x) override;
  void backward(const Tensor& dy, Tensor& dx) override;
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
  const Tensor* input_ = nullptr;
  Tensor y_;
};

class DenseLayer : public Layer {
 public:
  DenseLayer(std::string name, int in_f, int out_f, ThreadPool& pool, util::Rng& rng);
  const Tensor& forward(const Tensor& x) override;
  void backward(const Tensor& dy, Tensor& dx) override;
  std::vector<ParamRef> params() override;
  std::string name() const override { return name_; }

  Tensor weight;
  Tensor bias;
  Tensor dweight;
  Tensor dbias;

 private:
  std::string name_;
  ThreadPool& pool_;
  const Tensor* input_ = nullptr;
  Tensor y_;
};

class ReLULayer : public Layer {
 public:
  ReLULayer(std::string name, ThreadPool& pool) : name_(std::move(name)), pool_(pool) {}
  const Tensor& forward(const Tensor& x) override;
  void backward(const Tensor& dy, Tensor& dx) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  ThreadPool& pool_;
  const Tensor* input_ = nullptr;
  Tensor y_;
};

class MaxPoolLayer : public Layer {
 public:
  MaxPoolLayer(std::string name, int k, int stride, ThreadPool& pool)
      : name_(std::move(name)), k_(k), stride_(stride), pool_(pool) {}
  const Tensor& forward(const Tensor& x) override;
  void backward(const Tensor& dy, Tensor& dx) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  int k_;
  int stride_;
  ThreadPool& pool_;
  std::vector<int> input_shape_;
  Tensor y_;
  Tensor argmax_;
};

class GlobalAvgPoolLayer : public Layer {
 public:
  explicit GlobalAvgPoolLayer(std::string name) : name_(std::move(name)) {}
  const Tensor& forward(const Tensor& x) override;
  void backward(const Tensor& dy, Tensor& dx) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<int> input_shape_;
  Tensor y_;
};

class BatchNormLayer : public Layer {
 public:
  BatchNormLayer(std::string name, int channels, float eps = 1e-5f);
  const Tensor& forward(const Tensor& x) override;
  void backward(const Tensor& dy, Tensor& dx) override;
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
  Tensor y_;
};

/// [N,C,H,W] -> [N, C*H*W].
class FlattenLayer : public Layer {
 public:
  explicit FlattenLayer(std::string name) : name_(std::move(name)) {}
  const Tensor& forward(const Tensor& x) override;
  void backward(const Tensor& dy, Tensor& dx) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<int> input_shape_;
  Tensor y_;
};

}  // namespace dnnperf::ref
