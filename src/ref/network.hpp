// refdnn Network: a sequential container with a training step (forward,
// softmax cross-entropy, backward) and a plain SGD optimizer — the real
// executable counterpart of the training loop the performance model times —
// plus its synthetic input. Each synthetic sample is generated from its own
// counter-based seed, so a data-parallel rank builds only its own shard.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ref/layers.hpp"

namespace dnnperf::ref {

class Network {
 public:
  /// Adds a layer; returns a reference for optional direct access.
  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  /// Copies x into the network's input buffer and runs every layer. The
  /// result is the last layer's output buffer, valid until the next forward.
  const Tensor& forward(const Tensor& x);
  /// Backpropagates dy through all layers, filling parameter gradients. The
  /// layers' input gradients alternate between two buffers the network
  /// owns, so dy must not be one of them. The first layer computes no input
  /// gradient (Layer::backward_params).
  void backward(const Tensor& dy);

  std::vector<ParamRef> params();
  std::size_t num_layers() const { return layers_.size(); }
  std::size_t num_parameters();

  /// One training step: forward, mean softmax cross-entropy against labels,
  /// backward. Returns the loss; gradients are left in the layers.
  float train_step(const Tensor& x, const std::vector<int>& labels);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Every buffer below is resized in place, so a step whose shapes match
  // the previous one allocates nothing. The first layer keeps a pointer to
  // input_, so a network must not be moved between forward and backward.
  Tensor input_;
  Tensor grads_[2];
  Tensor dlogits_;
  std::size_t largest_hidden_ = 0;  ///< elements of the largest layer input but the first
};

/// Plain SGD: p -= lr * g for every parameter.
class SgdOptimizer {
 public:
  explicit SgdOptimizer(float lr) : lr_(lr) {}
  void step(const std::vector<ParamRef>& params) const;
  float learning_rate() const { return lr_; }

 private:
  float lr_;
};

/// A small conv net (conv[-bn]-relu-pool x2, dense head) for tests/examples:
/// input [N, in_c, size, size], `classes` outputs. Note that with
/// batch_norm=true, data-parallel training is no longer bitwise equivalent
/// to single-process training (BN statistics are per-shard, as in the real
/// frameworks); pass false where exact SP==MP equivalence is asserted.
Network make_tiny_cnn(int in_c, int size, int classes, ThreadPool& pool, util::Rng& rng,
                      bool batch_norm = true);

/// Deterministic synthetic dataset (the pytorch_synthetic_benchmark
/// equivalent): N(0,1) images and uniform labels.
struct SyntheticBatch {
  Tensor images;
  std::vector<int> labels;
};

/// Samples [first, first + n) of step `step`'s global batch. Sample i of
/// step s draws its pixels and then its label from its own generator, seeded
/// from (seed, s, i), so a rank builds its shard without generating the rest
/// of the batch, and the bits do not depend on the rank count or the pool
/// size. The samples are synthesized in parallel on `pool` into `out`,
/// whose buffers are reused when they are big enough.
void synthetic_batch(std::uint64_t seed, int step, int first, int n, int c, int size,
                     int classes, ThreadPool& pool, SyntheticBatch& out);
SyntheticBatch synthetic_batch(std::uint64_t seed, int step, int first, int n, int c, int size,
                               int classes, ThreadPool& pool);

}  // namespace dnnperf::ref
