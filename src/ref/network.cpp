#include "ref/network.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace dnnperf::ref {

namespace {

/// Generator seed of sample `index` of step `step`.
std::uint64_t sample_seed(std::uint64_t seed, std::uint64_t step, std::uint64_t index) {
  return util::mix64(util::mix64(util::mix64(seed) ^ step) ^ index);
}

/// Fills dst[0, count) with N(0,1) draws by Box-Muller, one (u1, u2) pair per
/// two outputs: the cos and the sin branch are both used.
void fill_normal(util::Rng& rng, float* dst, std::size_t count) {
  for (std::size_t j = 0; j < count; j += 2) {
    double u1 = rng.next_double();
    while (u1 <= 0.0) u1 = rng.next_double();  // guard against log(0)
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * rng.next_double();
    dst[j] = static_cast<float>(mag * std::cos(theta));
    if (j + 1 < count) dst[j + 1] = static_cast<float>(mag * std::sin(theta));
  }
}

}  // namespace

const Tensor& Network::forward(const Tensor& x) {
  input_ = x;  // copy-assignment reuses input_'s storage when it is big enough
  const Tensor* cur = &input_;
  largest_hidden_ = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) largest_hidden_ = std::max(largest_hidden_, cur->size());
    cur = &layers_[i]->forward(*cur);
  }
  return *cur;
}

void Network::backward(const Tensor& dy) {
  if (layers_.empty()) return;
  // Both gradient buffers get the largest input gradient's size before the
  // first layer writes, so neither grows (and reallocates) layer by layer.
  if (largest_hidden_ > 0)
    for (Tensor& g : grads_) g.resize({static_cast<int>(largest_hidden_)});
  const Tensor* cur = &dy;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    Tensor& dx = grads_[i % 2];
    layers_[i]->backward(*cur, dx);
    cur = &dx;
  }
  layers_.front()->backward_params(*cur);
}

std::vector<ParamRef> Network::params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_)
    for (auto& p : layer->params()) out.push_back(p);
  return out;
}

std::size_t Network::num_parameters() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->size();
  return n;
}

float Network::train_step(const Tensor& x, const std::vector<int>& labels) {
  const float loss = softmax_xent(forward(x), labels, dlogits_);
  backward(dlogits_);
  return loss;
}

void SgdOptimizer::step(const std::vector<ParamRef>& params) const {
  for (const auto& p : params)
    for (std::size_t i = 0; i < p.value->size(); ++i) (*p.value)[i] -= lr_ * (*p.grad)[i];
}

Network make_tiny_cnn(int in_c, int size, int classes, ThreadPool& pool, util::Rng& rng,
                      bool batch_norm) {
  Network net;
  net.add<Conv2dLayer>("conv1", in_c, 8, 3, ConvSpec{1, 1}, pool, rng);
  if (batch_norm) net.add<BatchNormLayer>("bn1", 8);
  net.add<ReLULayer>("relu1", pool);
  net.add<MaxPoolLayer>("pool1", 2, 2, pool);
  net.add<Conv2dLayer>("conv2", 8, 16, 3, ConvSpec{1, 1}, pool, rng);
  if (batch_norm) net.add<BatchNormLayer>("bn2", 16);
  net.add<ReLULayer>("relu2", pool);
  net.add<GlobalAvgPoolLayer>("gap");
  net.add<DenseLayer>("fc", 16, classes, pool, rng);
  (void)size;
  return net;
}

void synthetic_batch(std::uint64_t seed, int step, int first, int n, int c, int size,
                     int classes, ThreadPool& pool, SyntheticBatch& batch) {
  batch.images.resize({n, c, size, size});
  batch.labels.resize(static_cast<std::size_t>(n));
  const std::size_t per_image = static_cast<std::size_t>(c) * size * size;
  pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      util::Rng rng(sample_seed(seed, static_cast<std::uint64_t>(step),
                                static_cast<std::uint64_t>(first) + i));
      fill_normal(rng, batch.images.data() + i * per_image, per_image);
      batch.labels[i] = static_cast<int>(rng.uniform_int(0, classes - 1));
    }
  });
}

SyntheticBatch synthetic_batch(std::uint64_t seed, int step, int first, int n, int c, int size,
                               int classes, ThreadPool& pool) {
  SyntheticBatch batch;
  synthetic_batch(seed, step, first, n, c, size, classes, pool, batch);
  return batch;
}

}  // namespace dnnperf::ref
