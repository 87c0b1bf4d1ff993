#include <gtest/gtest.h>

#include <cmath>

#include "ref/network.hpp"
#include "ref/optimizers.hpp"

namespace dnnperf::ref {
namespace {

/// One scalar parameter with an externally controlled gradient.
struct Scalar {
  Tensor value = Tensor({1});
  Tensor grad = Tensor({1});
  std::vector<ParamRef> params() { return {{"w", &value, &grad}}; }
};

TEST(MomentumSgd, ZeroMomentumIsPlainSgd) {
  Scalar s;
  s.value[0] = 1.0f;
  s.grad[0] = 0.5f;
  MomentumSgd opt(0.1f, 0.0f);
  opt.step(s.params());
  EXPECT_NEAR(s.value[0], 1.0f - 0.1f * 0.5f, 1e-7f);
}

TEST(MomentumSgd, VelocityAccumulates) {
  Scalar s;
  s.value[0] = 0.0f;
  s.grad[0] = 1.0f;
  MomentumSgd opt(0.1f, 0.9f);
  // v1 = 1, p -= 0.1; v2 = 1.9, p -= 0.19.
  opt.step(s.params());
  EXPECT_NEAR(s.value[0], -0.1f, 1e-7f);
  opt.step(s.params());
  EXPECT_NEAR(s.value[0], -0.1f - 0.19f, 1e-6f);
}

TEST(MomentumSgd, RejectsBadHyperparameters) {
  EXPECT_THROW(MomentumSgd(0.0f, 0.9f), std::invalid_argument);
  EXPECT_THROW(MomentumSgd(0.1f, 1.0f), std::invalid_argument);
  EXPECT_THROW(MomentumSgd(0.1f, -0.1f), std::invalid_argument);
}

TEST(Adam, FirstStepIsSignedLearningRate) {
  // With bias correction, the first Adam step is ~ -lr * sign(g).
  Scalar s;
  s.value[0] = 0.0f;
  s.grad[0] = 3.7f;
  Adam opt(0.01f);
  opt.step(s.params());
  EXPECT_NEAR(s.value[0], -0.01f, 1e-4f);
  EXPECT_EQ(opt.steps_taken(), 1);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2; gradient = 2(w - 3).
  Scalar s;
  s.value[0] = 0.0f;
  Adam opt(0.1f);
  for (int i = 0; i < 300; ++i) {
    s.grad[0] = 2.0f * (s.value[0] - 3.0f);
    opt.step(s.params());
  }
  EXPECT_NEAR(s.value[0], 3.0f, 0.05f);
}

TEST(Adam, RejectsBadHyperparameters) {
  EXPECT_THROW(Adam(-0.1f), std::invalid_argument);
  EXPECT_THROW(Adam(0.1f, 1.0f), std::invalid_argument);
}

TEST(Optimizers, DetectShapeChanges) {
  Scalar s;
  MomentumSgd opt(0.1f, 0.9f);
  opt.step(s.params());
  Tensor bigger({2});
  Tensor bigger_grad({2});
  std::vector<ParamRef> changed{{"w", &bigger, &bigger_grad}};
  EXPECT_THROW(opt.step(changed), std::invalid_argument);
}

TEST(Optimizers, TrainTinyCnnWithMomentumAndAdam) {
  for (int which : {0, 1}) {
    ThreadPool pool(2);
    util::Rng rng(21);
    Network net = make_tiny_cnn(3, 8, 4, pool, rng);
    const auto batch = synthetic_batch(22, 0, 0, 8, 3, 8, 4, pool);
    MomentumSgd momentum(0.05f, 0.9f);
    Adam adam(0.01f);
    const float first = net.train_step(batch.images, batch.labels);
    float last = first;
    for (int i = 0; i < 12; ++i) {
      last = net.train_step(batch.images, batch.labels);
      if (which == 0)
        momentum.step(net.params());
      else
        adam.step(net.params());
    }
    EXPECT_LT(last, first) << (which == 0 ? "momentum" : "adam");
  }
}

}  // namespace
}  // namespace dnnperf::ref
