#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ref/kernels.hpp"
#include "ref/network.hpp"
#include "ref/tensor.hpp"
#include "ref/threadpool.hpp"
#include "util/metrics.hpp"

namespace dnnperf::ref {
namespace {

// ---------------------------------------------------------------------------
// Tensor
// ---------------------------------------------------------------------------

TEST(Tensor, ConstructionAndIndexing) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.size(), 120u);
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t[119], 7.0f);
  EXPECT_THROW(Tensor({0, 1}), std::invalid_argument);
  EXPECT_THROW(Tensor(std::vector<int>{}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  const Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r[11], 11.0f);
  EXPECT_THROW(t.reshaped({5, 5}), std::invalid_argument);
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a({4}), b({4});
  a[2] = 1.0f;
  b[2] = -1.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 2.5f);
  Tensor c({5});
  EXPECT_THROW(max_abs_diff(a, c), std::invalid_argument);
}

TEST(Tensor, ResizeKeepsStorageThatIsBigEnough) {
  Tensor t({4, 8, 32, 32});
  const float* storage = t.data();
  t.resize({4, 8, 16, 16});
  EXPECT_EQ(t.data(), storage);
  EXPECT_EQ(t.shape(), (std::vector<int>{4, 8, 16, 16}));
  EXPECT_EQ(t.size(), 4u * 8 * 16 * 16);
  t.resize(std::vector<int>{4, 8, 32, 32});
  EXPECT_EQ(t.data(), storage);
  t.resize({4, 8, 32, 33});
  EXPECT_EQ(t.size(), 4u * 8 * 32 * 33);
  EXPECT_THROW(t.resize({0, 1}), std::invalid_argument);
  EXPECT_THROW(t.resize({1, 1, 1, 1, 1}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TensorCache: the process-wide storage cache behind Tensor
// ---------------------------------------------------------------------------

/// Bytes handed out or cached must never exceed the high-water mark of
/// bytes handed out.
void expect_within_peak(const char* when) {
  const auto s = tensor_cache::stats();
  EXPECT_LE(s.live_bytes + s.cached_bytes, s.peak_live_bytes) << when;
}

TEST(TensorCache, FreedBufferComesBackForTheSameSize) {
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  void* p = tensor_cache::take(kBytes);
  static_cast<float*>(p)[0] = 1.0f;
  tensor_cache::give(p, kBytes);
  void* q = tensor_cache::take(kBytes);
  EXPECT_EQ(q, p);
  tensor_cache::give(q, kBytes);
}

TEST(TensorCache, SmallBuffersBypassTheCache) {
  const auto before = tensor_cache::stats();
  void* p = tensor_cache::take(tensor_cache::kMinBytes - 4);
  EXPECT_EQ(tensor_cache::stats().live_bytes, before.live_bytes);
  tensor_cache::give(p, tensor_cache::kMinBytes - 4);
  EXPECT_EQ(tensor_cache::stats().cached_bytes, before.cached_bytes);
}

TEST(TensorCache, FreshAllocationEvictsOtherSizesFirst) {
  // A buffer bigger than any earlier peak evicts everything cached and,
  // once freed, fills the cache up to the new peak. A fresh buffer of
  // another size must then evict it; once the cache is below the peak,
  // another fresh size evicts nothing.
  const std::size_t big = tensor_cache::stats().peak_live_bytes + (std::size_t{1} << 20);
  void* a = tensor_cache::take(big);
  EXPECT_EQ(tensor_cache::stats().cached_bytes, 0u);
  tensor_cache::give(a, big);
  EXPECT_EQ(tensor_cache::stats().cached_bytes, big);
  constexpr std::size_t kB = tensor_cache::kMinBytes + 8, kC = 2 * tensor_cache::kMinBytes + 8;
  void* b = tensor_cache::take(kB);
  EXPECT_EQ(tensor_cache::stats().cached_bytes, 0u) << "the big buffer must go first";
  tensor_cache::give(b, kB);
  EXPECT_EQ(tensor_cache::stats().cached_bytes, kB);
  void* c = tensor_cache::take(kC);
  EXPECT_EQ(tensor_cache::stats().cached_bytes, kB) << "evicted more than the bound requires";
  tensor_cache::give(c, kC);
  expect_within_peak("after the sequence");
}

TEST(TensorCache, LivePlusCachedNeverExceedsThePeak) {
  // A seeded sweep of takes and gives over mixed sizes, some repeated and
  // some new, with the bound checked after every operation.
  const std::size_t sizes[] = {tensor_cache::kMinBytes, 96 * 1024, 256 * 1024 + 4,
                               std::size_t{1} << 20, (std::size_t{2} << 20) + 8};
  util::Rng rng(17);
  std::vector<std::pair<void*, std::size_t>> held;
  const std::size_t live_before = tensor_cache::stats().live_bytes;
  for (int op = 0; op < 400; ++op) {
    if (held.empty() || rng.uniform_int(0, 2) != 0) {
      const std::size_t bytes = sizes[static_cast<std::size_t>(rng.uniform_int(0, 4))];
      held.emplace_back(tensor_cache::take(bytes), bytes);
    } else {
      const auto last = static_cast<std::int64_t>(held.size()) - 1;
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, last));
      tensor_cache::give(held[i].first, held[i].second);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    }
    expect_within_peak("after a take or give");
    if (held.size() > 12) {
      for (const auto& [p, bytes] : held) tensor_cache::give(p, bytes);
      held.clear();
      expect_within_peak("after giving everything back");
    }
  }
  for (const auto& [p, bytes] : held) tensor_cache::give(p, bytes);
  EXPECT_EQ(tensor_cache::stats().live_bytes, live_before);
  expect_within_peak("at the end");
}

TEST(TensorCache, ConcurrentTakeAndGive) {
  // Four threads take, write, check and give buffers of shared sizes, so
  // buffers move between threads through the cache.
  const std::size_t sizes[] = {tensor_cache::kMinBytes, 200 * 1024, std::size_t{1} << 20};
  const std::size_t live_before = tensor_cache::stats().live_bytes;
  std::atomic<int> corrupted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const std::size_t bytes = sizes[static_cast<std::size_t>(t + i) % 3];
        auto* p = static_cast<float*>(tensor_cache::take(bytes));
        const std::size_t last = bytes / sizeof(float) - 1;
        const float mark = static_cast<float>(t * 1000 + i);
        p[0] = p[last] = mark;
        std::this_thread::yield();  // a buffer handed out twice shows here
        if (p[0] != mark || p[last] != mark) ++corrupted;
        tensor_cache::give(p, bytes);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(corrupted.load(), 0);
  EXPECT_EQ(tensor_cache::stats().live_bytes, live_before);
  expect_within_peak("after the threads joined");
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t b, std::size_t e) { sum += e - b; });
    ASSERT_EQ(sum.load(), 100u);
  }
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t b, std::size_t) {
                                   if (b == 0) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool must still be usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(5, [&](std::size_t b, std::size_t e) { count += static_cast<int>(e - b); });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, ReentrantParallelForRunsSerially) {
  // A body dispatching parallel_for on its own pool (e.g. a traced kernel
  // calling another parallel kernel) must not touch the shared dispatch
  // state mid-flight; the nested call runs serially in the calling worker.
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      std::size_t inner_calls = 0;
      pool.parallel_for(32, [&](std::size_t ib, std::size_t ie) {
        ++inner_calls;
        total += ie - ib;
      });
      // Serial execution: the nested call sees the whole range at once.
      EXPECT_EQ(inner_calls, 1u);
    }
  });
  EXPECT_EQ(total.load(), 64u * 32u);

  // A *different* pool inside the body is legitimate nesting and stays
  // parallel (each pool still takes one dispatcher at a time, hence the lock).
  ThreadPool inner_pool(2);
  std::mutex dispatch_mutex;
  std::atomic<std::size_t> cross{0};
  pool.parallel_for(8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      std::lock_guard<std::mutex> lock(dispatch_mutex);
      inner_pool.parallel_for(16, [&](std::size_t ib, std::size_t ie) { cross += ie - ib; });
    }
  });
  EXPECT_EQ(cross.load(), 8u * 16u);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int calls = 0;
  pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 10u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checks
// ---------------------------------------------------------------------------

/// Numerically checks dL/dx for a scalar loss L = sum(w_out * f(x)) where
/// w_out is a fixed random cotangent. `forward` must be pure in x.
void grad_check(Tensor& x, const Tensor& analytic_dx,
                const std::function<Tensor(const Tensor&)>& forward, const Tensor& cotangent,
                float tol = 2e-2f) {
  const float eps = 1e-2f;
  util::Rng rng(5);
  // Spot-check a sample of coordinates (full sweep is O(n^2)).
  const std::size_t checks = std::min<std::size_t>(x.size(), 24);
  for (std::size_t k = 0; k < checks; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(x.size()) - 1));
    const float orig = x[i];
    x[i] = orig + eps;
    const Tensor up = forward(x);
    x[i] = orig - eps;
    const Tensor down = forward(x);
    x[i] = orig;
    double loss_up = 0.0, loss_down = 0.0;
    for (std::size_t j = 0; j < up.size(); ++j) {
      loss_up += up[j] * cotangent[j];
      loss_down += down[j] * cotangent[j];
    }
    const double numeric = (loss_up - loss_down) / (2.0 * eps);
    EXPECT_NEAR(analytic_dx[i], numeric, tol * std::max(1.0, std::fabs(numeric)))
        << "coordinate " << i;
  }
}

TEST(GradCheck, Conv2dInputWeightBias) {
  ThreadPool pool(2);
  util::Rng rng(1);
  Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
  Tensor w = Tensor::randn({4, 3, 3, 3}, rng, 0.5f);
  Tensor b = Tensor::randn({4}, rng, 0.1f);
  const ConvSpec spec{1, 1};

  const Tensor y = conv2d_forward(x, w, b, spec, pool);
  Tensor cot = Tensor::randn(y.shape(), rng);
  Tensor dx, dw, db;
  conv2d_backward(x, w, cot, spec, dx, dw, db, pool);

  grad_check(x, dx, [&](const Tensor& xx) { return conv2d_forward(xx, w, b, spec, pool); }, cot);
  grad_check(w, dw, [&](const Tensor& ww) { return conv2d_forward(x, ww, b, spec, pool); }, cot);
  grad_check(b, db, [&](const Tensor& bb) { return conv2d_forward(x, w, bb, spec, pool); }, cot);
}

TEST(GradCheck, Conv2dStrided) {
  ThreadPool pool(2);
  util::Rng rng(2);
  Tensor x = Tensor::randn({1, 2, 7, 7}, rng);
  Tensor w = Tensor::randn({3, 2, 3, 3}, rng, 0.5f);
  Tensor b = Tensor::zeros({3});
  const ConvSpec spec{2, 0};
  const Tensor y = conv2d_forward(x, w, b, spec, pool);
  EXPECT_EQ(y.dim(2), 3);
  Tensor cot = Tensor::randn(y.shape(), rng);
  Tensor dx, dw, db;
  conv2d_backward(x, w, cot, spec, dx, dw, db, pool);
  grad_check(x, dx, [&](const Tensor& xx) { return conv2d_forward(xx, w, b, spec, pool); }, cot);
  grad_check(w, dw, [&](const Tensor& ww) { return conv2d_forward(x, ww, b, spec, pool); }, cot);
}

TEST(GradCheck, Dense) {
  ThreadPool pool(2);
  util::Rng rng(3);
  Tensor x = Tensor::randn({4, 6}, rng);
  Tensor w = Tensor::randn({6, 5}, rng, 0.5f);
  Tensor b = Tensor::randn({5}, rng, 0.1f);
  const Tensor y = dense_forward(x, w, b, pool);
  Tensor cot = Tensor::randn(y.shape(), rng);
  Tensor dx, dw, db;
  dense_backward(x, w, cot, dx, dw, db, pool);
  grad_check(x, dx, [&](const Tensor& xx) { return dense_forward(xx, w, b, pool); }, cot);
  grad_check(w, dw, [&](const Tensor& ww) { return dense_forward(x, ww, b, pool); }, cot);
  grad_check(b, db, [&](const Tensor& bb) { return dense_forward(x, w, bb, pool); }, cot);
}

TEST(GradCheck, ReLU) {
  ThreadPool pool(2);
  util::Rng rng(4);
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  // Keep values away from the kink so finite differences are clean.
  for (std::size_t i = 0; i < x.size(); ++i)
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.2f;
  const Tensor y = relu_forward(x, pool);
  Tensor cot = Tensor::randn(y.shape(), rng);
  const Tensor dx = relu_backward(x, cot, pool);
  grad_check(x, dx, [&](const Tensor& xx) { return relu_forward(xx, pool); }, cot);
}

TEST(GradCheck, MaxPool) {
  ThreadPool pool(2);
  util::Rng rng(6);
  Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  Tensor argmax;
  const Tensor y = maxpool_forward(x, 2, 2, argmax, pool);
  EXPECT_EQ(y.dim(2), 3);
  Tensor cot = Tensor::randn(y.shape(), rng);
  const Tensor dx = maxpool_backward(x, cot, argmax, pool);
  grad_check(x, dx,
             [&](const Tensor& xx) {
               Tensor am;
               return maxpool_forward(xx, 2, 2, am, pool);
             },
             cot);
}

TEST(Kernels, MaxPoolArgmaxIsAnOffsetInsideThePlane) {
  // argmax holds iy*W + ix inside the winner's own (n, c) plane, not a flat
  // index into the whole tensor (a float cannot hold those exactly past 2^24
  // elements); backward adds the plane base. The overlapping 3x3/1 windows
  // route several outputs to one input.
  ThreadPool pool(2);
  util::Rng rng(12);
  const int n = 3, c = 4, h = 7, w = 6;
  const Tensor x = Tensor::randn({n, c, h, w}, rng);
  for (const auto& [k, stride] : {std::pair{2, 2}, std::pair{3, 1}}) {
    SCOPED_TRACE("k=" + std::to_string(k) + " stride=" + std::to_string(stride));
    Tensor argmax;
    const Tensor y = maxpool_forward(x, k, stride, argmax, pool);
    const Tensor dy = Tensor::randn(y.shape(), rng);
    // Direct reference: scan each window in (ky, kx) order, first max wins.
    Tensor expected = Tensor::zeros(x.shape());
    for (int ni = 0; ni < n; ++ni)
      for (int ci = 0; ci < c; ++ci)
        for (int oy = 0; oy < y.dim(2); ++oy)
          for (int ox = 0; ox < y.dim(3); ++ox) {
            int by = 0, bx = 0;
            float best = -std::numeric_limits<float>::infinity();
            for (int ky = 0; ky < k; ++ky)
              for (int kx = 0; kx < k; ++kx) {
                const float v = x.at4(ni, ci, oy * stride + ky, ox * stride + kx);
                if (v > best) {
                  best = v;
                  by = oy * stride + ky;
                  bx = ox * stride + kx;
                }
              }
            const float am = argmax.at4(ni, ci, oy, ox);
            EXPECT_LT(am, static_cast<float>(h * w));
            EXPECT_EQ(am, static_cast<float>(by * w + bx));
            expected.at4(ni, ci, by, bx) += dy.at4(ni, ci, oy, ox);
          }
    EXPECT_EQ(max_abs_diff(maxpool_backward(x, dy, argmax, pool), expected), 0.0f);
  }
}

TEST(Kernels, MaxPoolMatchesBranchingScanBitForBit) {
  // The blend-based kernel against the branching (ky, kx) scan it replaced,
  // on data full of ties, infinities and NaNs: `v > best` keeps the first
  // winner, never lets a NaN win, and leaves an all -inf (or NaN) window at
  // offset 0 with -inf.
  ThreadPool pool(2);
  util::Rng rng(21);
  const int n = 2, c = 3, h = 9, w = 8;
  Tensor x({n, c, h, w});
  const float specials[] = {0.0f, -0.0f, 1.0f, -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = rng.uniform_int(0, 2) == 0 ? static_cast<float>(rng.normal(0.0, 1.0))
                                      : specials[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  for (int ci = 0; ci < c; ++ci)  // one plane of nothing but -inf
    for (int iy = 0; iy < h; ++iy)
      for (int ix = 0; ix < w; ++ix) x.at4(1, ci, iy, ix) = -std::numeric_limits<float>::infinity();
  for (const auto& [k, stride] : {std::pair{2, 2}, std::pair{3, 1}, std::pair{3, 2}}) {
    SCOPED_TRACE("k=" + std::to_string(k) + " stride=" + std::to_string(stride));
    Tensor y, argmax;
    maxpool_forward(x, k, stride, y, argmax, pool);
    for (int ni = 0; ni < n; ++ni)
      for (int ci = 0; ci < c; ++ci)
        for (int oy = 0; oy < y.dim(2); ++oy)
          for (int ox = 0; ox < y.dim(3); ++ox) {
            float best = -std::numeric_limits<float>::infinity();
            int best_idx = 0;
            for (int ky = 0; ky < k; ++ky)
              for (int kx = 0; kx < k; ++kx) {
                const int iy = oy * stride + ky, ix = ox * stride + kx;
                const float v = x.at4(ni, ci, iy, ix);
                if (v > best) {
                  best = v;
                  best_idx = iy * w + ix;
                }
              }
            const float got = y.at4(ni, ci, oy, ox);
            EXPECT_EQ(std::memcmp(&got, &best, sizeof(float)), 0) << oy << "," << ox;
            EXPECT_EQ(argmax.at4(ni, ci, oy, ox), static_cast<float>(best_idx));
          }
  }
}

TEST(GradCheck, GlobalAvgPool) {
  util::Rng rng(7);
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  const Tensor y = global_avg_pool_forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 3}));
  Tensor cot = Tensor::randn(y.shape(), rng);
  const Tensor dx = global_avg_pool_backward(x, cot);
  grad_check(x, dx, [&](const Tensor& xx) { return global_avg_pool_forward(xx); }, cot);
}

TEST(GradCheck, BatchNorm) {
  util::Rng rng(8);
  Tensor x = Tensor::randn({3, 2, 4, 4}, rng);
  Tensor gamma = Tensor::randn({2}, rng, 0.2f);
  for (std::size_t i = 0; i < gamma.size(); ++i) gamma[i] += 1.0f;
  Tensor beta = Tensor::randn({2}, rng, 0.2f);
  const float eps = 1e-5f;

  BatchNormCache cache;
  const Tensor y = batchnorm_forward(x, gamma, beta, eps, cache);
  Tensor cot = Tensor::randn(y.shape(), rng);
  Tensor dx, dgamma, dbeta;
  batchnorm_backward(cot, cache, gamma, dx, dgamma, dbeta);

  grad_check(x, dx,
             [&](const Tensor& xx) {
               BatchNormCache c;
               return batchnorm_forward(xx, gamma, beta, eps, c);
             },
             cot, 5e-2f);
  grad_check(gamma, dgamma,
             [&](const Tensor& gg) {
               BatchNormCache c;
               return batchnorm_forward(x, gg, beta, eps, c);
             },
             cot, 5e-2f);
}

TEST(GradCheck, SoftmaxXent) {
  util::Rng rng(9);
  Tensor logits = Tensor::randn({4, 5}, rng);
  const std::vector<int> labels{1, 0, 4, 2};
  Tensor dlogits;
  const float loss = softmax_xent(logits, labels, dlogits);
  EXPECT_GT(loss, 0.0f);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor tmp;
    const float orig = logits[i];
    logits[i] = orig + eps;
    const float up = softmax_xent(logits, labels, tmp);
    logits[i] = orig - eps;
    const float down = softmax_xent(logits, labels, tmp);
    logits[i] = orig;
    EXPECT_NEAR(dlogits[i], (up - down) / (2 * eps), 1e-3f);
  }
  EXPECT_THROW(softmax_xent(logits, {1, 2}, dlogits), std::invalid_argument);
  EXPECT_THROW(softmax_xent(logits, {9, 0, 0, 0}, dlogits), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Kernel properties
// ---------------------------------------------------------------------------

TEST(Kernels, ParallelConvMatchesSerial) {
  util::Rng rng(10);
  Tensor x = Tensor::randn({3, 4, 9, 9}, rng);
  Tensor w = Tensor::randn({8, 4, 3, 3}, rng, 0.4f);
  Tensor b = Tensor::randn({8}, rng, 0.1f);
  ThreadPool serial(1), parallel(4);
  const Tensor y1 = conv2d_forward(x, w, b, ConvSpec{1, 1}, serial);
  const Tensor y4 = conv2d_forward(x, w, b, ConvSpec{1, 1}, parallel);
  EXPECT_LT(max_abs_diff(y1, y4), 1e-6f);
}

TEST(Kernels, ConvShapeChecks) {
  ThreadPool pool(1);
  Tensor x({1, 3, 8, 8});
  Tensor w({4, 2, 3, 3});  // channel mismatch
  Tensor b({4});
  EXPECT_THROW(conv2d_forward(x, w, b, ConvSpec{1, 1}, pool), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Network / SGD
// ---------------------------------------------------------------------------

TEST(Network, TrainingReducesLoss) {
  ThreadPool pool(2);
  util::Rng rng(11);
  Network net = make_tiny_cnn(3, 8, 4, pool, rng);
  SgdOptimizer sgd(0.1f);
  const auto batch = synthetic_batch(12, 0, 0, 8, 3, 8, 4, pool);

  const float first = net.train_step(batch.images, batch.labels);
  sgd.step(net.params());
  float last = first;
  for (int i = 0; i < 15; ++i) {
    last = net.train_step(batch.images, batch.labels);
    sgd.step(net.params());
  }
  EXPECT_LT(last, first * 0.8f) << "loss did not decrease on a fixed batch";
}

TEST(Network, SyntheticShardsConcatenateToGlobalBatch) {
  // Sample i of step s depends only on (seed, s, i): R shards of b samples,
  // concatenated, are the global batch bit for bit, on any pool size.
  constexpr int kRanks = 3, kPer = 5, kC = 3, kSize = 6, kClasses = 7;
  const std::size_t shard_floats = static_cast<std::size_t>(kPer) * kC * kSize * kSize;
  ThreadPool serial(1);
  const auto global = synthetic_batch(99, 4, 0, kRanks * kPer, kC, kSize, kClasses, serial);
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    for (int r = 0; r < kRanks; ++r) {
      const auto shard = synthetic_batch(99, 4, r * kPer, kPer, kC, kSize, kClasses, pool);
      EXPECT_EQ(std::memcmp(shard.images.data(), global.images.data() + r * shard_floats,
                            shard_floats * sizeof(float)),
                0)
          << "shard " << r;
      EXPECT_TRUE(std::equal(shard.labels.begin(), shard.labels.end(),
                             global.labels.begin() + r * kPer))
          << "shard " << r;
    }
  }

  // Different steps draw different data; all of it N(0,1) pixels and
  // in-range labels.
  const auto next = synthetic_batch(99, 5, 0, kRanks * kPer, kC, kSize, kClasses, serial);
  EXPECT_NE(std::memcmp(next.images.data(), global.images.data(),
                        global.images.size() * sizeof(float)),
            0);
  double sum = 0.0, sq = 0.0;
  for (const float v : global.images.flat()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double count = static_cast<double>(global.images.size());
  EXPECT_NEAR(sum / count, 0.0, 0.1);
  EXPECT_NEAR(sq / count, 1.0, 0.15);
  for (const int label : global.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, kClasses);
  }
}

/// ref_tensor_allocations_total so far (metrics must be enabled).
std::uint64_t tensor_allocations() {
  const auto snap = util::metrics::snapshot();
  const auto* m = snap.find("ref_tensor_allocations_total");
  return m == nullptr ? 0 : m->count;
}

TEST(Network, SteadyStateStepAllocatesNothing) {
  // Layer outputs, the two gradient buffers, the input copy, the batch and
  // the conv backward's per-image partials are all reused: once step 0 has
  // sized them, a step allocates no Tensor storage at all.
#if !DNNPERF_METRICS_ENABLED
  GTEST_SKIP() << "metrics recording compiled out";
#endif
  util::metrics::reset();
  util::metrics::set_enabled(true);
  for (const bool batch_norm : {true, false}) {
    SCOPED_TRACE(batch_norm ? "batch norm" : "no batch norm");
    ThreadPool pool(2);
    util::Rng rng(23);
    Network net = make_tiny_cnn(3, 16, 4, pool, rng, batch_norm);
    const auto params = net.params();
    SgdOptimizer sgd(0.05f);
    SyntheticBatch batch;
    std::vector<std::uint64_t> after_step;
    for (int step = 0; step < 4; ++step) {
      synthetic_batch(7, step, 0, 16, 3, 16, 4, pool, batch);
      EXPECT_TRUE(std::isfinite(net.train_step(batch.images, batch.labels)));
      sgd.step(params);
      after_step.push_back(tensor_allocations());
    }
    EXPECT_GT(after_step[0], 0u);
    EXPECT_EQ(after_step[3], after_step[0]) << "steps 1..3 allocated tensor storage";
  }
  util::metrics::set_enabled(false);
  util::metrics::reset();
}

TEST(Network, ParamCountsAndNames) {
  ThreadPool pool(1);
  util::Rng rng(13);
  Network net = make_tiny_cnn(3, 8, 4, pool, rng);
  const auto params = net.params();
  // conv1(w,b) bn1(g,b) conv2(w,b) bn2(g,b) fc(w,b) = 10 tensors.
  EXPECT_EQ(params.size(), 10u);
  EXPECT_GT(net.num_parameters(), 1000u);
  Network lean = make_tiny_cnn(3, 8, 4, pool, rng, /*batch_norm=*/false);
  EXPECT_EQ(lean.params().size(), 6u);
}

}  // namespace
}  // namespace dnnperf::ref
