// Microbenchmarks of the refdnn numeric substrate: conv/dense/batchnorm
// kernels, the GEMM micro-kernel bodies, the packed GEMM and implicit-GEMM
// conv at real ResNet-50 layer shapes and at the bench suite's tiny-CNN
// shapes, and the thread pool's dispatch overhead. BM_Conv2dForward (the
// direct loop-nest conv) is the unoptimized baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "ref/conv_fast.hpp"
#include "ref/gemm.hpp"
#include "ref/gemm_packed.hpp"
#include "ref/kernels.hpp"
#include "ref/network.hpp"

namespace {

using namespace dnnperf;

// Thread counts {1, 2, 4, #cores}, deduplicated and sorted.
std::vector<std::int64_t> bench_thread_counts() {
  std::vector<std::int64_t> t{1, 2, 4};
  const auto hw = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  if (hw > 0 && hw != 1 && hw != 2 && hw != 4) t.push_back(hw);
  std::sort(t.begin(), t.end());
  return t;
}

// ---------------------------------------------------------------------------
// GEMM at real ResNet-50 layer shapes. Arg: threads. Rate = GFLOP/s
// (items == flops).
//
// Shapes (batch 1, M = OH*OW per image):
//   conv3x3_256_14  3x3 conv, 256ch @ 14x14:  M=196,   K=2304, N=256
//   conv1x1_1024_14 bottleneck expand @14x14: M=196,   K=256,  N=1024
//   conv7x7_stem    7x7/2 stem, 3->64 @224:   M=12544, K=147,  N=64
// ---------------------------------------------------------------------------

void gemm_shape_bench(benchmark::State& state, int m, int k, int n) {
  ref::ThreadPool pool(static_cast<int>(state.range(0)));
  util::Rng rng(11);
  const ref::Tensor a = ref::Tensor::randn({m, k}, rng);
  const ref::Tensor b = ref::Tensor::randn({k, n}, rng);
  ref::Tensor c({m, n});
  for (auto _ : state) {
    ref::gemm(a, b, c, pool);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(m) * k * n);
}

void register_gemm_benches() {
  struct Shape {
    const char* name;
    int m, k, n;
  };
  static constexpr Shape kShapes[] = {
      {"BM_GemmResNet50/conv3x3_256_14", 196, 2304, 256},
      {"BM_GemmResNet50/conv1x1_1024_14", 196, 256, 1024},
      {"BM_GemmResNet50/conv7x7_stem", 12544, 147, 64},
  };
  for (const auto& s : kShapes) {
    auto* bench = benchmark::RegisterBenchmark(
        s.name, [s](benchmark::State& st) { gemm_shape_bench(st, s.m, s.k, s.n); });
    for (std::int64_t threads : bench_thread_counts()) bench->Arg(threads);
  }
}

// One micro-kernel body on one full 256-deep k-block of packed panels, the
// 8x8 tile accumulated in place: the GEMM's inner loop with no packing, no
// blocking and no store. Rate = GFLOP/s. The production GEMM runs
// detail::micro_kernel(), the AVX2 body on any CPU that has AVX2.
void micro_kernel_bench(benchmark::State& state, ref::detail::MicroKernel kernel) {
  using ref::detail::kMR;
  using ref::detail::kNR;
  const int kc = ref::detail::kKC;
  util::Rng rng(16);
  const ref::Tensor a = ref::Tensor::randn({kc, kMR}, rng);
  const ref::Tensor b = ref::Tensor::randn({kc, kNR}, rng);
  float acc[kMR * kNR];
  for (auto _ : state) {
    kernel(kc, a.data(), b.data(), acc);
    benchmark::DoNotOptimize(acc);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * kc * kMR * kNR);
}

void register_micro_kernel_benches() {
  benchmark::RegisterBenchmark("BM_GemmMicroKernel/portable", [](benchmark::State& st) {
    micro_kernel_bench(st, &ref::detail::micro_kernel_portable);
  });
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2"))
    benchmark::RegisterBenchmark("BM_GemmMicroKernel/avx2", [](benchmark::State& st) {
      micro_kernel_bench(st, &ref::detail::micro_kernel_avx2);
    });
#endif
}

// gemm_at (the weight-gradient GEMM) on the 3x3x256 @ 14x14 shape:
// dW'[2304, 256] = cols^T[2304, 196] * dY[196, 256].
void BM_GemmAtWeightGrad(benchmark::State& state) {
  ref::ThreadPool pool(static_cast<int>(state.range(0)));
  util::Rng rng(12);
  const int m = 2304, k = 196, n = 256;
  const ref::Tensor a_t = ref::Tensor::randn({k, m}, rng);
  const ref::Tensor b = ref::Tensor::randn({k, n}, rng);
  ref::Tensor c({m, n});
  for (auto _ : state) {
    ref::gemm_at(a_t, b, c, pool);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(m) * k * n);
}

// Full implicit-GEMM conv forward at the ResNet-50 3x3x256 @ 14x14 layer,
// batch 4.
void BM_ConvForwardResNet50_3x3_256(benchmark::State& state) {
  ref::ThreadPool pool(static_cast<int>(state.range(0)));
  util::Rng rng(13);
  const int batch = 4;
  const ref::Tensor x = ref::Tensor::randn({batch, 256, 14, 14}, rng);
  const ref::Tensor w = ref::Tensor::randn({256, 256, 3, 3}, rng, 0.05f);
  const ref::Tensor b = ref::Tensor::zeros({256});
  for (auto _ : state) {
    const auto y = ref::conv2d_forward_gemm(x, w, b, ref::ConvSpec{1, 1}, pool);
    benchmark::DoNotOptimize(y.data());
  }
  const double flops = 2.0 * batch * 14 * 14 * 256 * 256 * 9;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * flops));
}

// 7x7/2 stem conv (3->64 @ 224x224), batch 1: a materialized im2col would be
// a 12544 x 147 matrix per image; the implicit GEMM packs panels on the fly.
void BM_ConvForwardResNet50_Stem(benchmark::State& state) {
  ref::ThreadPool pool(static_cast<int>(state.range(0)));
  util::Rng rng(14);
  const ref::Tensor x = ref::Tensor::randn({1, 3, 224, 224}, rng);
  const ref::Tensor w = ref::Tensor::randn({64, 3, 7, 7}, rng, 0.05f);
  const ref::Tensor b = ref::Tensor::zeros({64});
  for (auto _ : state) {
    const auto y = ref::conv2d_forward_gemm(x, w, b, ref::ConvSpec{2, 3}, pool);
    benchmark::DoNotOptimize(y.data());
  }
  const double flops = 2.0 * 112 * 112 * 64 * 3 * 49;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * flops));
}

void register_thread_args(benchmark::internal::Benchmark* bench) {
  for (std::int64_t threads : bench_thread_counts()) bench->Arg(threads);
}
BENCHMARK(BM_GemmAtWeightGrad)->Apply(register_thread_args);
BENCHMARK(BM_ConvForwardResNet50_3x3_256)->Apply(register_thread_args);
BENCHMARK(BM_ConvForwardResNet50_Stem)->Apply(register_thread_args);

void BM_Conv2dForward(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ref::ThreadPool pool(threads);
  util::Rng rng(1);
  const ref::Tensor x = ref::Tensor::randn({4, 8, 16, 16}, rng);
  const ref::Tensor w = ref::Tensor::randn({16, 8, 3, 3}, rng, 0.1f);
  const ref::Tensor b = ref::Tensor::zeros({16});
  for (auto _ : state) {
    const auto y = ref::conv2d_forward(x, w, b, ref::ConvSpec{1, 1}, pool);
    benchmark::DoNotOptimize(y.data());
  }
  // 2 * MACs per iteration.
  const double macs = 16.0 * 16 * 16 * 8 * 9 * 4;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 2 * macs));
}
BENCHMARK(BM_Conv2dForward)->Arg(1)->Arg(2)->Arg(4);

void BM_Conv2dBackward(benchmark::State& state) {
  ref::ThreadPool pool(2);
  util::Rng rng(2);
  const ref::Tensor x = ref::Tensor::randn({2, 8, 12, 12}, rng);
  const ref::Tensor w = ref::Tensor::randn({8, 8, 3, 3}, rng, 0.1f);
  const ref::Tensor b = ref::Tensor::zeros({8});
  const auto y = ref::conv2d_forward(x, w, b, ref::ConvSpec{1, 1}, pool);
  util::Rng rng2(3);
  const ref::Tensor dy = ref::Tensor::randn(y.shape(), rng2);
  for (auto _ : state) {
    ref::Tensor dx, dw, db;
    ref::conv2d_backward(x, w, dy, ref::ConvSpec{1, 1}, dx, dw, db, pool);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2dBackward);

// The implicit-GEMM conv forward at the two conv layers of the bench suite's
// train_compute workload (3x3, stride 1, pad 1, batch 32). Arg: threads.
void BM_ConvForwardGemm(benchmark::State& state, int c, int hw, int oc) {
  ref::ThreadPool pool(static_cast<int>(state.range(0)));
  util::Rng rng(17);
  const int batch = 32;
  const ref::Tensor x = ref::Tensor::randn({batch, c, hw, hw}, rng);
  const ref::Tensor w = ref::Tensor::randn({oc, c, 3, 3}, rng, 0.1f);
  const ref::Tensor b = ref::Tensor::zeros({oc});
  for (auto _ : state) {
    const auto y = ref::conv2d_forward_gemm(x, w, b, ref::ConvSpec{1, 1}, pool);
    benchmark::DoNotOptimize(y.data());
  }
  const double flops = 2.0 * batch * hw * hw * oc * c * 9;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * flops));
}
BENCHMARK_CAPTURE(BM_ConvForwardGemm, conv1_3to8_32, 3, 32, 8)->Arg(1);
BENCHMARK_CAPTURE(BM_ConvForwardGemm, conv2_8to16_16, 8, 16, 16)->Arg(1);

// im2col_image of one image at the same two layers (3x3, pad 1).
void BM_Im2colImage(benchmark::State& state, int c, int hw) {
  util::Rng rng(18);
  const ref::Tensor x = ref::Tensor::randn({1, c, hw, hw}, rng);
  std::vector<float> cols(static_cast<std::size_t>(hw) * hw * c * 9);
  for (auto _ : state) {
    ref::im2col_image(x.data(), c, hw, hw, 3, 3, 1, 1, cols.data());
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_Im2colImage, conv1_3to8_32, 3, 32);
BENCHMARK_CAPTURE(BM_Im2colImage, conv2_8to16_16, 8, 16);

// GEMM-lowered conv backward at the same two layers. Arg: threads. Rate =
// GFLOP/s of the dW and dX GEMMs (2 * rows * OC * CKK each); the `_params`
// case is conv2d_backward_gemm_params (no dX, as a first layer runs it), and
// its rate counts the dW GEMM only.
void BM_Conv2dBackwardGemm(benchmark::State& state, int c, int hw, int oc, bool with_dx) {
  ref::ThreadPool pool(static_cast<int>(state.range(0)));
  util::Rng rng(15);
  const int batch = 32;
  const ref::Tensor x = ref::Tensor::randn({batch, c, hw, hw}, rng);
  const ref::Tensor w = ref::Tensor::randn({oc, c, 3, 3}, rng, 0.1f);
  const ref::Tensor dy = ref::Tensor::randn({batch, oc, hw, hw}, rng);
  ref::Tensor dx, dw, db;
  for (auto _ : state) {
    if (with_dx)
      ref::conv2d_backward_gemm(x, w, dy, ref::ConvSpec{1, 1}, dx, dw, db, pool);
    else
      ref::conv2d_backward_gemm_params(x, w, dy, ref::ConvSpec{1, 1}, dw, db, pool);
    benchmark::DoNotOptimize(dx.data());
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  const double flops = (with_dx ? 2.0 : 1.0) * 2.0 * batch * hw * hw * oc * c * 9;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * flops));
}
BENCHMARK_CAPTURE(BM_Conv2dBackwardGemm, conv1_3to8_32, 3, 32, 8, true)->Arg(1)->Arg(2);
BENCHMARK_CAPTURE(BM_Conv2dBackwardGemm, conv1_3to8_32_params, 3, 32, 8, false)->Arg(1);
BENCHMARK_CAPTURE(BM_Conv2dBackwardGemm, conv2_8to16_16, 8, 16, 16, true)->Arg(1)->Arg(2);

void BM_DenseForward(benchmark::State& state) {
  ref::ThreadPool pool(2);
  util::Rng rng(4);
  const ref::Tensor x = ref::Tensor::randn({32, 256}, rng);
  const ref::Tensor w = ref::Tensor::randn({256, 128}, rng, 0.1f);
  const ref::Tensor b = ref::Tensor::zeros({128});
  for (auto _ : state) {
    const auto y = ref::dense_forward(x, w, b, pool);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 32 * 256 * 128);
}
BENCHMARK(BM_DenseForward);

void BM_BatchNormForward(benchmark::State& state) {
  util::Rng rng(5);
  const ref::Tensor x = ref::Tensor::randn({8, 16, 16, 16}, rng);
  ref::Tensor gamma = ref::Tensor::zeros({16});
  gamma.fill(1.0f);
  const ref::Tensor beta = ref::Tensor::zeros({16});
  for (auto _ : state) {
    ref::BatchNormCache cache;
    const auto y = ref::batchnorm_forward(x, gamma, beta, 1e-5f, cache);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BatchNormForward);

void BM_ParallelForOverhead(benchmark::State& state) {
  ref::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::size_t sum = 0;
    pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
      benchmark::DoNotOptimize(sum += e - b);
    });
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(4);

void BM_TrainStepTinyCnn(benchmark::State& state) {
  ref::ThreadPool pool(2);
  util::Rng rng(6);
  ref::Network net = ref::make_tiny_cnn(3, 8, 4, pool, rng);
  const auto batch = ref::synthetic_batch(7, 0, 0, 8, 3, 8, 4, pool);
  ref::SgdOptimizer sgd(0.05f);
  for (auto _ : state) {
    const float loss = net.train_step(batch.images, batch.labels);
    sgd.step(net.params());
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_TrainStepTinyCnn);

}  // namespace

int main(int argc, char** argv) {
  register_gemm_benches();
  register_micro_kernel_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
