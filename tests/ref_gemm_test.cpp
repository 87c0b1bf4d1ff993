#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "ref/conv_fast.hpp"
#include "ref/gemm.hpp"
#include "ref/gemm_packed.hpp"

namespace dnnperf::ref {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk)
      for (int j = 0; j < n; ++j)
        c[static_cast<std::size_t>(i) * n + j] +=
            a[static_cast<std::size_t>(i) * k + kk] * b[static_cast<std::size_t>(kk) * n + j];
  return c;
}

/// Pool the GEMM-lowered kernels run on: one thread (a serial sweep of the
/// macro-tile grid) or several (the grid split across workers). Results must
/// match the oracle either way.
enum class Pool { serial, threaded };

int pool_threads(Pool p, int threaded) { return p == Pool::serial ? 1 : threaded; }

/// GemmShapeParam instance suffix. The names predate the pool axis: they
/// once labelled a naive/packed kernel switch that no longer exists, and are
/// kept so the test IDs stay stable. Every instance runs the packed GEMM.
const char* instance_suffix(Pool p) { return p == Pool::serial ? "naive" : "packed"; }

const char* pool_name(Pool p) { return p == Pool::serial ? "serial pool" : "threaded pool"; }

// Shapes include ragged cases: m/n/k that are not multiples of the 8x8
// register tile, the 96-row/256-col macro tiles, or the 256-deep k block —
// plus k > 256 so multi-k-block accumulation is exercised.
using GemmCase = std::tuple<std::tuple<int, int, int>, Pool>;

class GemmShapeParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmShapeParam, MatchesNaiveMatmul) {
  const auto [shape, pool_kind] = GetParam();
  const auto [m, k, n] = shape;
  SCOPED_TRACE(pool_name(pool_kind));
  util::Rng rng(31);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  ThreadPool pool(pool_threads(pool_kind, 3));
  Tensor c({m, n});
  gemm(a, b, c, pool, /*accumulate=*/false);
  EXPECT_LT(max_abs_diff(c, naive_matmul(a, b)), 1e-4f);
}

TEST_P(GemmShapeParam, TransposedVariantMatches) {
  const auto [shape, pool_kind] = GetParam();
  const auto [m, k, n] = shape;
  SCOPED_TRACE(pool_name(pool_kind));
  util::Rng rng(32);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  // Store A transposed and multiply through gemm_at.
  Tensor a_t({k, m});
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk)
      a_t[static_cast<std::size_t>(kk) * m + i] = a[static_cast<std::size_t>(i) * k + kk];
  ThreadPool pool(pool_threads(pool_kind, 2));
  Tensor c({m, n});
  gemm_at(a_t, b, c, pool, /*accumulate=*/false);
  EXPECT_LT(max_abs_diff(c, naive_matmul(a, b)), 1e-4f);
}

TEST_P(GemmShapeParam, AccumulateAddsToExisting) {
  const auto [shape, pool_kind] = GetParam();
  const auto [m, k, n] = shape;
  SCOPED_TRACE(pool_name(pool_kind));
  util::Rng rng(33);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  ThreadPool pool(pool_threads(pool_kind, 2));
  Tensor c({m, n});
  c.fill(1.0f);
  gemm(a, b, c, pool, /*accumulate=*/true);
  Tensor expected = naive_matmul(a, b);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] += 1.0f;
  EXPECT_LT(max_abs_diff(c, expected), 1e-4f);
}

TEST_P(GemmShapeParam, TransposedAccumulateAddsToExisting) {
  const auto [shape, pool_kind] = GetParam();
  const auto [m, k, n] = shape;
  SCOPED_TRACE(pool_name(pool_kind));
  util::Rng rng(38);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor a_t({k, m});
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk)
      a_t[static_cast<std::size_t>(kk) * m + i] = a[static_cast<std::size_t>(i) * k + kk];
  ThreadPool pool(pool_threads(pool_kind, 2));
  Tensor c({m, n});
  c.fill(0.5f);
  gemm_at(a_t, b, c, pool, /*accumulate=*/true);
  Tensor expected = naive_matmul(a, b);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] += 0.5f;
  EXPECT_LT(max_abs_diff(c, expected), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeParam,
    ::testing::Combine(::testing::ValuesIn(std::vector<std::tuple<int, int, int>>{
                           {1, 1, 1},
                           {3, 5, 7},
                           {16, 16, 16},
                           {33, 65, 129},
                           {100, 70, 130},
                           {2, 200, 3},
                           {97, 300, 17},    // ragged tiles + k crosses the 256 block
                           {130, 257, 100},  // m > MC, k = KC + 1
                           {95, 33, 241},    // n > NC by one
                       }),
                       ::testing::Values(Pool::serial, Pool::threaded)),
    [](const auto& param_info) {
      const auto& shape = std::get<0>(param_info.param);
      return std::to_string(std::get<0>(shape)) + "x" + std::to_string(std::get<1>(shape)) +
             "x" + std::to_string(std::get<2>(shape)) + "_" + instance_suffix(std::get<1>(param_info.param));
    });

TEST(Gemm, RejectsBadShapes) {
  ThreadPool pool(1);
  Tensor a({2, 3}), b({4, 5}), c({2, 5});
  EXPECT_THROW(gemm(a, b, c, pool), std::invalid_argument);
  Tensor b2({3, 5}), c2({3, 5});
  EXPECT_THROW(gemm(a, b2, c2, pool), std::invalid_argument);
}

/// col2im_image(im2col_image(x_i)) for every image i of x [N,C,H,W].
Tensor im2col_round_trip(const Tensor& x, int kh, int kw, int stride, int pad) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = (h + 2 * pad - kh) / stride + 1, ow = (w + 2 * pad - kw) / stride + 1;
  const std::size_t image = static_cast<std::size_t>(c) * h * w;
  std::vector<float> cols(static_cast<std::size_t>(oh) * ow * c * kh * kw);
  Tensor back = Tensor::zeros(x.shape());
  for (int i = 0; i < n; ++i) {
    im2col_image(x.data() + i * image, c, h, w, kh, kw, stride, pad, cols.data());
    col2im_image(cols.data(), c, h, w, kh, kw, stride, pad, back.data() + i * image);
  }
  return back;
}

TEST(Im2col, RoundTripThroughCol2im) {
  // col2im(im2col(x)) multiplies each input element by the number of
  // windows covering it; with a 1x1 kernel and stride 1 that count is 1.
  util::Rng rng(34);
  const Tensor x = Tensor::randn({2, 3, 5, 5}, rng);
  EXPECT_LT(max_abs_diff(x, im2col_round_trip(x, 1, 1, 1, 0)), 1e-6f);
}

// With stride/pad the round trip is not the identity: each input element is
// multiplied by its window cover count, which is exactly what the round trip
// of an all-ones tensor produces. Verify col2im(im2col(x)) == x * cover.
using ColsCase = std::tuple<int, int, int, int>;  // kh, kw, stride, pad

class Im2colRoundTrip : public ::testing::TestWithParam<ColsCase> {};

TEST_P(Im2colRoundTrip, CoverCountIdentity) {
  const auto [kh, kw, stride, pad] = GetParam();
  const int n = 2, c = 3, h = 9, w = 7;
  util::Rng rng(39);
  const Tensor x = Tensor::randn({n, c, h, w}, rng);
  Tensor ones({n, c, h, w});
  ones.fill(1.0f);
  const Tensor back = im2col_round_trip(x, kh, kw, stride, pad);
  const Tensor cover = im2col_round_trip(ones, kh, kw, stride, pad);
  Tensor expected({n, c, h, w});
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = x[i] * cover[i];
  EXPECT_LT(max_abs_diff(back, expected), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(StridesPads, Im2colRoundTrip,
                         ::testing::Values(ColsCase{3, 3, 1, 1}, ColsCase{3, 3, 2, 1},
                                           ColsCase{2, 2, 2, 0}, ColsCase{5, 3, 2, 2},
                                           ColsCase{1, 3, 2, 1}));

TEST(Im2col, ColumnLayout) {
  // A 2x2 image with a 2x2 kernel, no pad: exactly one output position
  // whose column is the flattened image.
  const float x[] = {1, 2, 3, 4};
  float cols[4] = {};
  im2col_image(x, 1, 2, 2, 2, 2, 1, 0, cols);
  EXPECT_EQ(cols[0], 1);
  EXPECT_EQ(cols[1], 2);
  EXPECT_EQ(cols[2], 3);
  EXPECT_EQ(cols[3], 4);
}

// ---------------------------------------------------------------------------
// im2col+GEMM convolution vs the direct kernels (serial and threaded pools)
// ---------------------------------------------------------------------------

// n, c, hw, oc, stride, pad, pool
using ConvCase = std::tuple<int, int, int, int, int, int, Pool>;

class ConvGemmParam : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGemmParam, ForwardMatchesDirectKernel) {
  const auto [n, c, hw, oc, stride, pad, pool_kind] = GetParam();
  SCOPED_TRACE(pool_name(pool_kind));
  util::Rng rng(35);
  const Tensor x = Tensor::randn({n, c, hw, hw}, rng);
  const Tensor w = Tensor::randn({oc, c, 3, 3}, rng, 0.3f);
  const Tensor b = Tensor::randn({oc}, rng, 0.1f);
  ThreadPool pool(pool_threads(pool_kind, 2));
  const ConvSpec spec{stride, pad};
  const Tensor direct = conv2d_forward(x, w, b, spec, pool);
  const Tensor lowered = conv2d_forward_gemm(x, w, b, spec, pool);
  ASSERT_TRUE(direct.same_shape(lowered));
  EXPECT_LT(max_abs_diff(direct, lowered), 1e-4f);
}

TEST_P(ConvGemmParam, BackwardMatchesDirectKernel) {
  const auto [n, c, hw, oc, stride, pad, pool_kind] = GetParam();
  SCOPED_TRACE(pool_name(pool_kind));
  util::Rng rng(36);
  const Tensor x = Tensor::randn({n, c, hw, hw}, rng);
  const Tensor w = Tensor::randn({oc, c, 3, 3}, rng, 0.3f);
  const Tensor b = Tensor::zeros({oc});
  ThreadPool pool(pool_threads(pool_kind, 2));
  const ConvSpec spec{stride, pad};
  const Tensor y = conv2d_forward(x, w, b, spec, pool);
  util::Rng rng2(37);
  const Tensor dy = Tensor::randn(y.shape(), rng2);

  Tensor dx1, dw1, db1, dx2, dw2, db2;
  conv2d_backward(x, w, dy, spec, dx1, dw1, db1, pool);
  conv2d_backward_gemm(x, w, dy, spec, dx2, dw2, db2, pool);
  EXPECT_LT(max_abs_diff(dx1, dx2), 1e-3f);
  EXPECT_LT(max_abs_diff(dw1, dw2), 1e-3f);
  EXPECT_LT(max_abs_diff(db1, db2), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    ConvShapes, ConvGemmParam,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1, 4),
                       ::testing::Values(5, 8), ::testing::Values(1, 8),
                       ::testing::Values(1, 2), ::testing::Values(0, 1),
                       ::testing::Values(Pool::serial, Pool::threaded)));

// The per-image backward against the direct oracle, on a serial and a
// 3-thread pool: one image (its GEMMs get the whole pool), an odd batch that
// splits unevenly over the workers, and a strided unpadded window.
struct BwdCase {
  int n, c, hw, oc, stride, pad;
};
constexpr BwdCase kBwdCases[] = {
    {1, 4, 16, 128, 1, 1},
    {13, 3, 8, 5, 1, 1},
    {4, 3, 9, 6, 2, 0},
};

struct BwdResult {
  Tensor dx, dw, db;
};

/// Which backward computes a case: the direct conv2d_backward oracle,
/// conv2d_backward_gemm, or conv2d_backward_gemm_params (no dx).
enum class Bwd { direct, gemm, gemm_params };

/// The gradients of one case.
BwdResult conv_backward_case(const BwdCase& cs, int threads, Bwd path) {
  util::Rng rng(41);
  const Tensor x = Tensor::randn({cs.n, cs.c, cs.hw, cs.hw}, rng);
  const Tensor w = Tensor::randn({cs.oc, cs.c, 3, 3}, rng, 0.3f);
  const int out = (cs.hw + 2 * cs.pad - 3) / cs.stride + 1;
  const Tensor dy = Tensor::randn({cs.n, cs.oc, out, out}, rng);
  ThreadPool pool(threads);
  const ConvSpec spec{cs.stride, cs.pad};
  BwdResult r;
  switch (path) {
    case Bwd::direct:
      conv2d_backward(x, w, dy, spec, r.dx, r.dw, r.db, pool);
      break;
    case Bwd::gemm:
      conv2d_backward_gemm(x, w, dy, spec, r.dx, r.dw, r.db, pool);
      break;
    case Bwd::gemm_params:
      conv2d_backward_gemm_params(x, w, dy, spec, r.dw, r.db, pool);
      break;
  }
  return r;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) && std::equal(a.flat().begin(), a.flat().end(), b.flat().begin(),
                                       [](float p, float q) {
                                         return std::bit_cast<std::uint32_t>(p) ==
                                                std::bit_cast<std::uint32_t>(q);
                                       });
}

TEST(ConvGemm, PerImageBackwardMatchesDirectOracle) {
  for (const BwdCase& cs : kBwdCases) {
    const BwdResult oracle = conv_backward_case(cs, 1, Bwd::direct);
    for (int threads : {1, 3}) {
      SCOPED_TRACE("n=" + std::to_string(cs.n) + " stride=" + std::to_string(cs.stride) +
                   " threads=" + std::to_string(threads));
      const BwdResult got = conv_backward_case(cs, threads, Bwd::gemm);
      EXPECT_LT(max_abs_diff(oracle.dx, got.dx), 1e-4f);
      EXPECT_LT(max_abs_diff(oracle.dw, got.dw), 1e-4f);
      EXPECT_LT(max_abs_diff(oracle.db, got.db), 1e-4f);
    }
  }
}

// Per-image dW/db are summed in image order, so the gradients must be the
// same bits whether the images ran on one thread or were spread over three.
TEST(ConvGemm, BackwardBitsIndependentOfThreadCount) {
  for (const BwdCase& cs : kBwdCases) {
    SCOPED_TRACE("n=" + std::to_string(cs.n) + " stride=" + std::to_string(cs.stride));
    const BwdResult one = conv_backward_case(cs, 1, Bwd::gemm);
    const BwdResult three = conv_backward_case(cs, 3, Bwd::gemm);
    EXPECT_TRUE(same_bits(one.dx, three.dx));
    EXPECT_TRUE(same_bits(one.dw, three.dw));
    EXPECT_TRUE(same_bits(one.db, three.db));
  }
}

// The first layer's backward skips dX; its dW and db must be the same bits
// as the full call's, on one thread and on three.
TEST(ConvGemm, ParamsOnlyBackwardMatchesFullBitForBit) {
  for (const BwdCase& cs : kBwdCases)
    for (int threads : {1, 3}) {
      SCOPED_TRACE("n=" + std::to_string(cs.n) + " stride=" + std::to_string(cs.stride) +
                   " threads=" + std::to_string(threads));
      const BwdResult full = conv_backward_case(cs, threads, Bwd::gemm);
      const BwdResult params = conv_backward_case(cs, threads, Bwd::gemm_params);
      EXPECT_TRUE(same_bits(full.dw, params.dw));
      EXPECT_TRUE(same_bits(full.db, params.db));
    }
}

// The AVX2 micro-kernel adds each rounded product in kk order, exactly as the
// portable one does, so the two give the same bits on random signed panels
// (kc = 1, a ragged kc, one tile, the 27-deep 3x3x3 conv1, a full k-block).
TEST(GemmMicroKernel, Avx2MatchesPortableBitForBit) {
#if defined(__x86_64__) || defined(__i386__)
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "host CPU has no AVX2";
  EXPECT_EQ(detail::micro_kernel(), &detail::micro_kernel_avx2);
  util::Rng rng(44);
  for (int kc : {1, 5, 8, 27, 256}) {
    SCOPED_TRACE("kc=" + std::to_string(kc));
    const Tensor a = Tensor::randn({kc, detail::kMR}, rng);
    const Tensor b = Tensor::randn({kc, detail::kNR}, rng);
    Tensor portable({detail::kMR, detail::kNR}), avx2({detail::kMR, detail::kNR});
    detail::micro_kernel_portable(kc, a.data(), b.data(), portable.data());
    detail::micro_kernel_avx2(kc, a.data(), b.data(), avx2.data());
    EXPECT_TRUE(same_bits(portable, avx2));
  }
#else
  GTEST_SKIP() << "not an x86 build";
#endif
}

// Larger-than-one-macro-tile conv: N*OH*OW = 2*16*16 = 512 rows > MC and
// oc = 24 exercises a ragged N edge of the implicit path.
TEST(ConvGemm, MultiTileImplicitMatchesDirect) {
  util::Rng rng(40);
  const Tensor x = Tensor::randn({2, 8, 16, 16}, rng);
  const Tensor w = Tensor::randn({24, 8, 3, 3}, rng, 0.2f);
  const Tensor b = Tensor::randn({24}, rng, 0.1f);
  ThreadPool pool(3);
  const ConvSpec spec{1, 1};
  const Tensor direct = conv2d_forward(x, w, b, spec, pool);
  const Tensor implicit = conv2d_forward_gemm(x, w, b, spec, pool);
  EXPECT_LT(max_abs_diff(direct, implicit), 1e-4f);
}

// Non-square kernels (1x3 / 3x1, the factorized-conv shapes of Inception).
TEST(ConvGemm, NonSquareKernelsMatchDirect) {
  util::Rng rng(41);
  const Tensor x = Tensor::randn({2, 3, 9, 9}, rng);
  ThreadPool pool(2);
  for (const auto& [kh, kw] : {std::pair{1, 3}, std::pair{3, 1}, std::pair{5, 3}}) {
    SCOPED_TRACE(std::to_string(kh) + "x" + std::to_string(kw));
    const Tensor w = Tensor::randn({6, 3, kh, kw}, rng, 0.3f);
    const Tensor b = Tensor::randn({6}, rng, 0.1f);
    const ConvSpec spec{1, 1};
    const Tensor direct = conv2d_forward(x, w, b, spec, pool);
    for (Pool pool_kind : {Pool::serial, Pool::threaded}) {
      SCOPED_TRACE(pool_name(pool_kind));
      ThreadPool gemm_pool(pool_threads(pool_kind, 2));
      const Tensor lowered = conv2d_forward_gemm(x, w, b, spec, gemm_pool);
      ASSERT_TRUE(direct.same_shape(lowered));
      EXPECT_LT(max_abs_diff(direct, lowered), 1e-4f);
    }
    // Backward for the non-square shapes too.
    util::Rng grng(42);
    const Tensor dy = Tensor::randn(direct.shape(), grng);
    Tensor dx1, dw1, db1;
    conv2d_backward(x, w, dy, spec, dx1, dw1, db1, pool);
    for (Pool pool_kind : {Pool::serial, Pool::threaded}) {
      SCOPED_TRACE(pool_name(pool_kind));
      ThreadPool gemm_pool(pool_threads(pool_kind, 2));
      Tensor dx2, dw2, db2;
      conv2d_backward_gemm(x, w, dy, spec, dx2, dw2, db2, gemm_pool);
      EXPECT_LT(max_abs_diff(dx1, dx2), 1e-3f);
      EXPECT_LT(max_abs_diff(dw1, dw2), 1e-3f);
      EXPECT_LT(max_abs_diff(db1, db2), 1e-3f);
    }
  }
}

}  // namespace
}  // namespace dnnperf::ref
