// Tensor substrate: shapes, tensors, the kernel library (against naive
// references), activations (rational vs exact), and the workspace
// accounting behind Fig. 12.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "support/rng.hpp"
#include "tensor/activations.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_detail.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace cortex {
namespace {

TEST(Shape, BasicsAndNumel) {
  Shape s{3, 4, 5};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.dim(0), 3);
  EXPECT_EQ(s[2], 5);
  EXPECT_EQ(s.numel(), 60);
  EXPECT_EQ(Shape{}.numel(), 1);
  EXPECT_TRUE((Shape{2, 2}) == (Shape{2, 2}));
  EXPECT_TRUE((Shape{2, 2}) != (Shape{2, 3}));
}

TEST(Shape, RejectsNegativeDims) {
  EXPECT_THROW((Shape{2, -1}), Error);
}

TEST(Shape, OutOfRangeDimAccessThrows) {
  Shape s{2, 2};
  EXPECT_THROW(s.dim(2), Error);
}

TEST(Tensor, ZerosFullUniform) {
  Tensor z = Tensor::zeros(Shape{2, 3});
  for (std::int64_t i = 0; i < z.numel(); ++i)
    EXPECT_EQ(z.data()[i], 0.0f);
  Tensor f = Tensor::full(Shape{4}, 2.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(f.at(i), 2.5f);
  Rng rng(1);
  Tensor u = Tensor::uniform(Shape{64}, rng, -0.5f, 0.5f);
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_GE(u.at(i), -0.5f);
    EXPECT_LT(u.at(i), 0.5f);
  }
}

TEST(Tensor, SharedBufferSemanticsAndClone) {
  Tensor a = Tensor::zeros(Shape{4});
  Tensor b = a;          // shares the buffer
  Tensor c = a.clone();  // deep copy
  a.at(0) = 7.0f;
  EXPECT_EQ(b.at(0), 7.0f);
  EXPECT_EQ(c.at(0), 0.0f);
}

TEST(Tensor, RowAccess) {
  Tensor t = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.row_stride(), 3);
  EXPECT_EQ(t.row(1)[0], 4.0f);
  EXPECT_EQ(t.at(1, 2), 6.0f);
}

TEST(Tensor, AllcloseAndMaxAbsDiff) {
  Tensor a = Tensor::from_vector(Shape{3}, {1.0f, 2.0f, 3.0f});
  Tensor b = Tensor::from_vector(Shape{3}, {1.0f, 2.0f, 3.00001f});
  EXPECT_TRUE(allclose(a, b));
  EXPECT_NEAR(max_abs_diff(a, b), 1e-5f, 1e-6f);
  Tensor c = Tensor::from_vector(Shape{3}, {1.0f, 2.0f, 4.0f});
  EXPECT_FALSE(allclose(a, c));
}

// -- kernels vs naive references, parameterized over GEMM shapes -------------

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, BlockedMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10000 + k * 100 + n));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a.data(), a.size(), -1.0f, 1.0f);
  rng.fill_uniform(b.data(), b.size(), -1.0f, 1.0f);
  std::vector<float> c_naive(static_cast<std::size_t>(m * n));
  std::vector<float> c_fast(static_cast<std::size_t>(m * n));
  kernels::gemm_naive(a.data(), b.data(), c_naive.data(), m, k, n);
  kernels::gemm(a.data(), b.data(), c_fast.data(), m, k, n);
  // Bitwise: gemm and gemm_naive share one accumulation chain per output.
  for (std::size_t i = 0; i < c_naive.size(); ++i) {
    std::uint32_t want = 0, got = 0;
    std::memcpy(&want, &c_naive[i], sizeof want);
    std::memcpy(&got, &c_fast[i], sizeof got);
    EXPECT_EQ(want, got) << "elem " << i;
  }
}

TEST_P(GemmShapes, GemmAccAccumulates) {
  // The accumulating form (each chain starts from C), which every k-block
  // after the first continues in.
  const auto [m, k, n] = GetParam();
  Rng rng(7);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a.data(), a.size(), -1.0f, 1.0f);
  rng.fill_uniform(b.data(), b.size(), -1.0f, 1.0f);
  std::vector<float> base(static_cast<std::size_t>(m * n), 1.0f);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  kernels::gemm_naive(a.data(), b.data(), ref.data(), m, k, n);
  kernels::detail::gemm_with(kernels::detail::selected_isa(), a.data(),
                             b.data(), base.data(), m, k, n,
                             /*accumulate=*/true);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(base[i], ref[i] + 1.0f, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(17, 31, 13),
                      std::make_tuple(64, 128, 32),
                      std::make_tuple(128, 64, 128),
                      std::make_tuple(1, 256, 1),
                      std::make_tuple(33, 1, 65)));

TEST(Kernels, GemvMatchesGemm) {
  const std::int64_t m = 37, k = 53;
  Rng rng(5);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> x(static_cast<std::size_t>(k));
  rng.fill_uniform(a.data(), a.size(), -1.0f, 1.0f);
  rng.fill_uniform(x.data(), x.size(), -1.0f, 1.0f);
  std::vector<float> y(static_cast<std::size_t>(m));
  std::vector<float> ref(static_cast<std::size_t>(m));
  kernels::gemv(a.data(), x.data(), y.data(), m, k);
  kernels::gemm_naive(a.data(), x.data(), ref.data(), m, k, 1);
  for (std::int64_t i = 0; i < m; ++i) EXPECT_NEAR(y[i], ref[i], 1e-4f);
}

TEST(Kernels, ElementwiseOps) {
  const std::int64_t n = 17;
  std::vector<float> a(17), out(17);
  for (int i = 0; i < 17; ++i)
    a[static_cast<std::size_t>(i)] = static_cast<float>(i);
  kernels::fill(out.data(), 1.0f, n);
  EXPECT_EQ(out[3], 1.0f);
  kernels::copy(a.data(), out.data(), n);
  EXPECT_EQ(out[3], 3.0f);
  kernels::acc(a.data(), out.data(), n);
  EXPECT_EQ(out[3], 6.0f);
}

TEST(Kernels, GatherScatterRoundTrip) {
  const std::int64_t rows = 5, width = 3;
  std::vector<float> table(15);
  for (int i = 0; i < 15; ++i)
    table[static_cast<std::size_t>(i)] = static_cast<float>(i);
  std::vector<std::int32_t> idx{4, 0, 2, 1, 3};
  std::vector<float> gathered(15);
  kernels::gather_rows(table.data(), idx.data(), gathered.data(), rows,
                       width);
  EXPECT_EQ(gathered[0], 12.0f);  // row 4 starts at 12
  // Scattering each gathered row back to its index restores the table.
  std::vector<float> back(15, -1.0f);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < width; ++c)
      back[static_cast<std::size_t>(idx[static_cast<std::size_t>(r)] * width +
                                    c)] =
          gathered[static_cast<std::size_t>(r * width + c)];
  EXPECT_EQ(back, table);
}

// -- activations ---------------------------------------------------------------

class ActivationGrid : public ::testing::TestWithParam<float> {};

TEST_P(ActivationGrid, RationalTanhTracksExact) {
  const float x = GetParam();
  EXPECT_NEAR(kernels::tanh_rational(x), kernels::tanh_exact(x), 5e-4f);
}

TEST_P(ActivationGrid, RationalSigmoidTracksExact) {
  const float x = GetParam();
  EXPECT_NEAR(kernels::sigmoid_rational(x), kernels::sigmoid_exact(x),
              5e-4f);
}

TEST_P(ActivationGrid, TanhIsOddAndBounded) {
  const float x = GetParam();
  EXPECT_NEAR(kernels::tanh_rational(-x), -kernels::tanh_rational(x), 1e-6f);
  EXPECT_LE(std::abs(kernels::tanh_rational(x)), 1.0f);
}

INSTANTIATE_TEST_SUITE_P(Grid, ActivationGrid,
                         ::testing::Values(-8.0f, -4.0f, -1.5f, -0.5f,
                                           -0.01f, 0.0f, 0.01f, 0.5f, 1.5f,
                                           4.0f, 8.0f));

TEST(Activations, RationalTanhSaturatesExactlyOutsideFive) {
  // The branch-free form computes the quotient everywhere and selects ±1
  // strictly outside [-5, 5]: the same values the clamp-then-divide form
  // gives, including at the boundary and its neighbours, at infinities,
  // NaN and denormals.
  const auto reference = [](float x) {
    if (x > 5.0f) return 1.0f;
    if (x < -5.0f) return -1.0f;
    const float x2 = x * x;
    return x * (135135.0f + x2 * (17325.0f + x2 * (378.0f + x2))) /
           (135135.0f + x2 * (62370.0f + x2 * (3150.0f + x2 * 28.0f)));
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float xs[] = {5.0f,
                      -5.0f,
                      std::nextafter(5.0f, inf),
                      std::nextafter(5.0f, 0.0f),
                      std::nextafter(-5.0f, -inf),
                      std::nextafter(-5.0f, 0.0f),
                      inf,
                      -inf,
                      1e30f,
                      -1e30f,
                      tiny,
                      -tiny,
                      std::numeric_limits<float>::min() / 2.0f,
                      0.0f,
                      -0.0f};
  for (const float x : xs) {
    const float got = kernels::tanh_rational(x);
    const float want = reference(x);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << x << ": " << got << " vs " << want;
  }
  EXPECT_EQ(kernels::tanh_rational(std::nextafter(5.0f, inf)), 1.0f);
  EXPECT_EQ(kernels::tanh_rational(-inf), -1.0f);
  EXPECT_TRUE(std::isnan(
      kernels::tanh_rational(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(
      kernels::sigmoid_rational(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(kernels::sigmoid_rational(inf), 1.0f);
  EXPECT_EQ(kernels::sigmoid_rational(-inf), 0.0f);
}

TEST(Activations, VectorFormsMatchScalar) {
  std::vector<float> in{-2.0f, -0.3f, 0.0f, 0.7f, 3.0f};
  std::vector<float> out(5);
  kernels::tanh_vec(in.data(), out.data(), 5);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              kernels::tanh_rational(in[static_cast<std::size_t>(i)]));
}

// -- workspace -----------------------------------------------------------------

TEST(Workspace, PeakTracksHighWaterMark) {
  Workspace ws;
  const auto t1 = ws.allocate(100);
  const auto t2 = ws.allocate(50);
  EXPECT_EQ(ws.live_bytes(), 150);
  EXPECT_EQ(ws.peak_bytes(), 150);
  ws.release(t1);
  EXPECT_EQ(ws.live_bytes(), 50);
  const auto t3 = ws.allocate(70);
  EXPECT_EQ(ws.peak_bytes(), 150);  // 50 + 70 < 150
  ws.release(t2);
  ws.release(t3);
  EXPECT_EQ(ws.live_bytes(), 0);
  EXPECT_EQ(ws.total_allocated(), 220);
  EXPECT_EQ(ws.num_allocations(), 3);
}

TEST(Workspace, DoubleReleaseAndBadTicketThrow) {
  Workspace ws;
  const auto t = ws.allocate(10);
  ws.release(t);
  EXPECT_THROW(ws.release(t), Error);
  EXPECT_THROW(ws.release(99), Error);
  EXPECT_THROW(ws.allocate(-1), Error);
}

TEST(Workspace, ResetClearsEverything) {
  Workspace ws;
  ws.allocate(10);
  ws.reset();
  EXPECT_EQ(ws.live_bytes(), 0);
  EXPECT_EQ(ws.peak_bytes(), 0);
  EXPECT_EQ(ws.num_allocations(), 0);
}

}  // namespace
}  // namespace cortex
