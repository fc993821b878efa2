// Tensor substrate: shapes, tensors, the kernel library (against naive
// references), activations (rational vs exact), and the workspace
// accounting behind Fig. 12.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "support/rng.hpp"
#include "tensor/activations.hpp"
#include "tensor/kernels.hpp"
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
  const auto [m, k, n] = GetParam();
  Rng rng(7);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a.data(), a.size(), -1.0f, 1.0f);
  rng.fill_uniform(b.data(), b.size(), -1.0f, 1.0f);
  std::vector<float> base(static_cast<std::size_t>(m * n), 1.0f);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  kernels::gemm_naive(a.data(), b.data(), ref.data(), m, k, n);
  kernels::gemm_acc(a.data(), b.data(), base.data(), m, k, n);
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

TEST(Kernels, GemvAccAccumulates) {
  const std::int64_t m = 8, k = 8;
  std::vector<float> a(64, 0.5f), x(8, 1.0f), y(8, 2.0f);
  kernels::gemv_acc(a.data(), x.data(), y.data(), m, k);
  for (float v : y) EXPECT_NEAR(v, 2.0f + 4.0f, 1e-5f);
}

TEST(Kernels, ElementwiseOps) {
  const std::int64_t n = 17;
  std::vector<float> a(17), b(17), out(17);
  for (int i = 0; i < 17; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<float>(i);
    b[static_cast<std::size_t>(i)] = static_cast<float>(2 * i);
  }
  kernels::add(a.data(), b.data(), out.data(), n);
  EXPECT_EQ(out[3], 9.0f);
  kernels::sub(a.data(), b.data(), out.data(), n);
  EXPECT_EQ(out[3], -3.0f);
  kernels::mul(a.data(), b.data(), out.data(), n);
  EXPECT_EQ(out[3], 18.0f);
  kernels::fill(out.data(), 1.0f, n);
  kernels::mul_acc(a.data(), b.data(), out.data(), n);
  EXPECT_EQ(out[3], 19.0f);
  kernels::add_scalar(a.data(), 0.5f, out.data(), n);
  EXPECT_EQ(out[3], 3.5f);
  kernels::scale(a.data(), 3.0f, out.data(), n);
  EXPECT_EQ(out[3], 9.0f);
  kernels::copy(a.data(), out.data(), n);
  EXPECT_EQ(out[3], 3.0f);
  kernels::acc(a.data(), out.data(), n);
  EXPECT_EQ(out[3], 6.0f);
}

TEST(Kernels, Concat2) {
  std::vector<float> a{1, 2}, b{3, 4}, out(4);
  kernels::concat2(a.data(), b.data(), out.data(), 2);
  EXPECT_EQ(out, (std::vector<float>{1, 2, 3, 4}));
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
  std::vector<float> back(15, -1.0f);
  kernels::scatter_rows(back.data(), idx.data(), gathered.data(), rows,
                        width);
  EXPECT_EQ(back, table);
}

TEST(Kernels, MatmulWrapperShapeChecks) {
  Tensor a = Tensor::zeros(Shape{2, 3});
  Tensor b = Tensor::zeros(Shape{4, 2});
  EXPECT_THROW(kernels::matmul(a, b), Error);
  Tensor ok = kernels::matmul(a, Tensor::zeros(Shape{3, 5}));
  EXPECT_EQ(ok.shape(), (Shape{2, 5}));
}

TEST(Kernels, LinearAppliesRowwise) {
  // in: (2, 3), w: (4, 3) -> out: (2, 4), out[r] = w @ in[r].
  Tensor in = Tensor::from_vector(Shape{2, 3}, {1, 0, 0, 0, 1, 0});
  Tensor w = Tensor::from_vector(
      Shape{4, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor out = kernels::linear(in, w);
  EXPECT_EQ(out.shape(), (Shape{2, 4}));
  EXPECT_EQ(out.at(0, 0), 1.0f);   // first column of w
  EXPECT_EQ(out.at(1, 0), 2.0f);   // second column of w
  EXPECT_EQ(out.at(0, 3), 10.0f);
}

TEST(Kernels, AddBiasBroadcasts) {
  Tensor a = Tensor::zeros(Shape{2, 3});
  Tensor bias = Tensor::from_vector(Shape{3}, {1, 2, 3});
  Tensor out = kernels::add_bias(a, bias);
  EXPECT_EQ(out.at(0, 1), 2.0f);
  EXPECT_EQ(out.at(1, 2), 3.0f);
}

TEST(Kernels, ConcatLast) {
  Tensor a = Tensor::from_vector(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector(Shape{2, 1}, {9, 8});
  Tensor out = kernels::concat_last(a, b);
  EXPECT_EQ(out.shape(), (Shape{2, 3}));
  EXPECT_EQ(out.at(0, 2), 9.0f);
  EXPECT_EQ(out.at(1, 0), 3.0f);
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

TEST(Activations, VectorFormsMatchScalar) {
  std::vector<float> in{-2.0f, -0.3f, 0.0f, 0.7f, 3.0f};
  std::vector<float> out(5);
  kernels::tanh_vec(in.data(), out.data(), 5);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              kernels::tanh_rational(in[static_cast<std::size_t>(i)]));
  kernels::relu_vec(in.data(), out.data(), 5);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[3], 0.7f);
}

TEST(Activations, ApplyActivationDispatch) {
  using kernels::Activation;
  EXPECT_EQ(kernels::apply_activation(Activation::kIdentity, 0.3f), 0.3f);
  EXPECT_EQ(kernels::apply_activation(Activation::kRelu, -2.0f), 0.0f);
  EXPECT_EQ(kernels::apply_activation(Activation::kTanh, 0.5f),
            kernels::tanh_rational(0.5f));
  EXPECT_STREQ(kernels::activation_name(Activation::kSigmoid), "sigmoid");
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
