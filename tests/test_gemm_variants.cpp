// Every instruction-set variant of kernels::gemm / gemm_acc that this host
// supports, against the scalar references bit for bit: row tails, column
// tails, accumulation into C, and inputs holding signed zeros, infinities,
// NaNs and denormals. The served numerics are bit-identical to the
// per-node gemv oracle only because every variant keeps the same
// ascending multiply-add chain per output.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_detail.hpp"

namespace cortex {
namespace {

using kernels::detail::Isa;

std::uint32_t bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Identical bits, or both NaN: IEEE 754 leaves open which operand's NaN
// payload a*b propagates, and compilers may commute a*b, so NaN payloads
// are not part of the contract. Signed zeros and denormals are.
::testing::AssertionResult same_float(float got, float want) {
  if (bits(got) == bits(want) || (std::isnan(got) && std::isnan(want)))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << got << " (0x" << std::hex << bits(got) << ") != " << want
         << " (0x" << bits(want) << ")";
}

// gemm_acc's contract: the chain starts from C, not from zero.
void gemm_acc_reference(const float* a, const float* b, float* c,
                        std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float s = c[i * n + j];
      for (std::int64_t p = 0; p < k; ++p) s = s + a[i * k + p] * b[p * n + j];
      c[i * n + j] = s;
    }
}

std::vector<float> uniform(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  rng.fill_uniform(v.data(), v.size(), -1.0f, 1.0f);
  return v;
}

// Overwrites about one element in `every` with a special value.
void sprinkle_specials(std::vector<float>& v, Rng& rng, std::uint64_t every) {
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -3e-39f,
                            std::numeric_limits<float>::min()};
  for (float& x : v)
    if (rng.next_below(every) == 0)
      x = specials[rng.next_below(sizeof specials / sizeof specials[0])];
}

// Runs gemm and gemm_acc with `isa` on (a, b, c0) and checks both against
// the scalar references, element by element.
void expect_variant_matches(Isa isa, const std::vector<float>& a,
                            const std::vector<float>& b,
                            const std::vector<float>& c0, std::int64_t m,
                            std::int64_t k, std::int64_t n) {
  const std::string where = std::string(kernels::detail::isa_name(isa)) +
                            " m=" + std::to_string(m) +
                            " k=" + std::to_string(k) +
                            " n=" + std::to_string(n);
  std::vector<float> want(static_cast<std::size_t>(m * n));
  kernels::gemm_naive(a.data(), b.data(), want.data(), m, k, n);
  std::vector<float> got(want.size(), 7.0f);  // gemm must overwrite C
  kernels::detail::gemm_with(isa, a.data(), b.data(), got.data(), m, k, n,
                             /*accumulate=*/false);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_TRUE(same_float(got[i], want[i])) << where << " gemm elem " << i;

  std::vector<float> want_acc = c0;
  gemm_acc_reference(a.data(), b.data(), want_acc.data(), m, k, n);
  std::vector<float> got_acc = c0;
  kernels::detail::gemm_with(isa, a.data(), b.data(), got_acc.data(), m, k,
                             n, /*accumulate=*/true);
  for (std::size_t i = 0; i < want_acc.size(); ++i)
    ASSERT_TRUE(same_float(got_acc[i], want_acc[i]))
        << where << " gemm_acc elem " << i;
}

TEST(GemmVariants, SelectedIsWidestSupported) {
  const std::vector<Isa> isas = kernels::detail::supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kPortable);
  EXPECT_EQ(isas.back(), kernels::detail::selected_isa());
  // Printed so a CI log shows which variants this runner exercised.
  std::printf("selected gemm variant: %s; supported:",
              kernels::detail::isa_name(kernels::detail::selected_isa()));
  for (Isa isa : isas) std::printf(" %s", kernels::detail::isa_name(isa));
  std::printf("\n");
}

TEST(GemmVariants, RowAndColumnTailsMatchReference) {
  Rng rng(23);
  for (Isa isa : kernels::detail::supported_isas())
    for (std::int64_t m : {1, 2, 3, 4, 5, 7})
      for (std::int64_t n : {1, 15, 16, 17, 63, 64, 65, 257})
        for (std::int64_t k : {1, 37}) {
          const auto a = uniform(static_cast<std::size_t>(m * k), rng);
          const auto b = uniform(static_cast<std::size_t>(k * n), rng);
          const auto c0 = uniform(static_cast<std::size_t>(m * n), rng);
          expect_variant_matches(isa, a, b, c0, m, k, n);
        }
}

TEST(GemmVariants, ServedPanelShapesMatchReference) {
  // The SeqLSTM / DAG-RNN (h256) and TreeLSTM (h64) panels, at the batch
  // sizes the serving workloads run.
  Rng rng(29);
  for (Isa isa : kernels::detail::supported_isas())
    for (std::int64_t m : {1, 2, 10, 32})
      for (std::int64_t kn : {64, 256}) {
        const auto a = uniform(static_cast<std::size_t>(m * kn), rng);
        const auto b = uniform(static_cast<std::size_t>(kn * kn), rng);
        const auto c0 = uniform(static_cast<std::size_t>(m * kn), rng);
        expect_variant_matches(isa, a, b, c0, m, kn, kn);
      }
}

TEST(GemmVariants, SpecialValuesMatchReference) {
  Rng rng(31);
  for (Isa isa : kernels::detail::supported_isas())
    for (std::int64_t m : {1, 3, 5})
      for (std::int64_t n : {17, 65}) {
        const std::int64_t k = 40;
        auto a = uniform(static_cast<std::size_t>(m * k), rng);
        auto b = uniform(static_cast<std::size_t>(k * n), rng);
        auto c0 = uniform(static_cast<std::size_t>(m * n), rng);
        // Sparse enough that most outputs stay finite.
        sprinkle_specials(a, rng, 50);
        sprinkle_specials(b, rng, 50);
        sprinkle_specials(c0, rng, 4);
        expect_variant_matches(isa, a, b, c0, m, k, n);
      }
}

TEST(GemmVariants, DenormalProductsAndSignedZeroSums) {
  Rng rng(37);
  const std::int64_t m = 5, k = 33, n = 65;
  for (Isa isa : kernels::detail::supported_isas()) {
    // Products near 1e-40 are denormal; their sums must round the same way.
    auto a = uniform(static_cast<std::size_t>(m * k), rng);
    auto b = uniform(static_cast<std::size_t>(k * n), rng);
    for (float& x : a) x *= 1e-20f;
    for (float& x : b) x *= 1e-20f;
    const std::vector<float> c0(static_cast<std::size_t>(m * n), -0.0f);
    expect_variant_matches(isa, a, b, c0, m, k, n);

    // -0 * positive = -0 everywhere: gemm starts from +0 (+0 + -0 = +0),
    // gemm_acc from C = -0 (-0 + -0 = -0).
    const std::vector<float> neg_zero(static_cast<std::size_t>(m * k),
                                      -0.0f);
    const std::vector<float> ones(static_cast<std::size_t>(k * n), 1.0f);
    expect_variant_matches(isa, neg_zero, ones, c0, m, k, n);
    std::vector<float> c(static_cast<std::size_t>(m * n));
    kernels::detail::gemm_with(isa, neg_zero.data(), ones.data(), c.data(),
                               m, k, n, /*accumulate=*/false);
    EXPECT_EQ(bits(c[0]), bits(0.0f)) << kernels::detail::isa_name(isa);
    c = c0;
    kernels::detail::gemm_with(isa, neg_zero.data(), ones.data(), c.data(),
                               m, k, n, /*accumulate=*/true);
    EXPECT_EQ(bits(c[0]), bits(-0.0f)) << kernels::detail::isa_name(isa);
  }
}

TEST(GemmVariants, PublicEntryPointsUseTheSelectedVariant) {
  Rng rng(41);
  const std::int64_t m = 3, k = 50, n = 70;
  const auto a = uniform(static_cast<std::size_t>(m * k), rng);
  const auto b = uniform(static_cast<std::size_t>(k * n), rng);
  const auto c0 = uniform(static_cast<std::size_t>(m * n), rng);
  const Isa isa = kernels::detail::selected_isa();
  std::vector<float> want(static_cast<std::size_t>(m * n));
  kernels::detail::gemm_with(isa, a.data(), b.data(), want.data(), m, k, n,
                             /*accumulate=*/false);
  std::vector<float> got(want.size());
  kernels::gemm(a.data(), b.data(), got.data(), m, k, n);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(bits(got[i]), bits(want[i])) << "gemm elem " << i;
  std::vector<float> want_acc = c0;
  kernels::detail::gemm_with(isa, a.data(), b.data(), want_acc.data(), m, k,
                             n, /*accumulate=*/true);
  std::vector<float> got_acc = c0;
  kernels::gemm_acc(a.data(), b.data(), got_acc.data(), m, k, n);
  for (std::size_t i = 0; i < got_acc.size(); ++i)
    ASSERT_EQ(bits(got_acc[i]), bits(want_acc[i])) << "gemm_acc elem " << i;
}

TEST(GemmVariants, EmptyDimensionsAreNoOps) {
  for (Isa isa : kernels::detail::supported_isas()) {
    std::vector<float> c(4, 3.0f);
    const std::vector<float> a(4, 1.0f), b(4, 1.0f);
    // k == 0: gemm writes zeros, gemm_acc leaves C.
    kernels::detail::gemm_with(isa, a.data(), b.data(), c.data(), 2, 0, 2,
                               /*accumulate=*/true);
    for (float x : c) EXPECT_EQ(x, 3.0f) << kernels::detail::isa_name(isa);
    kernels::detail::gemm_with(isa, a.data(), b.data(), c.data(), 2, 0, 2,
                               /*accumulate=*/false);
    for (float x : c) EXPECT_EQ(bits(x), bits(0.0f));
    // m == 0 or n == 0 touches nothing.
    c.assign(4, 3.0f);
    kernels::detail::gemm_with(isa, a.data(), b.data(), c.data(), 0, 2, 2,
                               /*accumulate=*/false);
    kernels::detail::gemm_with(isa, a.data(), b.data(), c.data(), 2, 2, 0,
                               /*accumulate=*/false);
    for (float x : c) EXPECT_EQ(x, 3.0f);
  }
}

}  // namespace
}  // namespace cortex
