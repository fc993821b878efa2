// Every instruction-set variant of kernels::gemm / gemm_packed / gemv that
// this host supports, against the scalar references bit for bit: row
// tails, column tails, k-blocks, packed strips and their tails,
// accumulation into C (the form later k-blocks run in), and inputs
// holding signed zeros, infinities, NaNs and denormals. The served
// numerics are bit-identical to the per-node gemv oracle only because
// every variant computes each output as the same chain of fused
// multiply-adds, fmaf over k ascending.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
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

// The accumulating form's contract: the chain starts from C, not zero.
void accumulate_reference(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float s = c[i * n + j];
      for (std::int64_t p = 0; p < k; ++p)
        s = std::fmaf(a[i * k + p], b[p * n + j], s);
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

// Runs gemm with `isa` on (a, b), and accumulating into c0, and checks
// both against the scalar references, element by element.
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
  accumulate_reference(a.data(), b.data(), want_acc.data(), m, k, n);
  std::vector<float> got_acc = c0;
  kernels::detail::gemm_with(isa, a.data(), b.data(), got_acc.data(), m, k,
                             n, /*accumulate=*/true);
  for (std::size_t i = 0; i < want_acc.size(); ++i)
    ASSERT_TRUE(same_float(got_acc[i], want_acc[i]))
        << where << " accumulating elem " << i;
}

TEST(GemmVariants, SelectedIsWidestSupported) {
  const std::vector<Isa> isas = kernels::detail::supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kPortable);
  EXPECT_EQ(isas.back(), kernels::detail::selected_isa());
  // Printed so a CI log shows which variants this runner exercised, and
  // whether the served products fuse with FMA instructions (kAvx2 and
  // kAvx512 are selected only with FMA) or with std::fmaf calls.
  const Isa selected = kernels::detail::selected_isa();
  std::printf("selected gemm variant: %s (FMA instructions: %s); supported:",
              kernels::detail::isa_name(selected),
              selected == Isa::kPortable ? "no, std::fmaf" : "yes");
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
    // accumulating from C = -0 (-0 + -0 = -0).
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

// W = B^T for row-major B[k, n], packed for gemm_packed.
std::vector<float> packed_from(const std::vector<float>& b, std::int64_t k,
                               std::int64_t n) {
  std::vector<float> w(static_cast<std::size_t>(k * n));
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t j = 0; j < n; ++j)
      w[static_cast<std::size_t>(j * k + p)] =
          b[static_cast<std::size_t>(p * n + j)];
  std::vector<float> bp(w.size());
  kernels::pack_strips(w.data(), bp.data(), n, k);
  return bp;
}

TEST(GemmVariants, ChainIsFused) {
  // Row i of A is [-(1 + 2^-11), 0, ..., 0, 1 + 2^-12] and column j of B
  // is [1, junk, ..., junk, 1 + 2^-12]. The last product is
  // 1 + 2^-11 + 2^-24 exactly: a fused multiply-add keeps the 2^-24, a
  // rounded multiply loses it (a tie, rounded to even) before the add. The
  // k of 130 spans two k-blocks, so the chain also crosses C.
  const std::int64_t k = 130, n = 70;
  const float lead = -(1.0f + 0x1p-11f);
  const float tail = 1.0f + 0x1p-12f;
  const float fused = 0x1p-24f;
  ASSERT_EQ(std::fmaf(tail, tail, lead), fused);
  ASSERT_EQ(lead + tail * tail, 0.0f);  // -ffp-contract=off: not fused

  Rng rng(43);
  std::vector<float> b = uniform(static_cast<std::size_t>(k * n), rng);
  for (std::int64_t j = 0; j < n; ++j) {
    b[static_cast<std::size_t>(j)] = 1.0f;
    b[static_cast<std::size_t>((k - 1) * n + j)] = tail;
  }
  const std::vector<float> bp = packed_from(b, k, n);
  std::vector<float> x(static_cast<std::size_t>(k));
  for (std::int64_t p = 0; p < k; ++p)
    x[static_cast<std::size_t>(p)] = b[static_cast<std::size_t>(p * n)];

  for (Isa isa : kernels::detail::supported_isas())
    for (std::int64_t m : {1, 2, 3, 5}) {
      std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
      for (std::int64_t i = 0; i < m; ++i) {
        a[static_cast<std::size_t>(i * k)] = lead;
        a[static_cast<std::size_t>(i * k + k - 1)] = tail;
      }
      const std::string where =
          std::string(kernels::detail::isa_name(isa)) + " m=" +
          std::to_string(m);
      const auto expect_fused = [&](const std::vector<float>& c,
                                    std::int64_t j0, std::int64_t j1,
                                    const char* what) {
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t j = j0; j < j1; ++j)
            ASSERT_EQ(bits(c[static_cast<std::size_t>(i * n + j)]),
                      bits(fused))
                << where << " " << what << " elem (" << i << ", " << j
                << ")";
      };
      std::vector<float> c(static_cast<std::size_t>(m * n));
      kernels::detail::gemm_with(isa, a.data(), b.data(), c.data(), m, k, n,
                                 /*accumulate=*/false);
      expect_fused(c, 0, n, "gemm");
      kernels::detail::gemm_packed_with(isa, a.data(), bp.data(), c.data(),
                                        m, k, n, 0, n);
      expect_fused(c, 0, n, "gemm_packed");
      std::fill(c.begin(), c.end(), 0.0f);
      kernels::detail::gemm_packed_with(isa, a.data(), bp.data(), c.data(),
                                        m, k, n, 16, 48);
      expect_fused(c, 16, 48, "gemm_packed columns");
      std::vector<float> y(static_cast<std::size_t>(m));
      kernels::detail::gemv_with(isa, a.data(), x.data(), y.data(), m, k);
      for (std::int64_t i = 0; i < m; ++i)
        ASSERT_EQ(bits(y[static_cast<std::size_t>(i)]), bits(fused))
            << where << " gemv row " << i;
    }
}

TEST(GemmVariants, PackedMatchesRowMajor) {
  // gemm_packed over every share a column split can take (shares start
  // and end on 16-column edges, or at n) against the same columns of gemm
  // over the row-major B: n = 200 ends in an 8-wide strip, k = 130 in a
  // 2-deep k-block, and m covers the 2-row pair tiles, 4-row tiles and
  // their row tails. Inputs carry signed zeros, infinities and NaNs.
  Rng rng(47);
  const std::int64_t k = 130, n = 200;
  std::vector<std::int64_t> edges;
  for (std::int64_t j = 0; j < n; j += 16) edges.push_back(j);
  edges.push_back(n);
  std::vector<std::pair<std::int64_t, std::int64_t>> shares;
  for (std::size_t e = 0; e + 1 < edges.size(); ++e) {
    shares.emplace_back(edges[e], edges[e + 1]);
    shares.emplace_back(edges[e], n);
    shares.emplace_back(0, edges[e + 1]);
  }
  auto b = uniform(static_cast<std::size_t>(k * n), rng);
  sprinkle_specials(b, rng, 200);
  const std::vector<float> bp = packed_from(b, k, n);
  for (std::int64_t m : {1, 2, 3, 4, 5, 17}) {
    auto a = uniform(static_cast<std::size_t>(m * k), rng);
    sprinkle_specials(a, rng, 200);
    std::vector<float> want(static_cast<std::size_t>(m * n));
    kernels::gemm_naive(a.data(), b.data(), want.data(), m, k, n);
    for (Isa isa : kernels::detail::supported_isas()) {
      std::vector<float> row_major(want.size());
      kernels::detail::gemm_with(isa, a.data(), b.data(), row_major.data(),
                                 m, k, n, /*accumulate=*/false);
      for (const auto& [j0, j1] : shares) {
        const std::string where =
            std::string(kernels::detail::isa_name(isa)) +
            " m=" + std::to_string(m) + " cols [" + std::to_string(j0) +
            ", " + std::to_string(j1) + ")";
        std::vector<float> packed(want.size(), -3.0f);
        kernels::detail::gemm_packed_with(isa, a.data(), bp.data(),
                                          packed.data(), m, k, n, j0, j1);
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t j = 0; j < n; ++j) {
            const std::size_t e = static_cast<std::size_t>(i * n + j);
            const bool in_share = j >= j0 && j < j1;
            ASSERT_TRUE(
                same_float(packed[e], in_share ? row_major[e] : -3.0f))
                << where << " elem (" << i << ", " << j << ")";
            ASSERT_TRUE(same_float(packed[e], in_share ? want[e] : -3.0f))
                << where << " elem (" << i << ", " << j << ")";
          }
      }
    }
  }
}

TEST(GemmVariants, PublicEntryPointsUseTheSelectedVariant) {
  Rng rng(41);
  const std::int64_t m = 3, k = 50, n = 70;
  const auto a = uniform(static_cast<std::size_t>(m * k), rng);
  const auto b = uniform(static_cast<std::size_t>(k * n), rng);
  const Isa isa = kernels::detail::selected_isa();
  std::vector<float> want(static_cast<std::size_t>(m * n));
  kernels::detail::gemm_with(isa, a.data(), b.data(), want.data(), m, k, n,
                             /*accumulate=*/false);
  std::vector<float> got(want.size());
  kernels::gemm(a.data(), b.data(), got.data(), m, k, n);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(bits(got[i]), bits(want[i])) << "gemm elem " << i;
  const std::vector<float> bp = packed_from(b, k, n);
  std::vector<float> got_packed(want.size());
  kernels::gemm_packed(a.data(), bp.data(), got_packed.data(), m, k, n, 0, n);
  for (std::size_t i = 0; i < got_packed.size(); ++i)
    ASSERT_EQ(bits(got_packed[i]), bits(want[i])) << "gemm_packed elem " << i;
  // y = A x with x the first k floats of b.
  std::vector<float> want_y(static_cast<std::size_t>(m));
  kernels::detail::gemv_with(isa, a.data(), b.data(), want_y.data(), m, k);
  std::vector<float> got_y(want_y.size());
  kernels::gemv(a.data(), b.data(), got_y.data(), m, k);
  for (std::size_t i = 0; i < got_y.size(); ++i)
    ASSERT_EQ(bits(got_y[i]), bits(want_y[i])) << "gemv elem " << i;
}

TEST(GemmVariants, EmptyDimensionsAreNoOps) {
  for (Isa isa : kernels::detail::supported_isas()) {
    std::vector<float> c(4, 3.0f);
    const std::vector<float> a(4, 1.0f), b(4, 1.0f);
    // k == 0: gemm writes zeros, accumulating leaves C.
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
