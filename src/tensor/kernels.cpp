#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/logging.hpp"
#include "tensor/kernels_detail.hpp"
#include "tensor/kernels_tile.hpp"

namespace cortex::kernels {

// Numerics contract (tensor/kernels.hpp): every matrix product computes
// each output as one chain of fused multiply-adds over k ascending.
// gemm_naive spells the chain out. The variants instantiate one
// micro-kernel (tensor/kernels_tile.hpp) here and in gemm_avx2.cpp /
// gemm_avx512.cpp, which changes the order in which outputs are computed
// but never a chain, so each variant matches gemm_naive bit for bit and a
// panel GEMM matches per-row gemv. The tree builds with
// -ffp-contract=off, so everything else here, the elementwise kernels
// included, rounds every operation on its own.

void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (std::int64_t p = 0; p < k; ++p)
        s = std::fmaf(a[i * k + p], b[p * n + j], s);
      c[i * n + j] = s;
    }
}

namespace detail {
namespace {

template <> inline float fmadd(float a, float b, float c) {
  return std::fmaf(a, b, c);
}

}  // namespace

// Built for the baseline target, where each fmaf is a libm call: exact
// everywhere, fast nowhere. Only hosts without AVX2 and FMA, and the
// tests, run it.
void gemm_portable(const GemmArgs& g) { gemm_tiles<float, 8, 4, 4>(g); }

void gemv_portable(const float* a, const float* x, float* y, std::int64_t m,
                   std::int64_t k) {
  gemv_rows<4>(a, x, y, m, k);
}

}  // namespace detail

namespace {

detail::Isa detect_isa() {
#ifdef CORTEX_X86_SIMD_VARIANTS
  // libgcc's CPUID probe also checks (XGETBV) that the OS saves the ymm /
  // zmm state before it reports AVX2 / AVX-512F. The wide variants fuse
  // every multiply-add, so they also need FMA.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("fma")) {
    if (__builtin_cpu_supports("avx512f")) return detail::Isa::kAvx512;
    if (__builtin_cpu_supports("avx2")) return detail::Isa::kAvx2;
  }
#endif
  return detail::Isa::kPortable;
}

void run_gemm(detail::Isa isa, const detail::GemmArgs& g) {
  switch (isa) {
#ifdef CORTEX_X86_SIMD_VARIANTS
    case detail::Isa::kAvx512:
      return detail::gemm_avx512(g);
    case detail::Isa::kAvx2:
      return detail::gemm_avx2(g);
#endif
    default:
      return detail::gemm_portable(g);
  }
}

void run_gemv(detail::Isa isa, const float* a, const float* x, float* y,
              std::int64_t m, std::int64_t k) {
  switch (isa) {
#ifdef CORTEX_X86_SIMD_VARIANTS
    case detail::Isa::kAvx512:
      return detail::gemv_avx512(a, x, y, m, k);
    case detail::Isa::kAvx2:
      return detail::gemv_avx2(a, x, y, m, k);
#endif
    default:
      return detail::gemv_portable(a, x, y, m, k);
  }
}

void check_args(detail::Isa isa, const detail::GemmArgs& g) {
  CORTEX_CHECK(detail::supported(isa))
      << "gemm variant " << detail::isa_name(isa) << " is not supported here";
  CORTEX_CHECK(0 <= g.j0 && g.j0 <= g.j1 && g.j1 <= g.n)
      << "gemm columns [" << g.j0 << ", " << g.j1 << ") outside [0, " << g.n
      << ")";
}

}  // namespace

namespace detail {

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kPortable:
      return "portable";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "?";
}

bool supported(Isa isa) {
  // Support is nested (AVX-512F implies AVX2, and both wide variants need
  // FMA), so the enum order is the support order.
  return isa <= selected_isa();
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kPortable, Isa::kAvx2, Isa::kAvx512})
    if (supported(isa)) out.push_back(isa);
  return out;
}

Isa selected_isa() {
  static const Isa isa = detect_isa();
  return isa;
}

void gemm_with(Isa isa, const float* a, const float* b, float* c,
               std::int64_t m, std::int64_t k, std::int64_t n,
               bool accumulate) {
  const GemmArgs g{a, b, c, m, k, n, 0, n, /*packed=*/false, accumulate};
  check_args(isa, g);
  run_gemm(isa, g);
}

void gemm_packed_with(Isa isa, const float* a, const float* bp, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n,
                      std::int64_t j0, std::int64_t j1) {
  const GemmArgs g{a, bp, c, m, k, n, j0, j1, /*packed=*/true,
                   /*accumulate=*/false};
  check_args(isa, g);
  run_gemm(isa, g);
}

void gemv_with(Isa isa, const float* a, const float* x, float* y,
               std::int64_t m, std::int64_t k) {
  CORTEX_CHECK(supported(isa))
      << "gemv variant " << isa_name(isa) << " is not supported here";
  run_gemv(isa, a, x, y, m, k);
}

}  // namespace detail

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  run_gemm(detail::selected_isa(),
           {a, b, c, m, k, n, 0, n, /*packed=*/false, /*accumulate=*/false});
}

void pack_strips(const float* w, float* out, std::int64_t n,
                 std::int64_t k) {
  for (std::int64_t c0 = 0; c0 < n; c0 += detail::kStripCols) {
    const std::int64_t width = std::min(detail::kStripCols, n - c0);
    float* strip = out + c0 * k;
    for (std::int64_t p = 0; p < k; ++p)
      for (std::int64_t j = 0; j < width; ++j)
        strip[p * width + j] = w[(c0 + j) * k + p];
  }
}

void gemm_packed(const float* a, const float* bp, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, std::int64_t j0,
                 std::int64_t j1) {
  run_gemm(detail::selected_isa(),
           {a, bp, c, m, k, n, j0, j1, /*packed=*/true, /*accumulate=*/false});
}

void gemv(const float* a, const float* x, float* y, std::int64_t m,
          std::int64_t k) {
  run_gemv(detail::selected_isa(), a, x, y, m, k);
}

void fill(float* out, float v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = v;
}

void copy(const float* a, float* out, std::int64_t n) {
  std::memcpy(out, a, sizeof(float) * n);
}

void acc(const float* a, float* accum, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) accum[i] += a[i];
}

void gather_rows(const float* table, const std::int32_t* idx, float* out,
                 std::int64_t rows, std::int64_t width) {
  gather_rows_strided(table, width, idx, out, rows, width);
}

void gather_rows_strided(const float* table, std::int64_t stride,
                         const std::int32_t* idx, float* out,
                         std::int64_t rows, std::int64_t width) {
  for (std::int64_t r = 0; r < rows; ++r)
    std::memcpy(out + r * width, table + idx[r] * stride,
                sizeof(float) * width);
}

}  // namespace cortex::kernels
