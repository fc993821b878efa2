// The AVX2 variant of the panel GEMM and GEMV (tensor/kernels_tile.hpp):
// 32-byte vectors with explicit FMA intrinsics. This file alone is built
// with -mavx2 -mfma (src/CMakeLists.txt); kernels.cpp calls into it only
// when CPUID reports both.

#include "tensor/kernels_detail.hpp"

#ifdef CORTEX_X86_SIMD_VARIANTS
#include <immintrin.h>

#include "tensor/kernels_tile.hpp"

namespace cortex::kernels::detail {
namespace {

typedef float F8 __attribute__((vector_size(32)));
typedef float F4 __attribute__((vector_size(16)));

template <> struct Narrower<F8> { using type = F4; };

// The intrinsics take <immintrin.h>'s vector types; a cast between two
// vector types of one size keeps the bits.
template <> inline F8 fmadd(F8 a, F8 b, F8 c) {
  return (F8)_mm256_fmadd_ps((__m256)a, (__m256)b, (__m256)c);
}
template <> inline F4 fmadd(F4 a, F4 b, F4 c) {
  return (F4)_mm_fmadd_ps((__m128)a, (__m128)b, (__m128)c);
}
template <> inline float fmadd(float a, float b, float c) {
  return __builtin_fmaf(a, b, c);
}

}  // namespace

// 2 x 4 or 6 x 2 ymm accumulators, plus the B vectors and the broadcast:
// at most 15 of the 16 ymm registers. Six rows rather than four load each
// B vector for six FMAs (BM_PanelGemm avx2 m:16 / m:26 rows, 8-14%
// faster).
void gemm_avx2(const GemmArgs& g) { gemm_tiles<F8, 4, 6, 2>(g); }

void gemv_avx2(const float* a, const float* x, float* y, std::int64_t m,
               std::int64_t k) {
  gemv_rows<8>(a, x, y, m, k);
}

}  // namespace cortex::kernels::detail
#endif
