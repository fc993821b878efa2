#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

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

void add(const float* a, const float* b, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void sub(const float* a, const float* b, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void mul(const float* a, const float* b, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
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

Tensor matmul(const Tensor& a, const Tensor& b) {
  CORTEX_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 &&
               a.shape().dim(1) == b.shape().dim(0))
      << "matmul shapes " << a.shape().str() << " x " << b.shape().str();
  Tensor c({a.shape().dim(0), b.shape().dim(1)});
  gemm(a.data(), b.data(), c.data(), a.shape().dim(0), a.shape().dim(1),
       b.shape().dim(1));
  return c;
}

Tensor linear(const Tensor& in, const Tensor& w) {
  CORTEX_CHECK(in.shape().rank() == 2 && w.shape().rank() == 2 &&
               in.shape().dim(1) == w.shape().dim(1))
      << "linear shapes " << in.shape().str() << " with W "
      << w.shape().str();
  const std::int64_t rows = in.shape().dim(0);
  const std::int64_t k = in.shape().dim(1);
  const std::int64_t m = w.shape().dim(0);
  Tensor out({rows, m});
  // out = in @ W^T; implemented row-by-row as GEMV to match how the
  // frameworks dispatch per-node work.
  for (std::int64_t r = 0; r < rows; ++r)
    gemv(w.data(), in.row(r), out.row(r), m, k);
  return out;
}

namespace {
Tensor binary_elementwise(const Tensor& a, const Tensor& b,
                          void (*f)(const float*, const float*, float*,
                                    std::int64_t)) {
  CORTEX_CHECK(a.shape() == b.shape())
      << "elementwise shapes " << a.shape().str() << " vs "
      << b.shape().str();
  Tensor out(a.shape());
  f(a.data(), b.data(), out.data(), a.numel());
  return out;
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_elementwise(a, b, &add);
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_elementwise(a, b, &sub);
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_elementwise(a, b, &mul);
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  CORTEX_CHECK(bias.shape().rank() == 1 && a.shape().rank() >= 1 &&
               a.shape().dim(a.shape().rank() - 1) == bias.shape().dim(0))
      << "add_bias shapes " << a.shape().str() << " + " << bias.shape().str();
  Tensor out(a.shape());
  const std::int64_t w = bias.shape().dim(0);
  const std::int64_t rows = a.numel() / w;
  for (std::int64_t r = 0; r < rows; ++r)
    add(a.data() + r * w, bias.data(), out.data() + r * w, w);
  return out;
}

Tensor concat_last(const Tensor& a, const Tensor& b) {
  CORTEX_CHECK(a.shape().rank() == b.shape().rank() && a.shape().rank() >= 1)
      << "concat_last ranks";
  const std::size_t rk = a.shape().rank();
  for (std::size_t i = 0; i + 1 < rk; ++i)
    CORTEX_CHECK(a.shape().dim(i) == b.shape().dim(i))
        << "concat_last leading dims " << a.shape().str() << " vs "
        << b.shape().str();
  std::vector<std::int64_t> dims = a.shape().dims();
  const std::int64_t wa = a.shape().dim(rk - 1);
  const std::int64_t wb = b.shape().dim(rk - 1);
  dims[rk - 1] = wa + wb;
  Tensor out{Shape(dims)};
  const std::int64_t rows = a.numel() / (wa == 0 ? 1 : wa);
  for (std::int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * (wa + wb), a.data() + r * wa,
                sizeof(float) * wa);
    std::memcpy(out.data() + r * (wa + wb) + wa, b.data() + r * wb,
                sizeof(float) * wb);
  }
  return out;
}

}  // namespace cortex::kernels
