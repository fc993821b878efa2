#include "tensor/kernels.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/kernels_detail.hpp"

namespace cortex::kernels {

void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) s += a[i * k + p] * b[p * n + j];
      c[i * n + j] = s;
    }
}

namespace {

// Numerics contract: for every output element, the k accumulation is a
// single chain of multiply-adds in ascending p order — exactly gemv's
// order — so a GEMM over a [rows, k] panel is bit-identical to rows
// independent GEMVs. The batched wavefront executor relies on this.
//
// Every variant below keeps that chain: acc = acc + a*b, a rounded
// multiply then a rounded add, p ascending, starting from +0.0f (or from
// C in gemm_acc). The tree compiles with -ffp-contract=off, so the wide
// variants never fuse the pair into an FMA.

// Portable variant (hosts without AVX2). i-k-j loop order keeps B and C
// accesses unit-stride, which the compiler auto-vectorizes; blocking on k
// keeps the B panel in L1/L2. The i loop is register-tiled 4 rows at a
// time so each B row pulled from cache is used four times, and the
// __restrict qualifiers let the unit-stride j loops vectorize without
// runtime alias checks.
constexpr std::int64_t kBlockK = 64;
constexpr std::int64_t kTileM = 4;

void gemm_impl(const float* __restrict a, const float* __restrict b,
               float* __restrict c, std::int64_t m, std::int64_t k,
               std::int64_t n, std::int64_t j0, std::int64_t j1,
               bool accumulate) {
  if (!accumulate)
    for (std::int64_t i = 0; i < m; ++i)
      std::memset(c + i * n + j0, 0, sizeof(float) * (j1 - j0));
  for (std::int64_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::int64_t p1 = std::min(p0 + kBlockK, k);
    std::int64_t i = 0;
    for (; i + kTileM <= m; i += kTileM) {
      float* __restrict c0 = c + (i + 0) * n;
      float* __restrict c1 = c + (i + 1) * n;
      float* __restrict c2 = c + (i + 2) * n;
      float* __restrict c3 = c + (i + 3) * n;
      for (std::int64_t p = p0; p < p1; ++p) {
        const float a0 = a[(i + 0) * k + p];
        const float a1 = a[(i + 1) * k + p];
        const float a2 = a[(i + 2) * k + p];
        const float a3 = a[(i + 3) * k + p];
        const float* __restrict brow = b + p * n;
        for (std::int64_t j = j0; j < j1; ++j) {
          c0[j] += a0 * brow[j];
          c1[j] += a1 * brow[j];
          c2[j] += a2 * brow[j];
          c3[j] += a3 * brow[j];
        }
      }
    }
    for (; i < m; ++i) {
      float* __restrict crow = c + i * n;
      for (std::int64_t p = p0; p < p1; ++p) {
        const float av = a[i * k + p];
        const float* __restrict brow = b + p * n;
        for (std::int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

#ifdef CORTEX_X86_SIMD_VARIANTS
// Register-blocked variants, written once over GCC/Clang vector types and
// compiled per instruction set: every helper is always_inline, so its body
// takes the target of the entry point it is inlined into (gemm_avx512 /
// gemm_avx2 below) and the vector types lower to zmm / ymm registers.
typedef float F16 __attribute__((vector_size(64)));
typedef float F8 __attribute__((vector_size(32)));
typedef float F4 __attribute__((vector_size(16)));

// Column tails run at half the width, down to single floats.
template <class V> struct Narrower;
template <> struct Narrower<F16> { using type = F8; };
template <> struct Narrower<F8> { using type = F4; };
template <> struct Narrower<F4> { using type = float; };

template <class V>
constexpr std::int64_t kLanes = static_cast<std::int64_t>(sizeof(V) /
                                                          sizeof(float));

// C[0:MR, 0:NV*lanes] of a tile whose top-left element is c. The MR x NV
// accumulators stay in registers for the whole k loop: C is read (gemm_acc)
// and written once, never per p. Unaligned vector loads and stores are
// memcpys (one unaligned move each); no vector crosses a call boundary,
// whose ABI would depend on the target.
template <class V, int MR, int NV>
[[gnu::always_inline]] inline void tile(const float* a, const float* b,
                                        float* c, std::int64_t k,
                                        std::int64_t n, bool accumulate) {
  V acc[MR][NV];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v)
      if (accumulate)
        std::memcpy(&acc[r][v], c + r * n + v * kLanes<V>, sizeof(V));
      else
        acc[r][v] = V{};
  for (std::int64_t p = 0; p < k; ++p) {
    V bv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v)
      std::memcpy(&bv[v], b + p * n + v * kLanes<V>, sizeof(V));
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      // Broadcast a[r][p]: x - (+0.0f) is x for every x, -0.0f included.
      const V av = a[r * k + p] - V{};
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + av * bv[v];
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v)
      std::memcpy(c + r * n + v * kLanes<V>, &acc[r][v], sizeof(V));
}

// Rows [i, m) of the column strip at j, m - i < MR: one tile of the
// largest height that fits, then the rest.
template <class V, int MR, int NV>
[[gnu::always_inline]] inline void row_tail(
    const float* a, const float* b, float* c, std::int64_t i, std::int64_t m,
    std::int64_t k, std::int64_t n, std::int64_t j, bool accumulate) {
  if constexpr (MR > 1) {
    constexpr int kRows = MR - 1;
    if (m - i >= kRows) {
      tile<V, kRows, NV>(a + i * k, b + j, c + i * n + j, k, n, accumulate);
      i += kRows;
    }
    row_tail<V, kRows, NV>(a, b, c, i, m, k, n, j, accumulate);
  }
}

// Columns [j, j + NV*lanes) of every row: MR-row tiles, then the row tail.
template <class V, int MR, int NV>
[[gnu::always_inline]] inline void column_strip(
    const float* a, const float* b, float* c, std::int64_t m,
    std::int64_t k, std::int64_t n, std::int64_t j, bool accumulate) {
  std::int64_t i = 0;
  for (; i + MR <= m; i += MR)
    tile<V, MR, NV>(a + i * k, b + j, c + i * n + j, k, n, accumulate);
  row_tail<V, MR, NV>(a, b, c, i, m, k, n, j, accumulate);
}

// Columns [j, j1) of rows n floats apart: strips NV vectors wide, then
// at most one strip of each halved width, then the remainder at half the
// vector width.
template <class V, int MR, int NV>
[[gnu::always_inline]] inline void gemm_columns(
    const float* a, const float* b, float* c, std::int64_t m,
    std::int64_t k, std::int64_t n, std::int64_t j, std::int64_t j1,
    bool accumulate) {
  constexpr std::int64_t kStrip = NV * kLanes<V>;
  for (; j + kStrip <= j1; j += kStrip)
    column_strip<V, MR, NV>(a, b, c, m, k, n, j, accumulate);
  if constexpr (NV > 1) {
    gemm_columns<V, MR, NV / 2>(a, b, c, m, k, n, j, j1, accumulate);
  } else if constexpr (kLanes<V> > 1) {
    gemm_columns<typename Narrower<V>::type, MR, 1>(a, b, c, m, k, n, j, j1,
                                                    accumulate);
  }
}

// Panels of one or two rows (a batch-1 chain's GEMVs) reuse each B vector
// at most twice, so they keep more columns in flight instead: enough
// independent add chains to hide the add latency. Taller panels use four
// rows, so each B vector loaded serves four broadcasts.
//
// AVX-512: 2 x 8 or 4 x 4 zmm accumulators, plus the B vectors and the
// broadcast — at most 26 of the 32 zmm registers.
[[gnu::target("avx512f")]] void gemm_avx512(
    const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
    std::int64_t n, std::int64_t j0, std::int64_t j1, bool accumulate) {
  if (m <= 2)
    gemm_columns<F16, 2, 8>(a, b, c, m, k, n, j0, j1, accumulate);
  else
    gemm_columns<F16, 4, 4>(a, b, c, m, k, n, j0, j1, accumulate);
}

// AVX2: 2 x 4 or 4 x 2 ymm accumulators, plus the B vectors, the
// broadcast and a product — at most 14 of the 16 ymm registers (4 x 4
// would spill).
[[gnu::target("avx2")]] void gemm_avx2(
    const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
    std::int64_t n, std::int64_t j0, std::int64_t j1, bool accumulate) {
  if (m <= 2)
    gemm_columns<F8, 2, 4>(a, b, c, m, k, n, j0, j1, accumulate);
  else
    gemm_columns<F8, 4, 2>(a, b, c, m, k, n, j0, j1, accumulate);
}
#endif

detail::Isa detect_isa() {
#ifdef CORTEX_X86_SIMD_VARIANTS
  // libgcc's CPUID probe also checks (XGETBV) that the OS saves the ymm /
  // zmm state before it reports AVX2 / AVX-512F.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return detail::Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return detail::Isa::kAvx2;
#endif
  return detail::Isa::kPortable;
}

// Columns [j0, j1) of C[m, n] (+)= A[m, k] * B[k, n].
void run_gemm(detail::Isa isa, const float* a, const float* b, float* c,
              std::int64_t m, std::int64_t k, std::int64_t n, std::int64_t j0,
              std::int64_t j1, bool accumulate) {
  switch (isa) {
#ifdef CORTEX_X86_SIMD_VARIANTS
    case detail::Isa::kAvx512:
      gemm_avx512(a, b, c, m, k, n, j0, j1, accumulate);
      return;
    case detail::Isa::kAvx2:
      gemm_avx2(a, b, c, m, k, n, j0, j1, accumulate);
      return;
#endif
    default:
      gemm_impl(a, b, c, m, k, n, j0, j1, accumulate);
      return;
  }
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
  // Support is nested (AVX-512F implies AVX2), so the enum order is the
  // support order.
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
  gemm_cols_with(isa, a, b, c, m, k, n, 0, n, accumulate);
}

void gemm_cols_with(Isa isa, const float* a, const float* b, float* c,
                    std::int64_t m, std::int64_t k, std::int64_t n,
                    std::int64_t j0, std::int64_t j1, bool accumulate) {
  CORTEX_CHECK(supported(isa))
      << "gemm variant " << isa_name(isa) << " is not supported here";
  CORTEX_CHECK(0 <= j0 && j0 <= j1 && j1 <= n)
      << "gemm columns [" << j0 << ", " << j1 << ") outside [0, " << n << ")";
  run_gemm(isa, a, b, c, m, k, n, j0, j1, accumulate);
}

}  // namespace detail

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  run_gemm(detail::selected_isa(), a, b, c, m, k, n, 0, n,
           /*accumulate=*/false);
}

void gemm_cols(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, std::int64_t j0,
               std::int64_t j1) {
  run_gemm(detail::selected_isa(), a, b, c, m, k, n, j0, j1,
           /*accumulate=*/false);
}

void gemm_acc(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  run_gemm(detail::selected_isa(), a, b, c, m, k, n, 0, n,
           /*accumulate=*/true);
}

void gemv(const float* a, const float* x, float* y, std::int64_t m,
          std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float s = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) s += arow[p] * x[p];
    y[i] = s;
  }
}

void gemv_acc(const float* a, const float* x, float* y, std::int64_t m,
              std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float s = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) s += arow[p] * x[p];
    y[i] += s;
  }
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

void mul_acc(const float* a, const float* b, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] += a[i] * b[i];
}

void add_scalar(const float* a, float s, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + s;
}

void scale(const float* a, float s, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] * s;
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

void concat2(const float* a, const float* b, float* out, std::int64_t n) {
  std::memcpy(out, a, sizeof(float) * n);
  std::memcpy(out + n, b, sizeof(float) * n);
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

void transpose(const float* a, float* out, std::int64_t m, std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t p = 0; p < k; ++p) out[p * m + i] = a[i * k + p];
}

void scatter_rows(float* table, const std::int32_t* idx, const float* in,
                  std::int64_t rows, std::int64_t width) {
  for (std::int64_t r = 0; r < rows; ++r)
    std::memcpy(table + idx[r] * width, in + r * width,
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
