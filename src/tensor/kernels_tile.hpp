#pragma once
// The panel GEMM and GEMV micro-kernels, written once and compiled per
// instruction set: kernels.cpp instantiates them over plain floats (the
// portable variant), gemm_avx2.cpp and gemm_avx512.cpp over 32- and
// 64-byte GCC/Clang vector types in translation units built with
// -mavx2 -mfma / -mavx512f -mfma. Each of those files specializes fmadd for
// the vector types it uses before instantiating anything, and everything
// below has internal linkage, so no instantiation built for a wide target
// can stand in for another variant's at link time.
//
// Numerics contract: every output element is one chain of fused
// multiply-adds, acc = fmaf(a[i][p], b[p][j], acc) for p ascending, from
// +0.0f (or from C when accumulating). Tiles, k-blocks and the B layout
// change only which elements are computed when, never a chain's order or
// rounding, so every variant and layout is bit-identical to gemm_naive.

#include <cstdint>
#include <cstring>

namespace cortex::kernels::detail {

/// One call: columns [j0, j1) of C[m, n] (+)= A[m, k] * B[k, n]. A and C
/// are row-major. B is row-major too (row p at b + p * n), or with
/// `packed` in kernels::pack_strips' 64-column strips.
struct GemmArgs {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  std::int64_t m = 0, k = 0, n = 0, j0 = 0, j1 = 0;
  bool packed = false;
  bool accumulate = false;
};

void gemm_portable(const GemmArgs& g);
void gemv_portable(const float* a, const float* x, float* y, std::int64_t m,
                   std::int64_t k);
#ifdef CORTEX_X86_SIMD_VARIANTS
void gemm_avx2(const GemmArgs& g);
void gemv_avx2(const float* a, const float* x, float* y, std::int64_t m,
               std::int64_t k);
void gemm_avx512(const GemmArgs& g);
void gemv_avx512(const float* a, const float* x, float* y, std::int64_t m,
                 std::int64_t k);
#endif

namespace {

/// Columns per packed strip. A strip of B holds 64 columns for all k rows,
/// each row 64 contiguous floats: one row of a 4-zmm-wide tile is four
/// whole cache lines, and a tile reads B as one sequential stream.
/// bench_micro_kernels BM_PanelGemm/avx512, kn = 256, rowmajor vs packed,
/// median of 6 alternating runs on a 4-vCPU AVX-512 Xeon: m:1 8.6 vs
/// 7.5 µs, m:16 29.7 vs 27.2 µs, m:26 47.8 vs 41.9 µs, m:1024 1.71 vs
/// 1.53 ms.
constexpr std::int64_t kStripCols = 64;

/// Depth of a k-block for panels of three or more rows: a 128 x 64 block
/// of one strip is 32 KiB and stays in L1 while every row tile of the
/// panel reuses it, however deep k is. Between blocks the partial sums
/// wait in C, which holds exactly the float the accumulator held, so the
/// chain is unchanged. At the served k = 256 the depth is not a lever:
/// BM_PanelGemm/avx512/packed with blocks of 64 / 128 / 256 (none), median
/// of 4 runs, m:16 28.5 / 28.7 / 27.7 µs, m:26 43.5 / 45.3 / 46.0 µs,
/// m:1024 1.74 / 1.67 / 1.61 ms.
constexpr std::int64_t kBlockK = 128;

/// fmaf(a, b, c) lane by lane; specialized by each variant's file.
template <class V> V fmadd(V a, V b, V c);

template <class V>
constexpr std::int64_t kLanes = static_cast<std::int64_t>(sizeof(V) /
                                                          sizeof(float));

/// Column tails run at half the vector width, down to single floats;
/// each variant's file specializes this for its vector types.
template <class V> struct Narrower { using type = float; };

/// One k-block of a column range: A's rows lda floats apart; B's rows
/// ldb apart (64 inside a strip, n row-major), and B's column 64 at
/// bnext floats from its column 0 (the next strip when packed, 64 when
/// row-major); C's rows ldc apart. a, b and c point at the range's first
/// k and column.
struct Span {
  const float* a;
  const float* b;
  float* c;
  std::int64_t lda, ldb, bnext, ldc, m, k;
  bool accumulate;
};

// C[i:i+MR, j:j+NV*lanes] of span s. The MR x NV accumulators stay in
// registers for the whole k loop: C is read (when accumulating) and
// written once. Unaligned vector loads and stores are memcpys (one
// unaligned move each).
template <class V, int MR, int NV>
[[gnu::always_inline]] inline void tile(const Span& s, std::int64_t i,
                                        std::int64_t j) {
  const float* a = s.a + i * s.lda;
  // Columns 64 and up of a pair tile live in the next strip; indexing
  // them from their own base keeps every vector's offset a constant.
  constexpr bool kPair = NV * kLanes<V> > kStripCols;
  const float* b_lo = s.b + j;
  const float* b_hi = kPair ? b_lo + s.bnext - kStripCols : b_lo;
  float* c = s.c + i * s.ldc + j;
  V acc[MR][NV];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v)
      if (s.accumulate)
        std::memcpy(&acc[r][v], c + r * s.ldc + v * kLanes<V>, sizeof(V));
      else
        acc[r][v] = V{};
  for (std::int64_t p = 0; p < s.k; ++p) {
    V bv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      const std::int64_t col = v * kLanes<V>;
      std::memcpy(&bv[v], (col < kStripCols ? b_lo : b_hi) + p * s.ldb + col,
                  sizeof(V));
    }
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      // Broadcast a[r][p]: x - (+0.0f) is x for every x, -0.0f included.
      const V av = a[r * s.lda + p] - V{};
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) acc[r][v] = fmadd(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v)
      std::memcpy(c + r * s.ldc + v * kLanes<V>, &acc[r][v], sizeof(V));
}

// Rows [i, m) of the columns at j, m - i < MR: one tile of the largest
// height that fits, then the rest.
template <class V, int MR, int NV>
[[gnu::always_inline]] inline void row_tail(const Span& s, std::int64_t i,
                                            std::int64_t j) {
  if constexpr (MR > 1) {
    constexpr int kRows = MR - 1;
    if (s.m - i >= kRows) {
      tile<V, kRows, NV>(s, i, j);
      i += kRows;
    }
    row_tail<V, kRows, NV>(s, i, j);
  }
}

// Columns [0, w) of span s: strips NV vectors wide over every row (MR-row
// tiles, then the row tail), then at most one strip of each halved width,
// then the remainder at half the vector width.
template <class V, int MR, int NV>
[[gnu::always_inline]] inline void columns(const Span& s, std::int64_t j,
                                           std::int64_t w) {
  constexpr std::int64_t kWidth = NV * kLanes<V>;
  for (; j + kWidth <= w; j += kWidth) {
    std::int64_t i = 0;
    for (; i + MR <= s.m; i += MR) tile<V, MR, NV>(s, i, j);
    row_tail<V, MR, NV>(s, i, j);
  }
  if constexpr (NV > 1) {
    columns<V, MR, NV / 2>(s, j, w);
  } else if constexpr (kLanes<V> > 1) {
    columns<typename Narrower<V>::type, MR, 1>(s, j, w);
  }
}

// g with MR x NV tiles, k in blocks of kb. Packed B runs strip by strip;
// a tile wider than a strip (the 2 x 8 zmm one) spans a pair of whole
// strips.
template <class V, int MR, int NV>
[[gnu::always_inline]] inline void blocked(const GemmArgs& g,
                                           std::int64_t kb) {
  constexpr bool kPairs = NV * kLanes<V> > kStripCols;
  // At least one block, so that k == 0 still writes C's zeros.
  for (std::int64_t p0 = 0; p0 == 0 || p0 < g.k; p0 += kb) {
    Span s{g.a + p0, nullptr, nullptr, g.k, 0, 0, g.n, g.m,
           g.k - p0 < kb ? g.k - p0 : kb, g.accumulate || p0 > 0};
    if (!g.packed) {
      s.b = g.b + p0 * g.n + g.j0;
      s.c = g.c + g.j0;
      s.ldb = g.n;
      s.bnext = kStripCols;
      columns<V, MR, NV>(s, 0, g.j1 - g.j0);
      continue;
    }
    for (std::int64_t j = g.j0; j < g.j1;) {
      const std::int64_t c0 = j / kStripCols * kStripCols;
      const std::int64_t width =
          g.n - c0 < kStripCols ? g.n - c0 : kStripCols;
      const std::int64_t end = g.j1 < c0 + width ? g.j1 : c0 + width;
      s.b = g.b + c0 * g.k + p0 * width + (j - c0);
      s.c = g.c + j;
      s.ldb = width;
      s.bnext = kStripCols * g.k;
      if (kPairs && j == c0 && g.j1 - j >= 2 * kStripCols &&
          g.n - c0 >= 2 * kStripCols) {
        columns<V, MR, NV>(s, 0, 2 * kStripCols);
        j += 2 * kStripCols;
      } else {
        columns<V, MR, NV>(s, 0, end - j);
        j = end;
      }
    }
  }
}

// Panels of one or two rows (a batch-1 chain's steps) reuse each B vector
// at most twice, so they keep NV2 vectors of columns in flight instead:
// enough independent chains to hide the FMA latency, over the whole k.
// Taller panels use MR x NV tiles, so each B vector loaded serves MR
// broadcasts, and walk k in blocks.
template <class V, int NV2, int MR, int NV>
[[gnu::always_inline]] inline void gemm_tiles(const GemmArgs& g) {
  if (g.m <= 2)
    blocked<V, 2, NV2>(g, g.k > 0 ? g.k : 1);
  else
    blocked<V, MR, NV>(g, kBlockK);
}

// y[i] = the chain over row i of A[m, k] and x from +0.0f, kRows rows at
// a time so that many independent chains hide the FMA latency.
template <int kRows>
[[gnu::always_inline]] inline void gemv_rows(const float* a, const float* x,
                                             float* y, std::int64_t m,
                                             std::int64_t k) {
  std::int64_t i = 0;
  for (; i + kRows <= m; i += kRows) {
    float s[kRows] = {};
    for (std::int64_t p = 0; p < k; ++p)
#pragma GCC unroll 8
      for (int r = 0; r < kRows; ++r)
        s[r] = fmadd(a[(i + r) * k + p], x[p], s[r]);
    for (int r = 0; r < kRows; ++r) y[i + r] = s[r];
  }
  for (; i < m; ++i) {
    float s = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) s = fmadd(a[i * k + p], x[p], s);
    y[i] = s;
  }
}

}  // namespace
}  // namespace cortex::kernels::detail
