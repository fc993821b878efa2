#pragma once
// Kernel library: the "vendor BLAS" substitute every framework in this repo
// calls into (see DESIGN.md §2). Every kernel takes raw pointers to
// contiguous row-major buffers; callers own the shapes and the layout.
//
// Numerics contract of every matrix product here (gemm*, gemv): each
// output element is one chain of fused multiply-adds, s = fmaf(a, b, s),
// over k ascending from +0.0f. gemm_naive spells the
// chain out and is the reference the tests compare against. The other
// products run one of several instruction-set variants, picked from CPUID
// once per process (see tensor/kernels_detail.hpp): a register-blocked
// AVX-512 or AVX2 micro-kernel with FMA instructions, or the portable
// build over std::fmaf. Every variant is bit-identical to the reference.
// Elementwise kernels are not fused: each op rounds on its own.

#include <cstdint>

namespace cortex::kernels {

/// C[m,n] = A[m,k] * B[k,n]. Naive triple loop; reference implementation.
void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n);

/// C[m,n] = A[m,k] * B[k,n], with the variant selected at load.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

/// Lays out B[k,n] = W^T, for row-major W[n,k], as gemm_packed reads it:
/// strips of 64 columns, each [k][64] (the last one [k][n % 64] when n is
/// not a multiple of 64), one after the other. `out` holds k * n floats.
/// Each k row of a strip is a run of whole cache lines, so the
/// micro-kernel streams B sequentially instead of at a stride of n.
void pack_strips(const float* w, float* out, std::int64_t n, std::int64_t k);

/// Columns [j0, j1) of C[m,n] = A[m,k] * B[k,n], with B packed by
/// pack_strips: C keeps its row stride n and no other column of C is
/// written. Every element is the same fused chain gemm computes over the
/// row-major B, so threads that each take a column range of one product
/// write exactly gemm's C, bit for bit.
void gemm_packed(const float* a, const float* bp, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, std::int64_t j0,
                 std::int64_t j1);

/// y[m] = A[m,k] * x[k]: row i is gemm's chain over A's row i and x.
void gemv(const float* a, const float* x, float* y, std::int64_t m,
          std::int64_t k);

/// out[i] = v.
void fill(float* out, float v, std::int64_t n);
/// out[i] = a[i].
void copy(const float* a, float* out, std::int64_t n);
/// acc[i] += a[i].
void acc(const float* a, float* accum, std::int64_t n);

/// Gather rows: out[r,:] = table[idx[r],:] for r in [0,rows).
void gather_rows(const float* table, const std::int32_t* idx, float* out,
                 std::int64_t rows, std::int64_t width);

/// Strided gather: out[r*out_stride : r*out_stride+width] =
/// table[idx[r]*stride : idx[r]*stride+width]. `stride` and `out_stride`
/// are the row strides of `table` and `out` in floats — gather_rows is the
/// case where both equal width. The batched wavefront executor uses this
/// to pull a column slice (e.g. the h half of an [h; c] state) of many
/// child rows into one panel, or into columns of the destination rows.
void gather_rows_strided(const float* table, std::int64_t stride,
                         const std::int32_t* idx, float* out,
                         std::int64_t out_stride, std::int64_t rows,
                         std::int64_t width);

/// Count of floating-point operations for a GEMM of these dimensions.
inline std::int64_t gemm_flops(std::int64_t m, std::int64_t k,
                               std::int64_t n) {
  return 2 * m * k * n;
}

}  // namespace cortex::kernels
