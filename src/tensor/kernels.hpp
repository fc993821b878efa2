#pragma once
// Kernel library: the "vendor BLAS" substitute every framework in this repo
// calls into (see DESIGN.md §2). Raw-pointer kernels operate on contiguous
// row-major buffers; Tensor-typed wrappers add shape checking.
//
// gemm_naive and gemv are scalar references (tests compare against them).
// gemm and gemm_acc run one of several instruction-set variants, picked
// from CPUID once per process (see tensor/kernels_detail.hpp): a
// register-blocked AVX-512 or AVX2 micro-kernel, or the portable
// cache-blocked loop. Every variant is bit-identical to the references.

#include <cstdint>

#include "tensor/tensor.hpp"

namespace cortex::kernels {

// ---------------------------------------------------------------------------
// Raw-pointer kernels (hot paths).
// ---------------------------------------------------------------------------

/// C[m,n] = A[m,k] * B[k,n]. Naive triple loop; reference implementation.
void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n);

/// C[m,n] = A[m,k] * B[k,n], with the variant selected at load.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

/// Columns [j0, j1) of C[m,n] = A[m,k] * B[k,n]: B and C keep their row
/// stride n and no other column of C is written. Every element is the
/// same ascending-k chain gemm computes, so threads that each take a
/// column range of one product write exactly gemm's C, bit for bit.
void gemm_cols(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, std::int64_t j0,
               std::int64_t j1);

/// C[m,n] += A[m,k] * B[k,n].
void gemm_acc(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n);

/// y[m] = A[m,k] * x[k].
void gemv(const float* a, const float* x, float* y, std::int64_t m,
          std::int64_t k);

/// y[m] += A[m,k] * x[k].
void gemv_acc(const float* a, const float* x, float* y, std::int64_t m,
              std::int64_t k);

/// out[i] = a[i] + b[i].
void add(const float* a, const float* b, float* out, std::int64_t n);
/// out[i] = a[i] - b[i].
void sub(const float* a, const float* b, float* out, std::int64_t n);
/// out[i] = a[i] * b[i].
void mul(const float* a, const float* b, float* out, std::int64_t n);
/// out[i] += a[i] * b[i].
void mul_acc(const float* a, const float* b, float* out, std::int64_t n);
/// out[i] = a[i] + s.
void add_scalar(const float* a, float s, float* out, std::int64_t n);
/// out[i] = a[i] * s.
void scale(const float* a, float s, float* out, std::int64_t n);
/// out[i] = v.
void fill(float* out, float v, std::int64_t n);
/// out[i] = a[i].
void copy(const float* a, float* out, std::int64_t n);
/// acc[i] += a[i].
void acc(const float* a, float* accum, std::int64_t n);

/// Concatenate two length-n vectors into out[0:2n].
void concat2(const float* a, const float* b, float* out, std::int64_t n);

/// Gather rows: out[r,:] = table[idx[r],:] for r in [0,rows).
void gather_rows(const float* table, const std::int32_t* idx, float* out,
                 std::int64_t rows, std::int64_t width);

/// Strided gather: out[r,:] = table[idx[r]*stride : idx[r]*stride+width].
/// `stride` is the row stride of `table` in floats — gather_rows is the
/// stride == width case. The batched wavefront executor uses this to pull
/// a column slice (e.g. the h half of an [h; c] state) of many child
/// rows into one contiguous panel.
void gather_rows_strided(const float* table, std::int64_t stride,
                         const std::int32_t* idx, float* out,
                         std::int64_t rows, std::int64_t width);

/// out[k,m] = a^T for row-major a[m,k]. Used once at executor build time
/// to lay weights out so panel GEMMs (C = In @ W^T) keep B unit-stride.
void transpose(const float* a, float* out, std::int64_t m, std::int64_t k);

/// Scatter rows: table[idx[r],:] = in[r,:] for r in [0,rows).
void scatter_rows(float* table, const std::int32_t* idx, const float* in,
                  std::int64_t rows, std::int64_t width);

// ---------------------------------------------------------------------------
// Tensor-typed wrappers (shape-checked; examples/tests/baselines).
// ---------------------------------------------------------------------------

/// C = A @ B for 2-D tensors.
Tensor matmul(const Tensor& a, const Tensor& b);
/// Row-wise A @ B^T convenience: out[r,:] = W @ in[r,:] for each row r.
/// in: (rows, k), w: (m, k) -> out: (rows, m).
Tensor linear(const Tensor& in, const Tensor& w);
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
/// Broadcasting add of a rank-1 bias over the last dimension.
Tensor add_bias(const Tensor& a, const Tensor& bias);
/// Concatenation along the last dimension of two equal-leading tensors.
Tensor concat_last(const Tensor& a, const Tensor& b);

/// Count of floating-point operations for a GEMM of these dimensions.
inline std::int64_t gemm_flops(std::int64_t m, std::int64_t k,
                               std::int64_t n) {
  return 2 * m * k * n;
}

}  // namespace cortex::kernels
