#pragma once
// Instruction-set variants of the panel kernels: kernels::gemm /
// kernels::gemm_acc and models::CompiledEltwise::eval_panel. They are
// exposed so tests and benches can run every variant the host supports.
// Serving code calls the public entry points, which use selected_isa();
// nothing here selects or overrides that choice.

#include <cstdint>
#include <vector>

// x86-64 builds with GCC or Clang compile the AVX2 and AVX-512 variants
// (as functions with a target attribute); other builds have only kPortable.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CORTEX_X86_SIMD_VARIANTS 1
#endif

namespace cortex::kernels::detail {

/// kPortable is built for the baseline target every host runs (SSE2 on
/// x86-64); kAvx2 and kAvx512 use 32- and 64-byte vectors (the GEMM as a
/// register-blocked micro-kernel). All three produce bit-identical results.
enum class Isa { kPortable, kAvx2, kAvx512 };

/// Printable name ("portable", "avx2", "avx512").
const char* isa_name(Isa isa);

/// Whether this host can run `isa`.
bool supported(Isa isa);

/// Every variant this host can run, kPortable first, widest last.
std::vector<Isa> supported_isas();

/// The variant the public entry points use: the widest supported one,
/// read from CPUID once per process.
Isa selected_isa();

/// gemm (accumulate = false) or gemm_acc (accumulate = true) run with a
/// given variant, which must be in supported_isas().
void gemm_with(Isa isa, const float* a, const float* b, float* c,
               std::int64_t m, std::int64_t k, std::int64_t n,
               bool accumulate);

/// gemm_with over columns [j0, j1) of the n-wide product only (the
/// kernels::gemm_cols contract); 0 <= j0 <= j1 <= n.
void gemm_cols_with(Isa isa, const float* a, const float* b, float* c,
                    std::int64_t m, std::int64_t k, std::int64_t n,
                    std::int64_t j0, std::int64_t j1, bool accumulate);

}  // namespace cortex::kernels::detail
