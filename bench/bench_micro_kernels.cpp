// Microbenchmarks of the kernel substrate (the repo's "vendor BLAS"
// stand-in that every framework calls) using google-benchmark: GEMM
// (naive vs blocked), every GEMM variant this host supports at the served
// panel shapes, GEMV, fused elementwise chains, activations, and the
// gather/scatter primitives the baselines use for contiguity. The variant
// kernels::gemm picked at load is printed in the context header
// ("gemm_variant") and recorded in the JSON output.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "support/rng.hpp"
#include "tensor/activations.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_detail.hpp"

namespace {

using namespace cortex;

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  rng.fill_uniform(v.data(), v.size(), -1.0f, 1.0f);
  return v;
}

void BM_GemmNaive(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    kernels::gemm_naive(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          kernels::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmBlocked(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    kernels::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          kernels::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Panel GEMM C[m, kn] = A[m, kn] @ B[kn, kn] as the batched executor
// issues it: m rows of a wavefront against one transposed weight. Each
// iteration moves to the next of eight weights, as a SeqLSTM step does,
// so at kn = 256 the 2 MB of weights stream from L2 rather than sit in L1.
void BM_PanelGemm(benchmark::State& state, kernels::detail::Isa isa) {
  constexpr std::size_t kWeights = 8;
  const std::int64_t m = state.range(0);
  const std::int64_t kn = state.range(1);
  const auto a = random_vec(m * kn, 1);
  std::vector<std::vector<float>> b;
  for (std::size_t w = 0; w < kWeights; ++w)
    b.push_back(random_vec(kn * kn, 2 + w));
  std::vector<float> c(static_cast<std::size_t>(m * kn));
  std::size_t w = 0;
  for (auto _ : state) {
    kernels::detail::gemm_with(isa, a.data(), b[w].data(), c.data(), m, kn,
                               kn, /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
    w = (w + 1) % kWeights;
  }
  state.SetItemsProcessed(state.iterations() *
                          kernels::gemm_flops(m, kn, kn));
}

const bool kPanelGemmRegistered = [] {
  benchmark::AddCustomContext(
      "gemm_variant",
      kernels::detail::isa_name(kernels::detail::selected_isa()));
  for (const auto isa : kernels::detail::supported_isas())
    benchmark::RegisterBenchmark(
        ("BM_PanelGemm/" + std::string(kernels::detail::isa_name(isa)))
            .c_str(),
        BM_PanelGemm, isa)
        ->ArgsProduct({{1, 2, 10, 32}, {64, 256}})
        ->ArgNames({"m", "kn"});
  return true;
}();

void BM_Gemv(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto a = random_vec(n * n, 1);
  const auto x = random_vec(n, 2);
  std::vector<float> y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    kernels::gemv(a.data(), x.data(), y.data(), n, n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n);
}
BENCHMARK(BM_Gemv)->Arg(256)->Arg(512);

void BM_TanhRational(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto a = random_vec(n, 3);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    kernels::tanh_vec(a.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TanhRational)->Arg(4096);

void BM_GatherRows(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const std::int64_t width = 256;
  const auto table = random_vec(rows * width, 4);
  std::vector<std::int32_t> idx(static_cast<std::size_t>(rows));
  Rng rng(5);
  for (auto& i : idx)
    i = static_cast<std::int32_t>(rng.next_below(
        static_cast<std::uint64_t>(rows)));
  std::vector<float> out(static_cast<std::size_t>(rows * width));
  for (auto _ : state) {
    kernels::gather_rows(table.data(), idx.data(), out.data(), rows, width);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * rows * width * 4);
}
BENCHMARK(BM_GatherRows)->Arg(256)->Arg(1024);

}  // namespace
