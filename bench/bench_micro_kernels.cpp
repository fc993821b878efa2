// Microbenchmarks of the kernel substrate (the repo's "vendor BLAS"
// stand-in that every framework calls) using google-benchmark: GEMM
// (naive vs blocked), every GEMM variant this host supports at the served
// panel shapes over row-major and packed weights, GEMV, fused elementwise
// chains, activations, and the
// gather/scatter primitives the baselines use for contiguity. The variant
// kernels::gemm picked at load is printed in the context header
// ("gemm_variant") and recorded in the JSON output.
//
// BM_WavefrontStep and BM_TeamWake measure what the engine's column split
// (cross-core model persistence) trades: one served 1-row wavefront step
// run whole on one thread versus split by columns over a team of two to
// four (each member's weight slice staying in its own cache), and the cost of
// waking a parked pool worker into a team. They set the engine's split
// thresholds (exec/engine.cpp).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "models/model_zoo.hpp"
#include "support/rng.hpp"
#include "support/task_group.hpp"
#include "support/team.hpp"
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
// issues it: m rows of a wavefront against one weight, either row-major
// (B = W^T, as kMatStack2 and matmul pass it) or packed into 64-column
// strips (kernels::pack_strips, as the executor serves kMatVec). Each
// iteration moves to the next of eight weights, as an unhoisted SeqLSTM
// step does, so at kn = 256 the 2 MiB of weights do not stay in L1, nor,
// with A and C beside them, entirely in a 2 MiB L2: the h256 rows time
// streaming weights from L2 and L3 as well as the arithmetic.
// The served shapes: at h256, m 1 (a batch-1 chain step), 16 and 26
// (wavefronts of pooled multi-request shards) and 1024 (a full hoisted
// W·x window, kHoistWindowBytes); at h64, m 8 (a TreeLSTM wavefront). The
// strip width and k-block in tensor/kernels_tile.hpp cite these rows.
void BM_PanelGemm(benchmark::State& state, kernels::detail::Isa isa,
                  bool packed) {
  constexpr std::size_t kWeights = 8;
  const std::int64_t m = state.range(0);
  const std::int64_t kn = state.range(1);
  const auto a = random_vec(m * kn, 1);
  std::vector<std::vector<float>> b;
  for (std::size_t w = 0; w < kWeights; ++w) {
    b.push_back(random_vec(kn * kn, 2 + w));
    if (packed) {
      std::vector<float> bp(b.back().size());
      kernels::pack_strips(b.back().data(), bp.data(), kn, kn);
      b.back() = std::move(bp);
    }
  }
  std::vector<float> c(static_cast<std::size_t>(m * kn));
  std::size_t w = 0;
  for (auto _ : state) {
    if (packed)
      kernels::detail::gemm_packed_with(isa, a.data(), b[w].data(), c.data(),
                                        m, kn, kn, 0, kn);
    else
      kernels::detail::gemm_with(isa, a.data(), b[w].data(), c.data(), m,
                                 kn, kn, /*accumulate=*/false);
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
    for (const bool packed : {false, true})
      benchmark::RegisterBenchmark(
          ("BM_PanelGemm/" + std::string(kernels::detail::isa_name(isa)) +
           (packed ? "/packed" : "/rowmajor"))
              .c_str(),
          BM_PanelGemm, isa, packed)
          ->Args({1, 256})
          ->Args({16, 256})
          ->Args({26, 256})
          ->Args({1024, 256})
          ->Args({8, 64})
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

// One served wavefront step of one row: node 0 over child rows 1 and 2 of
// a 3-row state table. For SeqLSTM the W·x products are hoisted into a
// window first, as the engine does for a chain, so the step reads only
// its four U matrices (1 MiB at h256). With team = k, k - 1 more threads
// serve a support::Team and each step splits by columns across all k;
// the step time includes the barrier.
void BM_WavefrontStep(benchmark::State& state, const std::string& model,
                      std::int64_t hidden) {
  const int team_size = static_cast<int>(state.range(0));
  const models::ModelDef def = model == "SeqLSTM"
                                   ? models::make_seq_lstm(hidden)
                               : model == "DAG-RNN"
                                   ? models::make_dagrnn(hidden)
                                   : models::make_treelstm_embed(hidden);
  Rng rng(7);
  const models::ModelParams params = models::init_params(def, rng);
  const models::BatchedCellExecutor exec(def.cell, params);
  const std::int64_t sw = def.cell.state_width;
  std::vector<float> states(static_cast<std::size_t>(3 * sw));
  rng.fill_uniform(states.data(), states.size(), -1.0f, 1.0f);
  const std::int32_t word = 3;
  const std::int32_t offsets[2] = {0, 2};
  const std::int32_t ids[2] = {1, 2};
  std::vector<models::BatchedCellExecutor::Panels> panels(
      static_cast<std::size_t>(team_size));
  std::vector<float> window;
  models::BatchedCellExecutor::HoistWindow win;
  const models::BatchedCellExecutor::HoistWindow* hoisted = nullptr;
  if (model == "SeqLSTM") {
    win.child = 1;
    win.rows = 1;
    window.resize(static_cast<std::size_t>(exec.hoist_width(1)));
    win.data = window.data();
    exec.run_hoisted(1, offsets, ids, states.data(), win, panels[0]);
    hoisted = &win;
  }
  const auto step = [&](int member, int chunk) {
    exec.run_batch(false, 1, &word, offsets, ids, states.data(),
                   states.data(), panels[static_cast<std::size_t>(member)],
                   hoisted, models::ColumnShare{chunk, team_size});
  };
  auto team = std::make_shared<support::Team>();
  std::vector<std::thread> members;
  for (int m = 1; m < team_size; ++m)
    members.emplace_back([team, m] { team->serve(m, [] { return false; }); });
  for (auto _ : state) {
    if (team_size > 1)
      team->run(team_size, step);
    else
      step(0, 0);
    benchmark::DoNotOptimize(states.data());
    benchmark::ClobberMemory();
  }
  team->dismiss();
  for (std::thread& t : members) t.join();
  state.counters["weight_KiB"] = static_cast<double>(
      exec.split_weight_bytes(false, hoisted != nullptr ? 1 : -1) / 1024);
}

const bool kWavefrontStepRegistered = [] {
  for (const auto& [model, hidden] :
       {std::pair<std::string, std::int64_t>{"SeqLSTM", 256},
        {"DAG-RNN", 256},
        {"TreeLSTM", 64}})
    benchmark::RegisterBenchmark(
        ("BM_WavefrontStep/" + model + "/h" + std::to_string(hidden))
            .c_str(),
        BM_WavefrontStep, model, hidden)
        ->ArgName("team")
        ->DenseRange(1, 4);
  return true;
}();

// Waking a parked pool worker into a team, up to the first barrier: the
// worker is lent (TaskPool::lend), wakes, serves, and takes chunk 1 of a
// 2-chunk step whose chunk 0 waits for it. Each iteration first lets the
// worker park again. Reports the median and p99 next to the mean.
void BM_TeamWake(benchmark::State& state) {
  support::TaskPool pool(1);
  std::vector<double> us;
  for (auto _ : state) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto team = std::make_shared<support::Team>();
    std::atomic<bool> joined{false};
    const auto t0 = std::chrono::steady_clock::now();
    const int lent = pool.lend(1, team);
    if (lent == 1) {
      team->run(2, [&](int, int chunk) {
        if (chunk == 1) joined.store(true);
        while (!joined.load()) std::this_thread::yield();
      });
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    team->dismiss();
    state.SetIterationTime(s);
    us.push_back(s * 1e6);
  }
  std::sort(us.begin(), us.end());
  if (!us.empty()) {
    state.counters["p50_us"] = us[us.size() / 2];
    state.counters["p99_us"] = us[us.size() * 99 / 100];
  }
}
BENCHMARK(BM_TeamWake)->UseManualTime()->Iterations(200);

}  // namespace
