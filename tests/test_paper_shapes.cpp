// The paper's headline result *shapes*, pinned as regression tests.
// Each test encodes the qualitative claim of a table or figure (the
// benches print the full quantitative version) against the deterministic
// device model (exec::model_cost with zero host-linearization time), so a
// cost-model regression that silently flips a paper conclusion fails CI.

#include <gtest/gtest.h>

#include "baselines/cavs_like.hpp"
#include "baselines/common.hpp"
#include "baselines/dynet_like.hpp"
#include "baselines/eager.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "models/model_zoo.hpp"

// Sanitizer instrumentation inflates the *measured* host-side phases
// (graph construction, dynamic batching) by an order of magnitude while
// leaving the *modeled* device times untouched, so tests asserting ratios
// between the two are meaningless under sanitizers and skip themselves.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CORTEX_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CORTEX_SANITIZED 1
#endif
#endif

#ifdef CORTEX_SANITIZED
#define CORTEX_SKIP_TIMING_RATIOS_UNDER_SANITIZERS()                         \
  GTEST_SKIP() << "measured-vs-modeled timing ratios are distorted by "      \
                  "sanitizer instrumentation"
#else
#define CORTEX_SKIP_TIMING_RATIOS_UNDER_SANITIZERS() (void)0
#endif

namespace cortex {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

double cortex_ms(const models::ModelDef& def,
                 const models::ModelParams& params,
                 const std::vector<const ds::Tree*>& batch,
                 const runtime::DeviceSpec& spec,
                 ra::Schedule sched = {}) {
  const exec::CortexEngine engine(def, params, sched, spec);
  double lin_ns = 0.0;
  const linearizer::Linearized lin = engine.linearize(batch, lin_ns);
  return exec::model_cost(engine, lin, 0.0).modeled_latency_ms();
}

TEST(PaperShapes, Fig6SpeedupOverPyTorchGrowsWithBatch) {
  Rng rng(1);
  const models::ModelDef def = models::make_treelstm(64);
  const models::ModelParams params = models::init_params(def, rng);
  auto b1_trees = ds::make_sst_like_batch(1, rng);
  auto b10_trees = ds::make_sst_like_batch(10, rng);

  auto speedup = [&](const std::vector<const ds::Tree*>& batch) {
    baselines::EagerEngine eager(def, params, gpu());
    return eager.run(batch).modeled_latency_ms() /
           cortex_ms(def, params, batch, gpu());
  };
  const double s1 = speedup(baselines::raw(b1_trees));
  const double s10 = speedup(baselines::raw(b10_trees));
  EXPECT_GT(s10, s1);   // PyTorch cannot batch: the gap widens
  EXPECT_GT(s1, 1.0);   // and Cortex wins even unbatched
}

TEST(PaperShapes, Fig6GpuSpeedupsExceedCpuSpeedups) {
  Rng rng(2);
  const models::ModelDef def = models::make_treelstm(64);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(10, rng);
  const auto batch = baselines::raw(trees);

  auto speedup = [&](const runtime::DeviceSpec& spec) {
    baselines::EagerEngine eager(def, params, spec);
    return eager.run(batch).modeled_latency_ms() /
           cortex_ms(def, params, batch, spec);
  };
  EXPECT_GT(speedup(gpu()), speedup(runtime::DeviceSpec::intel_cpu()));
}

TEST(PaperShapes, Table4CortexBeatsCavsAndGapShrinksWithHidden) {
  Rng rng(3);
  auto trees = ds::make_sst_like_batch(10, rng);
  const auto batch = baselines::raw(trees);

  auto speedup = [&](std::int64_t h) {
    Rng prng(3);
    const models::ModelDef def = models::make_treelstm(h);
    const models::ModelParams params = models::init_params(def, prng);
    baselines::CavsEngine cavs(def, params, gpu());
    return cavs.run(batch).modeled_latency_ms() /
           cortex_ms(def, params, batch, gpu(),
                     ra::Schedule::cavs_comparable());
  };
  const double s_hs = speedup(256);
  const double s_hl = speedup(512);
  EXPECT_GT(s_hs, 1.0);
  EXPECT_GT(s_hl, 1.0);
  EXPECT_GT(s_hs, s_hl);  // overhead-bound -> compute-bound
}

TEST(PaperShapes, Table5BackendOrderingGpuIntelArm) {
  CORTEX_SKIP_TIMING_RATIOS_UNDER_SANITIZERS();
  Rng rng(4);
  auto trees = ds::make_sst_like_batch(10, rng);
  const auto batch = baselines::raw(trees);
  const models::ModelDef def = models::make_treegru(256);
  const models::ModelParams params = models::init_params(def, rng);

  auto speedup = [&](const runtime::DeviceSpec& spec) {
    baselines::DynetEngine dynet(def, params, spec);
    return dynet.run(batch).modeled_latency_ms() /
           cortex_ms(def, params, batch, spec);
  };
  const double s_gpu = speedup(gpu());
  const double s_intel = speedup(runtime::DeviceSpec::intel_cpu());
  const double s_arm = speedup(runtime::DeviceSpec::arm_cpu());
  EXPECT_GT(s_gpu, s_intel);
  EXPECT_GT(s_intel, s_arm);
  EXPECT_GT(s_arm, 1.0);  // Cortex still wins on ARM at hs
}

TEST(PaperShapes, Fig7OverheadsDominateSmallHiddenSizes) {
  CORTEX_SKIP_TIMING_RATIOS_UNDER_SANITIZERS();
  Rng rng(5);
  auto trees = ds::make_sst_like_batch(10, rng);
  const auto batch = baselines::raw(trees);

  auto dynet_ms = [&](std::int64_t h, const runtime::DeviceSpec& spec) {
    Rng prng(5);
    const models::ModelDef def = models::make_treelstm(h);
    const models::ModelParams params = models::init_params(def, prng);
    baselines::DynetEngine dynet(def, params, spec);
    // Best of 3 (graph construction / batching are measured phases).
    double best = 1e30;
    for (int i = 0; i < 3; ++i)
      best = std::min(best, dynet.run(batch).modeled_latency_ms());
    return best;
  };
  // GPU: overheads dominate across the whole sweep — near-flat even to
  // H=512 (Fig. 7 left). The flat region must hold at small H.
  EXPECT_LT(dynet_ms(16, gpu()), 2.0 * dynet_ms(1, gpu()));
  // Intel: compute takes over by H=512 (Fig. 7 right).
  const runtime::DeviceSpec intel = runtime::DeviceSpec::intel_cpu();
  EXPECT_LT(dynet_ms(16, intel), 2.0 * dynet_ms(1, intel));
  EXPECT_GT(dynet_ms(512, intel), 1.5 * dynet_ms(16, intel));
}

TEST(PaperShapes, Table6CortexEliminatesFrameworkOverheads) {
  Rng rng(6);
  const models::ModelDef def = models::make_treelstm(256);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(10, rng);
  const auto batch = baselines::raw(trees);

  const exec::CortexEngine engine(def, params, ra::Schedule{}, gpu());
  double lin_ns = 0.0;
  const linearizer::Linearized lin = engine.linearize(batch, lin_ns);
  const runtime::RunResult r = exec::model_cost(engine, lin, lin_ns);
  // The paper's Table 6 row: 1 kernel, no memcpys, no graph/batching
  // work; the only host-side cost is the µs-scale linearizer.
  EXPECT_EQ(r.profiler.kernel_launches, 1);
  EXPECT_EQ(r.profiler.memcpy_calls, 0);
  EXPECT_EQ(r.profiler.graph_construction_ns, 0.0);
  EXPECT_EQ(r.profiler.dynamic_batching_ns, 0.0);
  EXPECT_LT(r.profiler.linearization_ns, 1e6);  // < 1 ms
}

TEST(PaperShapes, Sec75LinearizationIndependentOfHiddenSize) {
  Rng rng(7);
  auto trees = ds::make_sst_like_batch(10, rng);
  const auto batch = baselines::raw(trees);
  const linearizer::LinearizerSpec spec;
  // Linearization never touches tensors: its output is identical for any
  // hidden size, so its cost cannot depend on H (the §7.5 claim). We
  // assert the stronger structural fact.
  const linearizer::Linearized a = linearizer::linearize_trees(batch, spec);
  const linearizer::Linearized b = linearizer::linearize_trees(batch, spec);
  EXPECT_EQ(a.batch_begin, b.batch_begin);
  EXPECT_EQ(a.child_ids, b.child_ids);
  EXPECT_EQ(a.word, b.word);
}

TEST(PaperShapes, Fig10aFusionIsTheDominantOptimization) {
  Rng rng(8);
  const models::ModelDef def = models::make_treelstm(256);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(10, rng);
  const auto batch = baselines::raw(trees);

  const double unfused =
      cortex_ms(def, params, batch, gpu(), ra::Schedule::unoptimized());
  ra::Schedule fused_only = ra::Schedule::unoptimized();
  fused_only.fusion = ra::FusionLevel::kMaximal;
  const double fused = cortex_ms(def, params, batch, gpu(), fused_only);
  const double full = cortex_ms(def, params, batch, gpu());
  // Fusion alone buys multiples; the rest (specialization, persistence)
  // refines further.
  EXPECT_GT(unfused / fused, 3.0);
  EXPECT_LT(full, fused);
}

}  // namespace
}  // namespace cortex
