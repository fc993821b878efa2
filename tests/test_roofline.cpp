// Appendix C roofline model (Fig. 14): operational-intensity ordering,
// asymptotics, agreement between the exact formulas and the paper's
// closed-form approximations, and against the engines' measured traffic.

#include <gtest/gtest.h>

#include "baselines/common.hpp"
#include "baselines/dynet_like.hpp"
#include "baselines/eager.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "models/model_zoo.hpp"
#include "roofline/roofline.hpp"

namespace cortex::roofline {
namespace {

TEST(Roofline, OrderingMatchesPaper) {
  for (const std::int64_t b : {1, 2, 4, 8, 10}) {
    const TreeFcRoofline r = treefc_roofline(255, b, 256);
    EXPECT_GT(r.oi_cortex(), r.oi_dynet()) << "B=" << b;
    EXPECT_GT(r.oi_dynet(), r.oi_pytorch()) << "B=" << b;
    EXPECT_NEAR(r.oi_pytorch(), 0.5, 0.05) << "B=" << b;
  }
}

TEST(Roofline, CortexIntensityGrowsWithBatch) {
  const TreeFcRoofline b1 = treefc_roofline(255, 1, 256);
  const TreeFcRoofline b10 = treefc_roofline(255, 10, 256);
  EXPECT_GT(b10.oi_cortex(), b1.oi_cortex());
  EXPECT_GT(b10.oi_dynet(), b1.oi_dynet());
  // PyTorch re-reads weights per node: batch-independent intensity.
  EXPECT_NEAR(b10.oi_pytorch(), b1.oi_pytorch(), 1e-9);
}

TEST(Roofline, FlopsFrameworkIndependent) {
  const TreeFcRoofline r = treefc_roofline(255, 10, 256);
  // F = B*N*(4H^2 + H).
  EXPECT_DOUBLE_EQ(r.flops, 10.0 * 255 * (4.0 * 256 * 256 + 256));
  EXPECT_GT(r.bytes_pytorch, r.bytes_dynet);
  EXPECT_GT(r.bytes_dynet, r.bytes_cortex);
}

TEST(Roofline, ClosedFormApproximationsTrackExact) {
  // Under the paper's N ~ H = N0 assumption the approximations land
  // within a small factor of the exact formulas.
  for (const std::int64_t b : {1, 10}) {
    const TreeFcRoofline r = treefc_roofline(256, b, 256);
    EXPECT_NEAR(approx_oi_cortex(256, b) / r.oi_cortex(), 1.0, 0.15);
    EXPECT_NEAR(approx_oi_pytorch() / r.oi_pytorch(), 1.0, 0.15);
  }
}

TEST(Roofline, RejectsNonPositiveParameters) {
  EXPECT_THROW(treefc_roofline(0, 1, 256), Error);
  EXPECT_THROW(treefc_roofline(255, -1, 256), Error);
  EXPECT_THROW(treefc_roofline(255, 1, 0), Error);
}

TEST(Roofline, MeasuredEngineTrafficReproducesOrdering) {
  Rng rng(3);
  const models::ModelDef def = models::make_treefc(64);
  const models::ModelParams params = models::init_params(def, rng);
  std::vector<std::unique_ptr<ds::Tree>> trees;
  for (int i = 0; i < 4; ++i) trees.push_back(ds::make_perfect_tree(5, rng));
  const auto batch = baselines::raw(trees);

  auto oi = [](const runtime::RunResult& r) {
    return static_cast<double>(r.profiler.device_flops) /
           static_cast<double>(r.profiler.device_bytes_read +
                               r.profiler.device_bytes_written);
  };
  exec::CortexEngine cortex_engine(def, params, ra::Schedule{},
                                   runtime::DeviceSpec::v100_gpu());
  baselines::DynetEngine dynet(def, params,
                               runtime::DeviceSpec::v100_gpu());
  baselines::EagerEngine eager(def, params,
                               runtime::DeviceSpec::v100_gpu());
  double lin_ns = 0.0;
  const double oc = oi(exec::model_cost(
      cortex_engine, cortex_engine.linearize(batch, lin_ns), lin_ns));
  const double od = oi(dynet.run(batch));
  const double op = oi(eager.run(batch));
  EXPECT_GT(oc, od);
  EXPECT_GT(od, op);
  EXPECT_LT(op, 1.0);  // PyTorch ~0.5
}

}  // namespace
}  // namespace cortex::roofline
