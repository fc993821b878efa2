// Scene labeling with DAG-RNN (Shuai et al. 2015): images are modeled as
// grid DAGs whose south-east scan propagates context; the recursive
// portion is h_v = tanh(U * sum_{preds} h_u + x_v + b). Demonstrates the
// DAG path of the pipeline: wavefront dynamic batching, no leaf branch
// (specialization is a no-op), and CSR child indexing.
//
//   $ ./example_scene_labeling_dagrnn [grid_size]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "baselines/eager.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "models/model_zoo.hpp"

using namespace cortex;

int main(int argc, char** argv) {
  const std::int64_t grid = argc > 1 ? std::atoll(argv[1]) : 10;
  const std::int64_t hidden = 64;
  const std::int64_t num_labels = 4;
  Rng rng(99);

  const models::ModelDef def = models::make_dagrnn(hidden);
  const models::ModelParams params = models::init_params(def, rng);
  auto dag = ds::make_grid_dag(grid, grid, rng);
  const std::vector<const ds::Dag*> batch = {dag.get()};

  std::printf("DAG-RNN scene labeling demo: %lldx%lld grid DAG, hidden "
              "%lld\n",
              static_cast<long long>(grid), static_cast<long long>(grid),
              static_cast<long long>(hidden));

  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();
  exec::CortexEngine engine(def, params, ra::Schedule{}, spec);
  double lin_ns = 0.0;
  const linearizer::Linearized lin = engine.linearize(batch, lin_ns);
  const runtime::RunResult r = engine.run_linearized(lin, lin_ns);
  const runtime::RunResult cost = exec::model_cost(engine, lin, lin_ns);
  std::printf("Wavefront batches: %lld (grid anti-diagonals: %lld)\n",
              static_cast<long long>(lin.num_batches()),
              static_cast<long long>(2 * grid - 1));

  // Grid node v = r * grid + c has depth r + c. The linearizer numbers a
  // DAG's nodes by depth (Appendix B): node v's id is batch_begin[depth]
  // plus the number of earlier nodes of the same depth, so one cursor per
  // depth, walked in node order, recovers every id.
  std::vector<std::int32_t> id(static_cast<std::size_t>(grid * grid));
  {
    std::vector<std::int32_t> cursor = lin.batch_begin;
    for (std::int64_t r = 0; r < grid; ++r)
      for (std::int64_t c = 0; c < grid; ++c)
        id[static_cast<std::size_t>(r * grid + c)] =
            cursor[static_cast<std::size_t>(r + c)]++;
  }
  // The map must agree with the linearization: each node's word, and its
  // CSR children are its predecessors' ids, in order.
  for (std::int64_t v = 0; v < grid * grid; ++v) {
    const std::int32_t i = id[static_cast<std::size_t>(v)];
    const std::int32_t c0 = lin.child_offsets[static_cast<std::size_t>(i)];
    const std::int32_t c1 = lin.child_offsets[static_cast<std::size_t>(i) + 1];
    bool ok = lin.word[static_cast<std::size_t>(i)] == dag->word(v) &&
              c1 - c0 == static_cast<std::int32_t>(dag->preds(v).size());
    for (std::int32_t k = 0; ok && k < c1 - c0; ++k)
      ok = lin.child_ids[static_cast<std::size_t>(c0 + k)] ==
           id[static_cast<std::size_t>(
               dag->preds(v)[static_cast<std::size_t>(k)])];
    if (!ok) {
      std::fprintf(stderr, "grid node %lld does not map to id %d\n",
                   static_cast<long long>(v), i);
      return 1;
    }
  }

  // Label each cell by a fixed projection of its hidden state.
  Rng proj_rng(5);
  std::vector<float> proj(
      static_cast<std::size_t>(num_labels * hidden));
  proj_rng.fill_uniform(proj.data(), proj.size(), -0.3f, 0.3f);
  const Tensor& states = engine.last_states();
  std::printf("\nPredicted labels (south-east scan):\n");
  for (std::int64_t rr = 0; rr < grid; ++rr) {
    std::printf("  ");
    for (std::int64_t cc = 0; cc < grid; ++cc) {
      std::int64_t best = 0;
      float best_v = -1e30f;
      const float* h = states.row(id[static_cast<std::size_t>(rr * grid + cc)]);
      for (std::int64_t l = 0; l < num_labels; ++l) {
        float dot = 0.0f;
        for (std::int64_t i = 0; i < hidden; ++i)
          dot += proj[static_cast<std::size_t>(l * hidden + i)] * h[i];
        if (dot > best_v) {
          best_v = dot;
          best = l;
        }
      }
      std::printf("%c", static_cast<char>('A' + best));
    }
    std::printf("\n");
  }

  baselines::EagerEngine eager(def, params, spec);
  const runtime::RunResult e = eager.run(batch);
  std::printf("\nModeled GPU latency: Cortex %.3f ms | eager %.3f ms "
              "(%.0fx)\n",
              cost.modeled_latency_ms(), e.modeled_latency_ms(),
              e.modeled_latency_ms() / cost.modeled_latency_ms());
  std::printf("Sink-state outputs match eager: %s\n",
              r.root_states == e.root_states ? "yes" : "NO");
  return 0;
}
