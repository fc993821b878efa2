// Sentiment analysis with a child-sum TreeLSTM over (synthetic) Stanford
// Sentiment Treebank parse trees — the workload motivating the paper's
// introduction. Uses the embedding-leaf TreeLSTM variant, compares
// Cortex against the eager and DyNet-like baselines, and projects each
// root state to a scalar "sentiment score" with a fixed read-out vector.
//
//   $ ./example_sentiment_treelstm [batch_size]

#include <cstdio>
#include <cstdlib>

#include "baselines/dynet_like.hpp"
#include "baselines/eager.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "models/model_zoo.hpp"
#include "tensor/activations.hpp"

using namespace cortex;

int main(int argc, char** argv) {
  const std::int64_t batch = argc > 1 ? std::atoll(argv[1]) : 10;
  const std::int64_t hidden = 128;
  Rng rng(20240611);

  const models::ModelDef def = models::make_treelstm_embed(hidden);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(batch, rng);
  const std::vector<const ds::Tree*> raw = baselines::raw(trees);

  std::printf("Child-sum TreeLSTM sentiment demo: %lld SST-like sentences, "
              "hidden %lld\n\n",
              static_cast<long long>(batch), static_cast<long long>(hidden));
  for (std::size_t t = 0; t < raw.size() && t < 5; ++t) {
    const ds::TreeStats st = ds::tree_stats(*raw[t]);
    std::printf("  sentence %zu: %lld tokens, parse height %lld\n", t,
                static_cast<long long>(st.leaves),
                static_cast<long long>(st.height));
  }

  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();
  exec::CortexEngine cortex_engine(def, params, ra::Schedule{}, spec);
  baselines::EagerEngine eager(def, params, spec);
  baselines::DynetEngine dynet(def, params, spec);

  double lin_ns = 0.0;
  const linearizer::Linearized lin = cortex_engine.linearize(raw, lin_ns);
  const runtime::RunResult rc = cortex_engine.run_linearized(lin, lin_ns);
  const double cortex_ms =
      exec::model_cost(cortex_engine, lin, lin_ns).modeled_latency_ms();
  const runtime::RunResult re = eager.run(raw);
  const runtime::RunResult rd = dynet.run(raw);

  // Fixed random read-out: score = <w, h_root>, squashed to [-1, 1].
  Rng ro_rng(7);
  std::vector<float> readout(static_cast<std::size_t>(hidden));
  ro_rng.fill_uniform(readout.data(), readout.size(), -0.3f, 0.3f);
  std::printf("\nSentiment scores (Cortex root states):\n");
  for (std::size_t t = 0; t < rc.root_states.size() && t < 5; ++t) {
    float dot = 0.0f;
    for (std::size_t i = 0; i < readout.size(); ++i)
      dot += readout[i] * rc.root_states[t][i];  // h part of [h;c]
    const float score = kernels::tanh_rational(dot);
    std::printf("  sentence %zu: %+.3f  (%s)\n", t, score,
                score > 0.05f   ? "positive"
                : score < -0.05f ? "negative"
                                 : "neutral");
  }

  std::printf("\nModeled GPU latency:  Cortex %.3f ms | eager %.3f ms "
              "(%.0fx) | DyNet-like %.3f ms (%.1fx)\n",
              cortex_ms, re.modeled_latency_ms(),
              re.modeled_latency_ms() / cortex_ms, rd.modeled_latency_ms(),
              rd.modeled_latency_ms() / cortex_ms);
  std::printf("Cross-framework outputs identical: %s\n",
              (rc.root_states == re.root_states &&
               rc.root_states == rd.root_states)
                  ? "yes"
                  : "NO");
  return 0;
}
