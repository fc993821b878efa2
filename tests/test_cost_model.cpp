// Offline modeled device cost (exec::model_cost) and the measured-only
// served results it leaves behind.
//
// MatchesParentCounters pins every modeled counter of the model zoo under
// six schedules, bit for bit, to the values the engine's own run() reported
// when it still accounted device cost inline: moving the accounting
// offline must not move a single count, byte or nanosecond. The table was
// printed by that engine over the same inputs (%a for the doubles), so a
// change to the device model, the launch plan or the cost model shows up
// here as a row that no longer matches.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/cost_model.hpp"
#include "exec/engine_pool.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

constexpr int kZooSize = 14;

models::ModelDef zoo_model(int i) {
  switch (i) {
    case 0: return models::make_treefc(16);
    case 1: return models::make_dagrnn(16);
    case 2: return models::make_treegru(16);
    case 3: return models::make_simple_treegru(16);
    case 4: return models::make_treelstm(16);
    case 5: return models::make_mvrnn(8);
    case 6: return models::make_treernn(16);
    case 7: return models::make_treernn_fig1(16);
    case 8: return models::make_treernn_zeroleaf(16);
    case 9: return models::make_treefc_embed(16);
    case 10: return models::make_treegru_embed(16);
    case 11: return models::make_treelstm_embed(16);
    case 12: return models::make_seq_lstm(16);
    default: return models::make_seq_gru(16);
  }
}

struct NamedSchedule {
  const char* name;
  ra::Schedule schedule;
};

std::vector<NamedSchedule> pinned_schedules() {
  ra::Schedule unbatched;
  unbatched.dynamic_batching = false;
  ra::Schedule megakernel;  // persistent + maximal fusion: one launch
  megakernel.persistence = true;
  megakernel.fusion = ra::FusionLevel::kMaximal;
  megakernel.lock_free_barrier = true;
  ra::Schedule unroll2;
  unroll2.unroll_depth = 2;
  unroll2.persistence = false;  // Appendix D
  ra::Schedule unfused;
  unfused.fusion = ra::FusionLevel::kNone;
  return {{"default", ra::Schedule{}},
          {"cavs_comparable", ra::Schedule::cavs_comparable()},
          {"unbatched", unbatched},
          {"megakernel_lock_free", megakernel},
          {"unroll2", unroll2},
          {"unfused", unfused}};
}

bool is_dag(const models::ModelDef& def) {
  return def.kind() == linearizer::StructureKind::kDag;
}

/// The fixed inputs of zoo model `m`: two grid DAGs, three chains of
/// mixed length for the sequence cells, or three SST-like trees.
struct Inputs {
  std::vector<std::unique_ptr<ds::Tree>> trees;
  std::vector<std::unique_ptr<ds::Dag>> dags;
};

Inputs inputs_for(const models::ModelDef& def, Rng& rng) {
  Inputs in;
  if (is_dag(def)) {
    in.dags.push_back(ds::make_grid_dag(4, 5, rng));
    in.dags.push_back(ds::make_grid_dag(3, 3, rng));
  } else if (def.name == "SeqLSTM" || def.name == "SeqGRU") {
    for (const std::int64_t len : {5, 9, 7})
      in.trees.push_back(ds::make_chain_tree(len, rng));
  } else {
    in.trees = ds::make_sst_like_batch(3, rng);
  }
  return in;
}

struct Pinned {
  const char* model;
  const char* schedule;
  std::int64_t kernel_launches;
  std::int64_t barriers;
  std::int64_t device_bytes_read;
  std::int64_t device_bytes_written;
  std::int64_t device_flops;
  double device_compute_ns;
  double host_api_ns;
  std::int64_t peak_memory_bytes;
};

// clang-format off
const Pinned kPinned[] = {
    {"TreeFC", "default", 1, 9, 12096, 10176, 82368, 0x1.aa5db97530ecap+14, 0x1.57cp+12, 14700},
    {"TreeFC", "cavs_comparable", 1, 9, 22464, 10176, 167904, 0x1.b377e4b17e4b1p+14, 0x1.57cp+12, 14700},
    {"TreeFC", "unbatched", 159, 0, 174720, 10176, 82368, 0x1.1d23c28f5c289p+18, 0x1.ab008p+19, 14700},
    {"TreeFC", "megakernel_lock_free", 1, 9, 12096, 10176, 82368, 0x1.019db97530ecap+14, 0x1.57cp+12, 14700},
    {"TreeFC", "unroll2", 1, 20, 15552, 10176, 82368, 0x1.a6ff49f49f49fp+15, 0x1.57cp+12, 14700},
    {"TreeFC", "unfused", 46, 0, 53952, 35136, 82368, 0x1.7d271c71c71c7p+16, 0x1.ee24p+17, 25068},
    {"DAG-RNN", "default", 1, 7, 6772, 1856, 17168, 0x1.3d1e9d0369d03p+14, 0x1.57cp+12, 2792},
    {"DAG-RNN", "cavs_comparable", 1, 7, 6772, 1856, 17168, 0x1.3d1e9d0369d03p+14, 0x1.57cp+12, 2792},
    {"DAG-RNN", "unbatched", 29, 0, 37236, 1856, 17168, 0x1.a873012345673p+15, 0x1.3786p+17, 2792},
    {"DAG-RNN", "megakernel_lock_free", 1, 7, 6772, 1856, 17168, 0x1.73bd3a06d3a07p+13, 0x1.57cp+12, 2792},
    {"DAG-RNN", "unfused", 32, 0, 19956, 7424, 17168, 0x1.ea9ae5d4c3b2bp+15, 0x1.57cp+17, 4328},
    {"TreeGRU", "default", 1, 16, 8896, 5824, 76736, 0x1.538c16c16c16dp+15, 0x1.57cp+12, 8436},
    {"TreeGRU", "cavs_comparable", 1, 16, 14912, 5824, 158704, 0x1.538c16c16c16dp+15, 0x1.57cp+12, 8436},
    {"TreeGRU", "unbatched", 91, 0, 149248, 5824, 76736, 0x1.4672e5d4c3b2dp+17, 0x1.e8c5p+18, 8436},
    {"TreeGRU", "megakernel_lock_free", 1, 16, 8896, 5824, 76736, 0x1.7b182d82d82d8p+14, 0x1.57cp+12, 8436},
    {"TreeGRU", "unroll2", 1, 32, 15872, 5824, 76736, 0x1.48bf6e5d4c3b3p+16, 0x1.57cp+12, 8436},
    {"TreeGRU", "unfused", 73, 0, 62720, 28352, 76736, 0x1.22e0962fc9631p+17, 0x1.8817p+18, 17652},
    {"SimpleTreeGRU", "default", 1, 14, 7616, 4544, 58208, 0x1.2910369d0369ep+15, 0x1.57cp+12, 6588},
    {"SimpleTreeGRU", "cavs_comparable", 1, 14, 12352, 4544, 121552, 0x1.2910369d0369ep+15, 0x1.57cp+12, 6588},
    {"SimpleTreeGRU", "unbatched", 71, 0, 115328, 4544, 58208, 0x1.fd5a6af37c05bp+16, 0x1.7d59p+18, 6588},
    {"SimpleTreeGRU", "megakernel_lock_free", 1, 14, 7616, 4544, 58208, 0x1.4ba06d3a06d3ap+14, 0x1.57cp+12, 6588},
    {"SimpleTreeGRU", "unroll2", 1, 32, 15232, 4544, 58208, 0x1.4867eac2f0735p+16, 0x1.57cp+12, 6588},
    {"SimpleTreeGRU", "unfused", 64, 0, 48960, 21952, 58208, 0x1.f4d1fdb97530fp+16, 0x1.57cp+18, 13500},
    {"TreeLSTM", "default", 1, 8, 16384, 12416, 134608, 0x1.6fad65b7a3285p+14, 0x1.57cp+12, 15196},
    {"TreeLSTM", "cavs_comparable", 1, 8, 29184, 12416, 277808, 0x1.70966a0a77b1bp+14, 0x1.57cp+12, 15196},
    {"TreeLSTM", "unbatched", 97, 0, 216576, 12416, 134608, 0x1.62b930eca863ep+17, 0x1.047f8p+19, 15196},
    {"TreeLSTM", "megakernel_lock_free", 1, 8, 16384, 12416, 134608, 0x1.b35acb6f46508p+13, 0x1.57cp+12, 15196},
    {"TreeLSTM", "unroll2", 1, 16, 23424, 12416, 134608, 0x1.4eb55c9d77ebfp+15, 0x1.57cp+12, 15196},
    {"TreeLSTM", "unfused", 145, 0, 121728, 63552, 134608, 0x1.22c1edcba9877p+18, 0x1.85678p+19, 35868},
    {"MV-RNN", "default", 1, 7, 38568, 25056, 108192, 0x1.68b9fd43c5c15p+14, 0x1.57cp+12, 27548},
    {"MV-RNN", "cavs_comparable", 1, 7, 76920, 25056, 224112, 0x1.857c41c8c41c9p+14, 0x1.57cp+12, 27548},
    {"MV-RNN", "unbatched", 87, 0, 81864, 25056, 108192, 0x1.53e6a3d70a3ddp+17, 0x1.d349p+18, 27548},
    {"MV-RNN", "megakernel_lock_free", 1, 7, 38568, 25056, 108192, 0x1.caf3fa878b82ap+13, 0x1.57cp+12, 27548},
    {"MV-RNN", "unroll2", 1, 16, 29640, 25056, 108192, 0x1.561267d33973bp+15, 0x1.57cp+12, 27548},
    {"MV-RNN", "unfused", 80, 0, 122376, 81024, 108192, 0x1.522ec5f92c5f8p+17, 0x1.adbp+18, 99548},
    {"TreeRNN", "default", 1, 9, 14468, 8128, 66464, 0x1.99b1eb851eb85p+14, 0x1.57cp+12, 11756},
    {"TreeRNN", "cavs_comparable", 1, 9, 27004, 8128, 136144, 0x1.a5d2cf13579bfp+14, 0x1.57cp+12, 11756},
    {"TreeRNN", "unbatched", 127, 0, 143300, 8128, 66464, 0x1.c9e1bf258bf1bp+17, 0x1.55108p+19, 11756},
    {"TreeRNN", "megakernel_lock_free", 1, 9, 14468, 8128, 66464, 0x1.e1e3d70a3d70bp+13, 0x1.57cp+12, 11756},
    {"TreeRNN", "unroll2", 1, 5, 18948, 8128, 66464, 0x1.c7d1111111112p+13, 0x1.57cp+12, 11756},
    {"TreeRNN", "unfused", 46, 0, 47236, 24000, 66464, 0x1.70f0123456789p+16, 0x1.ee24p+17, 18796},
    {"TreeRNN-fig1", "default", 1, 9, 8828, 5824, 1408, 0x1.9a54e81b4e81cp+14, 0x1.57cp+12, 8444},
    {"TreeRNN-fig1", "cavs_comparable", 1, 9, 17836, 5824, 2912, 0x1.aff16c16c16c2p+14, 0x1.57cp+12, 8444},
    {"TreeRNN-fig1", "unbatched", 91, 0, 8828, 5824, 1408, 0x1.47df000000003p+17, 0x1.e8c5p+18, 8444},
    {"TreeRNN-fig1", "megakernel_lock_free", 1, 9, 8828, 5824, 1408, 0x1.e329d0369d036p+13, 0x1.57cp+12, 8444},
    {"TreeRNN-fig1", "unroll2", 1, 5, 6012, 5824, 1408, 0x1.ce1ddddddddddp+13, 0x1.57cp+12, 8444},
    {"TreeRNN-fig1", "unfused", 28, 0, 14460, 11456, 1408, 0x1.b7a6666666665p+15, 0x1.2cc8p+17, 11900},
    {"TreeRNN-zeroleaf", "default", 1, 9, 9408, 7488, 61104, 0x1.933159e26af38p+14, 0x1.57cp+12, 10836},
    {"TreeRNN-zeroleaf", "cavs_comparable", 1, 9, 17088, 7488, 125424, 0x1.9577e4b17e4b1p+14, 0x1.57cp+12, 10836},
    {"TreeRNN-zeroleaf", "unbatched", 117, 0, 127680, 7488, 61104, 0x1.a39c369d03694p+17, 0x1.3a358p+19, 10836},
    {"TreeRNN-zeroleaf", "megakernel_lock_free", 1, 9, 9408, 7488, 61104, 0x1.d4e2b3c4d5e7p+13, 0x1.57cp+12, 10836},
    {"TreeRNN-zeroleaf", "unroll2", 1, 5, 14208, 7488, 61104, 0x1.bbec5f92c5f92p+13, 0x1.57cp+12, 10836},
    {"TreeRNN-zeroleaf", "unfused", 46, 0, 40896, 22080, 61104, 0x1.6e337c048d15ap+16, 0x1.ee24p+17, 16916},
    {"TreeFC-emb", "default", 1, 11, 14076, 7872, 63360, 0x1.f673a06d3a06cp+14, 0x1.57cp+12, 11404},
    {"TreeFC-emb", "cavs_comparable", 1, 11, 26220, 7872, 129888, 0x1.07f32ea61d95p+15, 0x1.57cp+12, 11404},
    {"TreeFC-emb", "unbatched", 123, 0, 138684, 7872, 63360, 0x1.bb7566666665cp+17, 0x1.4a528p+19, 11404},
    {"TreeFC-emb", "megakernel_lock_free", 1, 11, 14076, 7872, 63360, 0x1.2833a06d3a06cp+14, 0x1.57cp+12, 11404},
    {"TreeFC-emb", "unroll2", 1, 24, 20796, 7872, 63360, 0x1.f85abcdf01235p+15, 0x1.57cp+12, 11404},
    {"TreeFC-emb", "unfused", 56, 0, 54396, 27072, 63360, 0x1.badd159e26af6p+16, 0x1.2cc8p+18, 19468},
    {"TreeGRU-emb", "default", 1, 18, 15228, 7872, 104640, 0x1.7f6c5f92c5f92p+15, 0x1.57cp+12, 11388},
    {"TreeGRU-emb", "cavs_comparable", 1, 18, 27372, 7872, 214512, 0x1.82715b66c77d9p+15, 0x1.57cp+12, 11388},
    {"TreeGRU-emb", "unbatched", 123, 0, 207804, 7872, 104640, 0x1.bb9bcccccccc4p+17, 0x1.4a528p+19, 11388},
    {"TreeGRU-emb", "megakernel_lock_free", 1, 18, 15228, 7872, 104640, 0x1.ad58bf258bf26p+14, 0x1.57cp+12, 11388},
    {"TreeGRU-emb", "unroll2", 1, 40, 24444, 7872, 104640, 0x1.9ba3333333333p+16, 0x1.57cp+12, 11388},
    {"TreeGRU-emb", "unfused", 82, 0, 83580, 38592, 104640, 0x1.4988acf135799p+17, 0x1.b86ep+18, 25212},
    {"TreeLSTM-emb", "default", 1, 7, 16520, 8064, 85920, 0x1.45aebbf5fcd07p+14, 0x1.57cp+12, 9884},
    {"TreeLSTM-emb", "cavs_comparable", 1, 7, 29048, 8064, 180432, 0x1.4ef851eb851ecp+14, 0x1.57cp+12, 9884},
    {"TreeLSTM-emb", "unbatched", 63, 0, 142728, 8064, 85920, 0x1.d17d11111110bp+16, 0x1.5261p+18, 9884},
    {"TreeLSTM-emb", "megakernel_lock_free", 1, 7, 16520, 8064, 85920, 0x1.84dd77ebf9a0ep+13, 0x1.57cp+12, 9884},
    {"TreeLSTM-emb", "unroll2", 1, 16, 25736, 8064, 85920, 0x1.4fdc8057619f1p+15, 0x1.57cp+12, 9884},
    {"TreeLSTM-emb", "unfused", 129, 0, 96712, 44928, 85920, 0x1.f7f52c5f92c62p+17, 0x1.5a6f8p+19, 54236},
    {"SeqLSTM", "default", 1, 8, 14484, 4992, 78624, 0x1.63c4d5e6f8091p+14, 0x1.57cp+12, 6148},
    {"SeqLSTM", "cavs_comparable", 1, 8, 21084, 4992, 170352, 0x1.6501a2b3c4d5ep+14, 0x1.57cp+12, 6148},
    {"SeqLSTM", "unbatched", 39, 0, 158100, 4992, 78624, 0x1.1ed84b17e4b14p+16, 0x1.a2f2p+17, 6148},
    {"SeqLSTM", "megakernel_lock_free", 1, 8, 14484, 4992, 78624, 0x1.9b89abcdf0123p+13, 0x1.57cp+12, 6148},
    {"SeqLSTM", "unroll2", 1, 16, 37524, 4992, 78624, 0x1.4dbd933a7b55dp+15, 0x1.57cp+12, 6148},
    {"SeqLSTM", "unfused", 147, 0, 102804, 27264, 78624, 0x1.124969d0369d4p+18, 0x1.8ac68p+19, 34372},
    {"SeqGRU", "default", 1, 16, 10068, 2496, 59328, 0x1.51879cea727e4p+15, 0x1.57cp+12, 3652},
    {"SeqGRU", "cavs_comparable", 1, 16, 13980, 2496, 128544, 0x1.5024e512956d9p+15, 0x1.57cp+12, 3652},
    {"SeqGRU", "unbatched", 39, 0, 117780, 2496, 59328, 0x1.19dc2608c6f2fp+16, 0x1.a2f2p+17, 3652},
    {"SeqGRU", "megakernel_lock_free", 1, 16, 10068, 2496, 59328, 0x1.770f39d4e4fc6p+14, 0x1.57cp+12, 3652},
    {"SeqGRU", "unroll2", 1, 32, 27924, 2496, 59328, 0x1.49ccc756b2dbdp+16, 0x1.57cp+12, 3652},
    {"SeqGRU", "unfused", 105, 0, 74004, 16320, 59328, 0x1.866c888888888p+17, 0x1.19fb8p+19, 6148},
};
// clang-format on

const Pinned* find_pinned(const std::string& model, const std::string& sched) {
  for (const Pinned& p : kPinned)
    if (model == p.model && sched == p.schedule) return &p;
  return nullptr;
}

TEST(ModelCost, MatchesParentCounters) {
  int checked = 0;
  for (int m = 0; m < kZooSize; ++m) {
    const models::ModelDef def = zoo_model(m);
    Rng rng(1000 + static_cast<std::uint64_t>(m));
    const models::ModelParams params = models::init_params(def, rng);
    const Inputs in = inputs_for(def, rng);
    for (const NamedSchedule& ns : pinned_schedules()) {
      if (is_dag(def) && ns.schedule.unroll_depth > 1) continue;  // §3.1
      SCOPED_TRACE(def.name + " / " + ns.name);
      const Pinned* want = find_pinned(def.name, ns.name);
      ASSERT_NE(want, nullptr);
      const CortexEngine engine(def, params, ns.schedule, gpu());
      double lin_ns = 0.0;
      const linearizer::Linearized lin =
          is_dag(def) ? engine.linearize(baselines::raw(in.dags), lin_ns)
                      : engine.linearize(baselines::raw(in.trees), lin_ns);
      const runtime::RunResult r = model_cost(engine, lin, lin_ns);
      const runtime::Profiler& p = r.profiler;
      EXPECT_EQ(p.kernel_launches, want->kernel_launches);
      EXPECT_EQ(p.barriers, want->barriers);
      EXPECT_EQ(p.device_bytes_read, want->device_bytes_read);
      EXPECT_EQ(p.device_bytes_written, want->device_bytes_written);
      EXPECT_EQ(p.device_flops, want->device_flops);
      // Bitwise, not within a tolerance: the accounting moved, unchanged.
      EXPECT_EQ(p.device_compute_ns, want->device_compute_ns);
      EXPECT_EQ(p.host_api_ns, want->host_api_ns);
      EXPECT_EQ(r.peak_memory_bytes, want->peak_memory_bytes);
      EXPECT_EQ(p.linearization_ns, lin_ns);
      EXPECT_TRUE(r.root_states.empty());
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<int>(std::size(kPinned)));
}

TEST(ModelCost, EngineOverloadMatchesArtifactsAndNeedsNoRun) {
  // The offline form the tuner uses (a launch plan, no engine) and the
  // engine form agree, and neither depends on a run having happened.
  const models::ModelDef def = models::make_treelstm(16);
  Rng rng(5);
  const models::ModelParams params = models::init_params(def, rng);
  const auto trees = ds::make_sst_like_batch(4, rng);
  ra::Schedule s;
  s.persistence = false;
  const CortexEngine engine(def, params, s, gpu());
  double lin_ns = 0.0;
  const linearizer::Linearized lin =
      engine.linearize(baselines::raw(trees), lin_ns);
  const runtime::RunResult a = model_cost(engine, lin, 0.0);
  const runtime::RunResult b =
      model_cost(build_plan(def, s, gpu()), s, def.cell, gpu(), lin, 0.0);
  EXPECT_EQ(a.profiler.kernel_launches, b.profiler.kernel_launches);
  EXPECT_EQ(a.profiler.device_flops, b.profiler.device_flops);
  EXPECT_EQ(a.profiler.modeled_latency_ns(), b.profiler.modeled_latency_ns());
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_GT(a.profiler.kernel_launches, 0);
}

// -- served runs: measured numbers only --------------------------------------

/// Every modeled field of a result reads 0: the device counters, the
/// baselines' framework phases and the peak device memory. What is left
/// of modeled_latency_ns() is the measured linearization time.
void expect_no_modeled_numbers(const runtime::RunResult& r) {
  const runtime::Profiler& p = r.profiler;
  EXPECT_EQ(p.kernel_launches, 0);
  EXPECT_EQ(p.memcpy_calls, 0);
  EXPECT_EQ(p.barriers, 0);
  EXPECT_EQ(p.device_compute_ns, 0.0);
  EXPECT_EQ(p.device_memcpy_ns, 0.0);
  EXPECT_EQ(p.host_api_ns, 0.0);
  EXPECT_EQ(p.device_bytes_read, 0);
  EXPECT_EQ(p.device_bytes_written, 0);
  EXPECT_EQ(p.device_flops, 0);
  EXPECT_EQ(p.graph_construction_ns, 0.0);
  EXPECT_EQ(p.dynamic_batching_ns, 0.0);
  EXPECT_EQ(p.mem_mgmt_host_ns, 0.0);
  EXPECT_EQ(p.host_other_ns, 0.0);
  EXPECT_EQ(r.peak_memory_bytes, 0);
  EXPECT_EQ(p.modeled_latency_ns(), p.linearization_ns);
}

TEST(ServedRuns, EngineAndPoolReportMeasuredNumbersOnly) {
  for (const int m : {1, 4, 12}) {  // DAG-RNN, TreeLSTM, SeqLSTM
    const models::ModelDef def = zoo_model(m);
    SCOPED_TRACE(def.name);
    Rng rng(77);
    const models::ModelParams params = models::init_params(def, rng);
    const Inputs in = inputs_for(def, rng);
    for (const NamedSchedule& ns : pinned_schedules()) {
      if (is_dag(def) && ns.schedule.unroll_depth > 1) continue;
      SCOPED_TRACE(ns.name);
      CortexEngine engine(def, params, ns.schedule, gpu());
      engine.set_num_threads(1);
      EnginePool pool(def, params, ns.schedule, gpu(), EnginePoolOptions{2});
      const runtime::RunResult served =
          is_dag(def) ? engine.run(baselines::raw(in.dags))
                      : engine.run(baselines::raw(in.trees));
      const runtime::RunResult pooled =
          is_dag(def) ? pool.run(baselines::raw(in.dags))
                      : pool.run(baselines::raw(in.trees));
      for (const runtime::RunResult* r : {&served, &pooled}) {
        expect_no_modeled_numbers(*r);
        EXPECT_GT(r->profiler.numerics_host_ns, 0.0);
        EXPECT_GT(r->profiler.linearization_ns, 0.0);
        EXPECT_GT(r->profiler.batched_panels, 0);
        EXPECT_FALSE(r->root_states.empty());
      }
      EXPECT_EQ(pooled.root_states, served.root_states);
      EXPECT_EQ(pooled.shards.size(), 2u);
    }
  }
}

}  // namespace
}  // namespace cortex::exec
