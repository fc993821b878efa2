#include "exec/engine.hpp"

#include <algorithm>
#include <utility>

#include "exec/plan_cache.hpp"

namespace cortex::exec {

namespace {
constexpr std::int64_t kF = sizeof(float);
/// Cap of the hoisting side buffer. 4 MiB holds 1024 rows of a SeqLSTM
/// h256 cell's four W·x products: a whole batch-1 chain of 100 steps in
/// one window, and windows of up to 1024 nodes for wider batches, whose
/// own panels are tall already.
constexpr std::int64_t kHoistWindowBytes = std::int64_t{4} << 20;

/// Threads a run borrows up to, itself included. A lent team serves
/// EnginePool traffic, and the pool-level benchmarks (servebench,
/// bench_batch_server) have only measured teams of two; larger teams form
/// only in an engine's own pool (set_num_threads), whose size its caller
/// picks.
constexpr int kMaxTeam = 2;
/// A run borrows a team, and a wavefront narrower than its team splits by
/// columns, only when one node's step reads at least this many bytes of
/// kMatVec weights (BatchedCellExecutor::split_weight_bytes). The owner
/// never waits for a lent thread, so what a split costs is its barrier and
/// the gathers every member repeats. bench_micro_kernels, one 1-row step
/// over packed weights with fused multiply-add GEMMs, 4-vCPU AVX-512
/// Xeon, teams of 1 / 2 / 3 / 4 (BM_WavefrontStep), median of 5 runs
/// alternating with the unfused, row-major kernels (in parentheses):
///   SeqLSTM h256, 1 MiB of U:  22.9 / 15.4 / 17.4 / 12.1 µs
///                             (23.2 / 18.3 / 16.7 / 12.5)
///   DAG-RNN h256, 256 KiB:      6.0 /  5.0 /  5.7 /  4.4 µs
///                              (6.1 /  5.5 /  5.4 /  4.3)
///   TreeLSTM h64, 80 KiB:       2.6 /  4.8 /  5.0 /  5.7 µs (slower)
///                              (2.7 /  5.1 /  5.2 /  5.3)
/// so the smallest measured step that gains sets the bar. A 1-row step
/// streams its weights once, so fusing barely moves it. Waking a parked
/// pool worker into a team (BM_TeamWake) takes ~27-36 µs at p50 and up to
/// ~0.8 ms at p99, which the owner overlaps with the steps it runs alone.
constexpr std::int64_t kSplitMinWeightBytes = std::int64_t{256} << 10;

/// A well-formed result for a zero-node run: nothing computed, only the
/// (measured) host linearization time reported.
runtime::RunResult empty_result(double linearization_ns) {
  runtime::RunResult rr;
  rr.profiler.linearization_ns = linearization_ns;
  return rr;
}

/// Compile-once-run-everywhere: a warm cache hit shares the verified and
/// lowered artifacts of an earlier engine with a structurally identical
/// (model, schedule) pair; a cold miss compiles via compile_artifacts
/// (which throws on P.1-P.3 or schedule violations — failures are never
/// cached). With the cache disabled the (multi-KB) fingerprint is never
/// built: compile directly. The enabled() check is advisory —
/// get_or_compile re-checks under its own lock.
ArtifactsPtr obtain_artifacts(const models::ModelDef& def,
                              const ra::Schedule& schedule) {
  PlanCache& cache = PlanCache::instance();
  if (!cache.enabled())
    return std::make_shared<const CompiledArtifacts>(
        compile_artifacts(def, schedule));
  return cache.get_or_compile(
      PlanCache::key_for(def, schedule),
      [&] { return compile_artifacts(def, schedule); });
}
}  // namespace

CortexEngine::CortexEngine(const models::ModelDef& def,
                           const models::ModelParams& params,
                           ra::Schedule schedule, runtime::DeviceSpec spec)
    : def_(def),
      params_(params),
      schedule_(schedule),
      spec_(std::move(spec)),
      artifacts_(obtain_artifacts(def, schedule_)) {}

models::BatchedCellExecutor& CortexEngine::batched_exec() {
  if (!batched_exec_)
    batched_exec_ =
        std::make_unique<models::BatchedCellExecutor>(def_.cell, params_);
  return *batched_exec_;
}

linearizer::Linearized CortexEngine::linearize(
    const std::vector<const ds::Tree*>& trees, double& ns) const {
  const linearizer::LinearizerSpec lspec =
      lowered() ? lowered()->lin_spec : linearizer::LinearizerSpec{};
  const std::int64_t t0 = runtime::now_ns();
  linearizer::Linearized lin = linearizer::linearize_trees(trees, lspec);
  ns = static_cast<double>(runtime::now_ns() - t0);
  return lin;
}

linearizer::Linearized CortexEngine::linearize(
    const std::vector<const ds::Dag*>& dags, double& ns) const {
  linearizer::LinearizerSpec lspec =
      lowered() ? lowered()->lin_spec : linearizer::LinearizerSpec{};
  lspec.kind = linearizer::StructureKind::kDag;
  const std::int64_t t0 = runtime::now_ns();
  linearizer::Linearized lin = linearizer::linearize_dags(dags, lspec);
  ns = static_cast<double>(runtime::now_ns() - t0);
  return lin;
}

runtime::RunResult CortexEngine::run(
    const std::vector<const ds::Tree*>& trees) {
  CORTEX_CHECK(def_.kind() != linearizer::StructureKind::kDag)
      << "model " << def_.name << " expects DAG inputs";
  if (trees.empty()) return empty_result(0.0);
  double lin_ns = 0.0;
  const linearizer::Linearized lin = linearize(trees, lin_ns);
  return run_linearized(lin, lin_ns);
}

runtime::RunResult CortexEngine::run(
    const std::vector<std::unique_ptr<ds::Tree>>& trees) {
  std::vector<const ds::Tree*> raw;
  raw.reserve(trees.size());
  for (const auto& t : trees) raw.push_back(t.get());
  return run(raw);
}

runtime::RunResult CortexEngine::run(const std::vector<const ds::Dag*>& dags) {
  // Mirror of the run(trees) guard: a tree/sequence model must not be
  // silently linearized as a DAG (its cell assumes tree connectivity).
  CORTEX_CHECK(def_.kind() == linearizer::StructureKind::kDag)
      << "model " << def_.name << " expects tree inputs, not DAGs";
  if (dags.empty()) return empty_result(0.0);
  double lin_ns = 0.0;
  const linearizer::Linearized lin = linearize(dags, lin_ns);
  return run_linearized(lin, lin_ns);
}

void CortexEngine::ensure_pool() {
  if (!pool_) pool_ = std::make_unique<support::ThreadPool>();
}

void CortexEngine::set_num_threads(int n) {
  pool_ = std::make_unique<support::ThreadPool>(
      n < 1 ? support::ThreadPool::default_num_threads() : n);
  panels_.assign(static_cast<std::size_t>(pool_->num_threads()),
                 models::BatchedCellExecutor::Panels{});
}

void CortexEngine::run_chunks(support::Team* team, int n,
                              const support::Team::ChunkFn& fn) {
  if (n <= 1)
    fn(0, 0);
  else
    team->run(n, fn);
}

void CortexEngine::run_panel(
    const linearizer::Linearized& lin, std::int64_t first, std::int64_t n,
    models::BatchedCellExecutor::Panels& p,
    const models::BatchedCellExecutor::HoistWindow* win,
    std::int64_t win_first, models::ColumnShare share) {
  // Split [first, first+n) into maximal runs of equal leaf-ness so every
  // run executes one cell program over contiguous state rows. With the
  // Appendix-B numbering a dynamic batch is homogeneous (batch 0 is
  // exactly the leaves), so this loop does one iteration per chunk; it
  // only splits for hand-built Linearized inputs that interleave.
  std::int64_t r = 0;
  const auto childless = [&](std::int64_t id) {
    return lin.child_offsets[static_cast<std::size_t>(id)] ==
           lin.child_offsets[static_cast<std::size_t>(id) + 1];
  };
  while (r < n) {
    const bool leaf = childless(first + r);
    std::int64_t e = r + 1;
    while (e < n && childless(first + e) == leaf) ++e;
    const auto i0 = static_cast<std::size_t>(first + r);
    models::BatchedCellExecutor::HoistWindow w;
    if (win != nullptr) {
      w = *win;
      w.row0 = first + r - win_first;
    }
    batched_exec().run_batch(leaf, e - r, lin.word.data() + i0,
                             lin.child_offsets.data() + i0,
                             lin.child_ids.data(), states_.data(),
                             states_.row(first + r), p,
                             win != nullptr ? &w : nullptr, share);
    r = e;
  }
}

int CortexEngine::hoist_child(const linearizer::Linearized& lin) {
  if (lin.num_batches() < 2) return -1;
  const std::int64_t done0 = lin.batch_begin[0];
  const std::int64_t done1 = done0 + lin.batch_length[0];
  for (int c = 0; c < lin.max_fanin; ++c) {
    if (batched_exec().hoist_width(c) == 0) continue;
    bool ready = true;
    for (std::int64_t b = 1; ready && b < lin.num_batches(); ++b) {
      const std::int64_t begin = lin.batch_begin[static_cast<std::size_t>(b)];
      const std::int64_t end =
          begin + lin.batch_length[static_cast<std::size_t>(b)];
      for (std::int64_t id = begin; ready && id < end; ++id) {
        const std::int32_t off0 =
            lin.child_offsets[static_cast<std::size_t>(id)];
        const std::int32_t off1 =
            lin.child_offsets[static_cast<std::size_t>(id) + 1];
        const std::int32_t kid =
            off1 - off0 > c ? lin.child_ids[static_cast<std::size_t>(off0 + c)]
                            : -1;
        ready = kid >= done0 && kid < done1;
      }
    }
    if (ready) return c;
  }
  return -1;
}

std::int64_t CortexEngine::open_window(
    const linearizer::Linearized& lin, std::int64_t b,
    models::BatchedCellExecutor::HoistWindow& win, std::int64_t& win_first,
    support::Team* team, int threads) {
  const std::int64_t width = batched_exec().hoist_width(win.child);
  const std::int64_t cap_rows = kHoistWindowBytes / (width * kF);
  const auto range = [&](std::int64_t g) {
    const std::int64_t begin = lin.batch_begin[static_cast<std::size_t>(g)];
    return std::pair<std::int64_t, std::int64_t>(
        begin, begin + lin.batch_length[static_cast<std::size_t>(g)]);
  };
  auto [lo, hi] = range(b);
  win.rows = 0;
  if (hi - lo > cap_rows) return b + 1;
  // Appendix-B numbering gives later wavefronts lower ids, so a window
  // grows downwards; either direction works as long as the ids abut.
  std::int64_t e = b + 1;
  for (; e < lin.num_batches(); ++e) {
    const auto [s, t] = range(e);
    if (hi - lo + t - s > cap_rows) break;
    if (t == lo) {
      lo = s;
    } else if (s == hi) {
      hi = t;
    } else {
      break;
    }
  }
  win.rows = hi - lo;
  win_first = lo;
  const auto need = static_cast<std::size_t>(win.rows * width);
  if (hoisted_.size() < need) hoisted_.resize(need);
  win.data = hoisted_.data();
  const auto chunks =
      static_cast<int>(std::min<std::int64_t>(threads, win.rows));
  run_chunks(team, chunks, [&](int thread, int c) {
    models::BatchedCellExecutor::HoistWindow w = win;
    w.row0 = win.rows * c / chunks;
    batched_exec().run_hoisted(
        win.rows * (c + 1) / chunks - w.row0,
        lin.child_offsets.data() + lo + w.row0, lin.child_ids.data(),
        states_.data(), w, panels_[static_cast<std::size_t>(thread)]);
  });
  return e;
}

void CortexEngine::run_numerics(const linearizer::Linearized& lin,
                                runtime::Profiler& prof) {
  const std::int64_t t0 = runtime::now_ns();
  // Wavefront execution under every schedule: the linearizer emits the
  // dynamic batches whatever the schedule says (dynamic_batching changes
  // only the modeled device cost, exec/cost_model.hpp), and they must cover
  // every node. Each dynamic batch is a contiguous id range of
  // mutually independent nodes (ForKind::kParallel in the lowered ILIR),
  // split across the run's threads; the end of each split step is the
  // inter-batch barrier (the host mirror of the §A.4 insert_barriers
  // placement). Every node writes only its own state row (or, split by
  // columns, its own columns of it) and reads rows finished in earlier
  // batches, so outputs are bit-identical at any thread count.
  //
  // Each thread's row range runs through the batched executor: child
  // states gathered into contiguous panels, one GEMM per kMatVec op over
  // the whole panel (§5's compute-dense form of dynamic batching, the
  // Cavs/GRNN batching a node-by-node walk leaves on the table). Rows are
  // computed independently inside a panel, so chunking — and hence the
  // thread count — cannot perturb any node's result.
  std::int64_t covered = 0;
  for (const std::int32_t len : lin.batch_length) covered += len;
  CORTEX_CHECK(covered == lin.num_nodes)
      << "the linearization's batches hold " << covered << " of its "
      << lin.num_nodes << " nodes";
  ensure_pool();
  // Input hoisting (BatchedCellExecutor's class comment): when child c
  // of every internal node is computed in batch 0, the ops that read only
  // child c run once per window of consecutive wavefronts, as tall
  // panels, and each wavefront runs only the ops left.
  models::BatchedCellExecutor::HoistWindow win;
  win.child = hoist_child(lin);
  // Model persistence across cores: a recurrent step heavy enough to
  // split borrows the threads idle right now. The lease returns them when
  // the run ends, or throws.
  support::TeamLease lease;
  if (lender_ && batched_exec().split_weight_bytes(false, win.child) >=
                     kSplitMinWeightBytes)
    lease = lender_(kMaxTeam - 1);
  support::Team* const team =
      lease.team() != nullptr ? lease.team() : pool_->team();
  const int threads =
      lease.team() != nullptr ? lease.members() : pool_->num_threads();
  prof.host_threads = threads;
  if (panels_.size() < static_cast<std::size_t>(threads))
    panels_.resize(static_cast<std::size_t>(threads));
  // Reset the per-thread panel stats up front (not only after a run): a
  // run that throws mid-wavefront must not drain its partial counts into
  // the next run's profiler (EnginePool keeps serving an engine whose last
  // batch failed). The panels grow on demand and keep their high-water
  // size across runs.
  for (models::BatchedCellExecutor::Panels& p : panels_) {
    p.gemm_calls = 0;
    p.panels_run = 0;
    p.max_panel_rows = 0;
  }
  const auto panels = [&](int thread) -> models::BatchedCellExecutor::Panels& {
    return panels_[static_cast<std::size_t>(thread)];
  };
  std::int64_t win_first = 0;  // node id of the window's row 0
  std::int64_t win_end = 1;    // first batch past the window
  for (std::int64_t b = 0; b < lin.num_batches(); ++b) {
    const auto bi = static_cast<std::size_t>(b);
    const std::int64_t begin = lin.batch_begin[bi];
    const std::int64_t len = lin.batch_length[bi];
    if (win.child >= 0 && b >= win_end)
      win_end = open_window(lin, b, win, win_first, team, threads);
    const models::BatchedCellExecutor::HoistWindow* hoisted =
        win.child >= 0 && b > 0 && win.rows > 0 ? &win : nullptr;
    // Narrower than the team: split by output columns, so every member
    // works on every step and reads only its slice of the weights.
    const bool by_columns =
        team != nullptr && len < threads &&
        batched_exec().split_weight_bytes(
            lin.child_offsets[static_cast<std::size_t>(begin)] ==
                lin.child_offsets[static_cast<std::size_t>(begin) + 1],
            hoisted != nullptr ? win.child : -1) >=
            kSplitMinWeightBytes;
    if (threads > 1 && (len > 1 || by_columns)) ++prof.parallel_batches;
    if (by_columns) {
      run_chunks(team, threads, [&](int thread, int c) {
        run_panel(lin, begin, len, panels(thread), hoisted, win_first,
                  {c, threads});
      });
      continue;
    }
    const auto chunks = static_cast<int>(std::min<std::int64_t>(threads, len));
    run_chunks(team, chunks, [&](int thread, int c) {
      const std::int64_t i0 = len * c / chunks;
      const std::int64_t i1 = len * (c + 1) / chunks;
      run_panel(lin, begin + i0, i1 - i0, panels(thread), hoisted,
                win_first);
    });
  }
  // Drain the per-worker panel stats into the profiler (the next run
  // zeroes them before its wavefront loop).
  for (const models::BatchedCellExecutor::Panels& p : panels_) {
    prof.batched_gemm_calls += p.gemm_calls;
    prof.batched_panels += p.panels_run;
    prof.max_panel_rows = std::max(prof.max_panel_rows, p.max_panel_rows);
  }
  prof.numerics_host_ns += static_cast<double>(runtime::now_ns() - t0);
}

runtime::RunResult CortexEngine::run_linearized(
    const linearizer::Linearized& lin, double linearization_ns) {
  runtime::RunResult rr = empty_result(linearization_ns);
  if (lin.num_nodes == 0) return rr;

  // The state table reuses one buffer across runs, growing it only for a
  // larger linearization, and is never cleared: every node's row is
  // written before a later wavefront reads it.
  const std::int64_t sw = def_.cell.state_width;
  const std::int64_t need = lin.num_nodes * sw;
  if (need > state_capacity_) {
    states_ = Tensor();
    state_buf_.reset();  // free the old buffer before allocating its successor
    state_buf_.reset(new float[static_cast<std::size_t>(need)]);
    state_capacity_ = need;
  }
  states_ = Tensor::view_into(Shape{lin.num_nodes, sw}, state_buf_, 0);
  run_numerics(lin, rr.profiler);

  rr.root_states.reserve(lin.roots.size());
  for (const std::int32_t r : lin.roots) {
    const float* row = states_.row(r);
    rr.root_states.emplace_back(row, row + sw);
  }
  return rr;
}

}  // namespace cortex::exec
