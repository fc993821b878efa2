#pragma once
// CortexEngine: the end-to-end execution engine for Cortex-compiled models.
//
// Compilation happens at construction — through the process-wide
// PlanCache (plan_cache.hpp). On a cold miss the RA model is verified
// (P.1-P.3), the schedule validated and the model lowered to ILIR (the
// engine keeps it for its linearizer spec); on a warm hit every engine
// constructed for a structurally identical (model, schedule) pair shares
// the same immutable artifacts and skips all of that, whatever device it
// was built for. Construction runs no ILIR pass, plans no ILIR memory and
// models no device kernels: exec::compile_ilir (ilir_runner.hpp) and
// the cost model (cost_model.hpp) do that offline, for tests, benches
// and examples.
// At run time the engine:
//   1. linearizes the input structures on the host CPU (§4.2, timed),
//   2. executes the model numerics bottom-up over the linearized arrays
//      (the exact semantics every baseline shares, so outputs are
//      bit-comparable across frameworks) with the batched wavefront
//      executor, under every schedule and for every cell that
//      CellProgram::validate accepts: each dynamic batch's per-node GEMVs
//      fused into panel GEMMs, and ops that read only leaf children (a
//      sequence cell's W·x) hoisted out of the wavefront loop into tall
//      GEMMs over a window of wavefronts. Wavefronts and windows split by
//      rows across the run's team of threads (support::Team): the
//      engine's own pool (set_num_threads), or threads lent for the run
//      (set_lender; EnginePool lends an idle worker). A wavefront
//      narrower than the team splits by output columns instead, when the
//      cell's step reads enough weights, so each member keeps its column
//      slice of the recurrent weights in its own cache for the whole run
//      (model persistence, §5-6) and the team meets at one barrier per
//      wavefront. This is the one numeric path: a schedule without
//      dynamic_batching changes only the modeled device cost (one launch
//      per node), not how the host computes. The per-node executor in
//      models/cell.hpp is the oracle it is tested against, bit for bit.
//      The compiled ILIR (compile_ilir, run_ilir, and the test/bench
//      kernel builder in exec/jit.hpp) is never on the served path,
//   3. returns the root states with measured host numbers only: the
//      linearization and numerics times, the team size and the panel
//      counts. The engine builds no device model. The modeled device
//      cost of a run (kernel launches, off-chip traffic, barriers, peak
//      device memory, per DESIGN.md §2's GPU substitution) is computed
//      offline from the engine's model, schedule and device and the
//      linearization by exec/cost_model.hpp, for the paper's figures and
//      the schedule tuner.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "exec/artifacts.hpp"
#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"
#include "runtime/device.hpp"
#include "runtime/result.hpp"
#include "support/team.hpp"
#include "support/thread_pool.hpp"

namespace cortex::exec {

class CortexEngine {
 public:
  /// Compiles `def` under `schedule`. Throws cortex::Error on P.1-P.3
  /// violations or illegal schedules. `spec` is the device the offline
  /// cost model (cost_model.hpp) models this engine's runs on; serving
  /// never reads it. The model definition and parameters must outlive
  /// the engine.
  CortexEngine(const models::ModelDef& def, const models::ModelParams& params,
               ra::Schedule schedule, runtime::DeviceSpec spec);

  /// Runs inference over a mini-batch of trees (linearizes first).
  runtime::RunResult run(const std::vector<const ds::Tree*>& trees);
  runtime::RunResult run(const std::vector<std::unique_ptr<ds::Tree>>& trees);
  /// Runs inference over a mini-batch of DAGs.
  runtime::RunResult run(const std::vector<const ds::Dag*>& dags);

  /// Linearizes a mini-batch with this engine's linearizer spec, as run()
  /// does before run_linearized; `ns` receives the host time it took.
  linearizer::Linearized linearize(const std::vector<const ds::Tree*>& trees,
                                   double& ns) const;
  linearizer::Linearized linearize(const std::vector<const ds::Dag*>& dags,
                                   double& ns) const;

  /// Runs over an already-linearized structure; `linearization_ns` is the
  /// host time the caller spent linearizing (0 when amortized/cached).
  /// An empty linearization (num_nodes == 0) yields an empty RunResult.
  runtime::RunResult run_linearized(const linearizer::Linearized& lin,
                                    double linearization_ns);

  /// Host threads the numeric wavefront executor uses: this engine's own
  /// team, the caller plus n - 1 dedicated threads. Defaults to the
  /// hardware thread count (ThreadPool::default_num_threads) on first
  /// use; n < 1 resets to that default. Outputs are bit-identical at
  /// every thread count: nodes within a wavefront batch are independent
  /// by construction and each writes only its own state row (or, split
  /// by columns, its own columns of it).
  void set_num_threads(int n);

  /// Lends a run threads: called with how many more threads the run can
  /// use, it returns a lease on a team of threads idle at that moment
  /// (members() == 1 when none are). Runs call it when the cell's
  /// recurrent step reads enough weights to be worth splitting
  /// (BatchedCellExecutor::split_weight_bytes), asking for one thread at
  /// most; with a team they split wavefronts across it instead of across
  /// this engine's own pool. Outputs are bit-identical whatever the team
  /// size and whoever runs which chunk. EnginePool sets it for each shard
  /// of a batch that has fewer shards than workers, lending a worker idle
  /// when the run starts.
  using Lender = std::function<support::TeamLease(int)>;
  void set_lender(Lender lender) { lender_ = std::move(lender); }
  int num_threads() const {
    return pool_ ? pool_->num_threads()
                 : support::ThreadPool::default_num_threads();
  }

  const models::ModelDef& def() const { return def_; }
  const ra::Schedule& schedule() const { return schedule_; }
  const runtime::DeviceSpec& spec() const { return spec_; }
  /// Lowered (unoptimized) ILIR artifacts; nullptr for cell-only models
  /// (no RA def). The optimized program is exec::compile_ilir's.
  const lowering::LoweredModel* lowered() const {
    return artifacts_->lowered ? &*artifacts_->lowered : nullptr;
  }
  /// The compiled artifacts backing this engine. Engines constructed for
  /// structurally identical (model, schedule) pairs share one object
  /// (pointer-equal) while the plan cache is enabled, whatever their
  /// device; the pointer stays valid even if the cache entry is evicted.
  const ArtifactsPtr& artifacts() const { return artifacts_; }
  /// All node states (N, state_width) from the most recent run: a view
  /// into storage the engine reuses, valid until its next run.
  const Tensor& last_states() const { return states_; }

 private:
  void run_numerics(const linearizer::Linearized& lin,
                    runtime::Profiler& prof);
  /// Batched wavefront body: runs `n` consecutively numbered nodes
  /// starting at `first` (a worker's row range of one dynamic batch)
  /// through the BatchedCellExecutor, splitting the range into maximal
  /// same-leafness runs so each run maps to one cell program. With
  /// `win`, the nodes' hoisted registers are read from that window, whose
  /// row 0 is node `win_first`.
  void run_panel(const linearizer::Linearized& lin, std::int64_t first,
                 std::int64_t n, models::BatchedCellExecutor::Panels& p,
                 const models::BatchedCellExecutor::HoistWindow* win,
                 std::int64_t win_first,
                 models::ColumnShare share = {});
  /// Runs chunks [0, n) of one step across the run's team, fn(thread,
  /// chunk), each claimed by one member; inline when n <= 1 (a run
  /// without a team only ever has one chunk).
  void run_chunks(support::Team* team, int n,
                  const support::Team::ChunkFn& fn);
  /// The child whose recurrence-free ops can be hoisted for this input:
  /// the first `c` with a hoist whose state is computed in batch 0 for
  /// every node of the later batches. -1 when there is none.
  int hoist_child(const linearizer::Linearized& lin);
  /// Opens the hoisting window that starts at internal batch `b`: as many
  /// consecutive batches with abutting id ranges as fit kHoistWindowBytes,
  /// their hoisted ops run as tall panels into hoisted_. Sets `win.rows`
  /// (0 when batch `b` alone does not fit) and `win_first`, and returns
  /// the first batch past the window.
  std::int64_t open_window(const linearizer::Linearized& lin, std::int64_t b,
                           models::BatchedCellExecutor::HoistWindow& win,
                           std::int64_t& win_first, support::Team* team,
                           int threads);
  /// Lazily builds the pool on the first run, so engines that never run
  /// (cost-model only) never spawn threads.
  void ensure_pool();
  /// Lazily builds the batched executor on the first run: its packed
  /// weight copies cost memory, so engines that never run (cost-model
  /// only) never pay for it. Safe without locking for the same reason
  /// states_ is: one engine is driven by one thread at a time.
  /// Deliberately NOT part of the shared CompiledArtifacts: artifacts are
  /// weight-independent by design (engines with different weights share
  /// one cache entry), while this executor bakes in weight data — so
  /// pooled workers each hold their own copy.
  models::BatchedCellExecutor& batched_exec();

  const models::ModelDef& def_;
  const models::ModelParams& params_;
  ra::Schedule schedule_;
  runtime::DeviceSpec spec_;
  ArtifactsPtr artifacts_;
  std::unique_ptr<models::BatchedCellExecutor> batched_exec_;
  /// The current run's node states: an (N, state_width) view of
  /// state_buf_, which keeps its largest size (state_capacity_ floats)
  /// across runs and is never cleared.
  Tensor states_;
  std::shared_ptr<float[]> state_buf_;
  std::int64_t state_capacity_ = 0;
  /// Side buffer of the current hoisting window; never more than
  /// kHoistWindowBytes, whatever the input size.
  std::vector<float> hoisted_;
  std::unique_ptr<support::ThreadPool> pool_;
  /// Panel workspace, one per thread of a run: the own pool's, or a lent
  /// team's members.
  std::vector<models::BatchedCellExecutor::Panels> panels_;
  Lender lender_;
};

}  // namespace cortex::exec
