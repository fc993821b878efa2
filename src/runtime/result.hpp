#pragma once
// The result every execution engine in this repo (Cortex + the baseline
// frameworks) returns, so benches and equivalence tests treat them
// uniformly. What it holds depends on who filled it in:
//   - A served Cortex run (exec::CortexEngine, exec::EnginePool) carries
//     root states and measured host numbers only: linearization and
//     numerics time, team size, panel counts. Every modeled field reads 0.
//   - exec::model_cost (exec/cost_model.hpp) carries the modeled device
//     counters and peak memory of a Cortex run, and no root states.
//   - The baselines carry both: they model their framework overheads and
//     device time as they run. modeled_latency_ms() is the modeled
//     end-to-end inference latency (Profiler::modeled_latency_*), as the
//     paper reports Tables 4-6.
//
// Pooled runs (exec::EnginePool) shard a mini-batch across worker engines
// and splice the per-shard results back together with append_shard():
// root_states are concatenated in shard (= submission) order, profiler
// counters are summed (aggregate work), and one ShardRecord per shard
// keeps the per-worker breakdown.

#include <cstdint>
#include <vector>

#include "runtime/profiler.hpp"

namespace cortex::runtime {

/// Per-shard execution record of a pooled run (RunResult::shards).
struct ShardRecord {
  /// Pool worker (engine index) that ran the shard. Diagnostic: the
  /// observed assignment depends on which workers were free (other
  /// client batches, OS scheduling), so one worker may have run several
  /// shards of this batch.
  int worker = -1;
  /// The shard's slice of the submitted mini-batch: [batch_begin,
  /// batch_begin + batch_size) in submission order.
  std::int64_t batch_begin = 0;
  std::int64_t batch_size = 0;
  /// Measured host wall time of the shard's run() on its worker.
  double run_ns = 0.0;
};

struct RunResult {
  /// Final state vector of each root, in mini-batch order (one entry per
  /// tree; DAGs contribute one entry per sink node, in node order).
  std::vector<std::vector<float>> root_states;
  /// Activity breakdown for this run: measured host phases, plus the
  /// modeled device counters when a cost model or a baseline filled them.
  Profiler profiler;
  /// Modeled peak device-memory footprint of the run (Fig. 12); 0 for
  /// served runs.
  std::int64_t peak_memory_bytes = 0;
  /// One record per shard of a pooled run, in shard (= submission) order;
  /// empty for single-engine runs.
  std::vector<ShardRecord> shards;

  double modeled_latency_ms() const { return profiler.modeled_latency_ms(); }
};

/// Splices one shard's result onto `merged`: appends its root_states
/// (preserving within-shard order), sums its profiler counters, and
/// records `rec`. Appending shards in submission order reproduces the
/// root_states order of a single-engine run over the whole batch.
void append_shard(RunResult& merged, RunResult&& shard, ShardRecord rec);

/// Demultiplexes a merged batch result back into per-request root-state
/// slices: request i receives roots_per_request[i] consecutive entries of
/// merged.root_states, in submission order. This is the serving-side
/// inverse of batching — a coalescer (exec::BatchServer) concatenates
/// single-structure requests into one mini-batch, and the counts (1 per
/// tree request, one per sink node for a DAG request) recover each
/// caller's slice. The counts must tile merged.root_states exactly;
/// throws cortex::Error otherwise. Moves the state vectors out of
/// `merged`.
std::vector<std::vector<std::vector<float>>> split_by_request(
    RunResult&& merged, const std::vector<std::int64_t>& roots_per_request);

}  // namespace cortex::runtime
