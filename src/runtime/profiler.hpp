#pragma once
// Profiler: the counters behind the paper's Table 6 ("time spent in various
// activities") and Fig. 12 (peak memory). Device-side numbers come from the
// Device model; host-side numbers come from real measured framework code.

#include <cstdint>
#include <string>

namespace cortex::runtime {

/// Wall-clock helper for host-side phases (graph construction, dynamic
/// batching, linearization). Returns nanoseconds.
std::int64_t now_ns();

/// Accumulated activity breakdown for one inference run.
struct Profiler {
  // -- device-side (modeled) ------------------------------------------------
  std::int64_t kernel_launches = 0;       ///< #kernel calls (Table 6 col 5)
  std::int64_t memcpy_calls = 0;          ///< explicit contiguity copies
  std::int64_t barriers = 0;              ///< device-wide barriers
  double device_compute_ns = 0.0;         ///< "GPU computation time"
  double device_memcpy_ns = 0.0;          ///< device side of memcpys
  double host_api_ns = 0.0;               ///< "CPU CUDA API time"
  std::int64_t device_bytes_read = 0;     ///< off-chip reads (roofline)
  std::int64_t device_bytes_written = 0;  ///< off-chip writes
  std::int64_t device_flops = 0;          ///< flops executed

  // -- host-side (measured) -------------------------------------------------
  double graph_construction_ns = 0.0;  ///< building runtime dataflow graphs
  double dynamic_batching_ns = 0.0;    ///< on-the-fly batching / agenda
  double mem_mgmt_host_ns = 0.0;       ///< host side of contiguity mgmt
  double linearization_ns = 0.0;       ///< Cortex data-structure linearizer
  double host_other_ns = 0.0;          ///< remaining host framework code

  // -- host parallelism (wavefront executor) --------------------------------
  /// Pool threads the numeric wavefront executor ran with (1 = serial).
  std::int64_t host_threads = 1;
  /// Wavefront batches dispatched across more than one thread.
  std::int64_t parallel_batches = 0;
  /// Host wall time inside the numeric executor. Diagnostic only — not
  /// part of total_latency_ns(), because the host numerics stand in for
  /// the modeled device's work, which device_compute_ns already accounts
  /// (DESIGN.md §2's GPU substitution).
  double numerics_host_ns = 0.0;

  // -- batched wavefront GEMMs (numeric executor) ----------------------------
  /// Panel GEMMs the batched wavefront executor issued: each is one
  /// kMatVec cell op run as a single [rows,k]x[k,m] GEMM over a whole
  /// wavefront panel instead of rows separate GEMVs. 0 when the engine
  /// walks nodes one by one (no dynamic batching, or a cell only the
  /// per-node executor can run).
  std::int64_t batched_gemm_calls = 0;
  /// Node panels the batched executor gathered and ran (one per
  /// contiguous row range per wavefront batch per worker thread).
  std::int64_t batched_panels = 0;
  /// Largest panel row count (nodes batched into one set of panel ops).
  std::int64_t max_panel_rows = 0;

  // -- engine pool (sharded serving) ----------------------------------------
  /// Worker engines the pooled run sharded across (0 = not a pooled run).
  /// Per-shard sizes and per-worker wall/modeled times live in
  /// RunResult::shards; counters here are sums over all shards, i.e. the
  /// aggregate work of the whole mini-batch.
  std::int64_t pool_workers = 0;
  /// Shard re-runs after a cortex::TransientError inside this pooled run
  /// (bounded by EnginePoolOptions::transient_retries per shard). Each
  /// retry recovered a failure that would otherwise have failed the
  /// batch.
  std::int64_t pool_transient_retries = 0;

  // -- ILIR arena (static memory planner) ------------------------------------
  /// Peak arena bytes one run_ilir allocation covered all program buffers
  /// with (Fig. 12's peak-memory axis). 0 when no ILIR run was profiled
  /// or the planner is off (CORTEX_MEMPLAN=0 falls back to per-buffer
  /// allocation, where this instead records the summed buffer bytes).
  std::int64_t ilir_arena_bytes = 0;
  /// Buffers the plan placed into an already-occupied slot (bytes shared
  /// with a dead buffer instead of newly allocated).
  std::int64_t ilir_buffers_reused = 0;

  void reset() { *this = Profiler{}; }

  /// End-to-end modeled inference latency: host framework work + host API
  /// + device timeline (compute, copies). Mirrors how the paper reports
  /// latency with async execution disabled (Table 6 footnote 4).
  double total_latency_ns() const {
    return graph_construction_ns + dynamic_batching_ns + mem_mgmt_host_ns +
           linearization_ns + host_other_ns + host_api_ns +
           device_compute_ns + device_memcpy_ns;
  }
  double total_latency_ms() const { return total_latency_ns() * 1e-6; }

  /// Merge another run's counters into this one (for averaging).
  void accumulate(const Profiler& other);
  /// Divide all counters by n (after accumulating n runs).
  void scale(double factor);

  /// Multi-line human-readable table row (used by bench_table6).
  std::string str() const;
};

/// RAII timer adding elapsed wall time to a Profiler field.
class ScopedHostTimer {
 public:
  ScopedHostTimer(double& sink) : sink_(sink), start_(now_ns()) {}
  ~ScopedHostTimer() { sink_ += static_cast<double>(now_ns() - start_); }
  ScopedHostTimer(const ScopedHostTimer&) = delete;
  ScopedHostTimer& operator=(const ScopedHostTimer&) = delete;

 private:
  double& sink_;
  std::int64_t start_;
};

}  // namespace cortex::runtime
