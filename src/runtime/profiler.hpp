#pragma once
// Profiler: the counters behind the paper's Table 6 ("time spent in various
// activities") and Fig. 12 (peak memory). Device-side numbers come from the
// Device model; host-side numbers come from real measured framework code.
// A served Cortex run fills only the measured fields; the Cortex engine's
// device-side numbers come from exec::model_cost, offline.

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
  /// Host wall time inside the numeric executor: what a served run's
  /// numerics measurably cost. Not part of modeled_latency_ns(), because
  /// the host numerics stand in for the modeled device's work, which
  /// device_compute_ns already accounts (DESIGN.md §2's GPU substitution).
  double numerics_host_ns = 0.0;

  // -- batched wavefront GEMMs (numeric executor) ----------------------------
  /// Panel GEMMs the batched wavefront executor issued: each is one
  /// kMatVec cell op run as a single [rows,k]x[k,m] GEMM over a whole
  /// wavefront panel instead of rows separate GEMVs. 0 for the baselines,
  /// which run no panels.
  std::int64_t batched_gemm_calls = 0;
  /// Node panels the batched executor gathered and ran (one per
  /// contiguous row range per wavefront batch per worker thread).
  std::int64_t batched_panels = 0;
  /// Largest panel row count (nodes batched into one set of panel ops).
  std::int64_t max_panel_rows = 0;

  void reset() { *this = Profiler{}; }

  /// End-to-end modeled inference latency: host framework work + host API
  /// + device timeline (compute, copies). Mirrors how the paper reports
  /// latency with async execution disabled (Table 6 footnote 4).
  double modeled_latency_ns() const {
    return graph_construction_ns + dynamic_batching_ns + mem_mgmt_host_ns +
           linearization_ns + host_other_ns + host_api_ns +
           device_compute_ns + device_memcpy_ns;
  }
  double modeled_latency_ms() const { return modeled_latency_ns() * 1e-6; }

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
