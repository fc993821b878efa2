#include "runtime/profiler.hpp"

#include <algorithm>
#include <sstream>

#include "support/clock.hpp"

namespace cortex::runtime {

std::int64_t now_ns() { return support::monotonic_ns(); }

void Profiler::accumulate(const Profiler& o) {
  kernel_launches += o.kernel_launches;
  memcpy_calls += o.memcpy_calls;
  barriers += o.barriers;
  device_compute_ns += o.device_compute_ns;
  device_memcpy_ns += o.device_memcpy_ns;
  host_api_ns += o.host_api_ns;
  device_bytes_read += o.device_bytes_read;
  device_bytes_written += o.device_bytes_written;
  device_flops += o.device_flops;
  graph_construction_ns += o.graph_construction_ns;
  dynamic_batching_ns += o.dynamic_batching_ns;
  mem_mgmt_host_ns += o.mem_mgmt_host_ns;
  linearization_ns += o.linearization_ns;
  host_other_ns += o.host_other_ns;
  // host_threads is a configuration, not an accumulating counter.
  host_threads = std::max(host_threads, o.host_threads);
  parallel_batches += o.parallel_batches;
  numerics_host_ns += o.numerics_host_ns;
  batched_gemm_calls += o.batched_gemm_calls;
  batched_panels += o.batched_panels;
  // A high-water mark like host_threads, not an accumulating counter.
  max_panel_rows = std::max(max_panel_rows, o.max_panel_rows);
}

void Profiler::scale(double f) {
  kernel_launches = static_cast<std::int64_t>(kernel_launches * f);
  memcpy_calls = static_cast<std::int64_t>(memcpy_calls * f);
  barriers = static_cast<std::int64_t>(barriers * f);
  device_compute_ns *= f;
  device_memcpy_ns *= f;
  host_api_ns *= f;
  device_bytes_read = static_cast<std::int64_t>(device_bytes_read * f);
  device_bytes_written = static_cast<std::int64_t>(device_bytes_written * f);
  device_flops = static_cast<std::int64_t>(device_flops * f);
  graph_construction_ns *= f;
  dynamic_batching_ns *= f;
  mem_mgmt_host_ns *= f;
  linearization_ns *= f;
  host_other_ns *= f;
  parallel_batches = static_cast<std::int64_t>(parallel_batches * f);
  numerics_host_ns *= f;
  batched_gemm_calls = static_cast<std::int64_t>(batched_gemm_calls * f);
  batched_panels = static_cast<std::int64_t>(batched_panels * f);
  // max_panel_rows is a high-water mark; averaging leaves it unchanged.
}

std::string Profiler::str() const {
  std::ostringstream os;
  os << "graph_const=" << graph_construction_ns * 1e-6 << "ms"
     << " dyn_batch=" << dynamic_batching_ns * 1e-6 << "ms"
     << " linearize=" << linearization_ns * 1e-6 << "ms"
     << " mem_mgmt_host=" << mem_mgmt_host_ns * 1e-6 << "ms"
     << " memcpy_dev=" << device_memcpy_ns * 1e-6 << "ms"
     << " compute=" << device_compute_ns * 1e-6 << "ms"
     << " kernels=" << kernel_launches << " api=" << host_api_ns * 1e-6
     << "ms host_threads=" << host_threads;
  if (batched_gemm_calls > 0)
    os << " panel_gemms=" << batched_gemm_calls
       << " max_panel_rows=" << max_panel_rows;
  os << " modeled_latency=" << modeled_latency_ms() << "ms";
  return os.str();
}

}  // namespace cortex::runtime
