#include "runtime/device.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace cortex::runtime {

DeviceSpec DeviceSpec::v100_gpu() {
  DeviceSpec s;
  s.name = "GPU (V100-class model)";
  s.backend = Backend::kGpu;
  s.flops_per_ns = 14000.0;   // 14 TFLOP/s fp32
  s.bytes_per_ns = 900.0;     // 900 GB/s HBM2
  s.onchip_capacity_bytes = 16ll * 1024 * 1024;  // regs+smem usable for
                                                 // persistence (GRNN-style)
  s.fused_scratch_bytes = 64ll * 1024;  // regs + smem per thread block
  s.kernel_launch_ns = 5500.0;       // driver + dispatch path
  s.inter_kernel_gap_ns = 1800.0;    // dependent-kernel gap
  s.memcpy_call_ns = 4200.0;         // cudaMemcpy host cost
  s.barrier_lockfree_ns = 1400.0;    // Xiao & Feng lock-free
  s.barrier_locked_ns = 2600.0;      // Xiao & Feng lock-based
  s.full_utilization_parallelism = 65536.0;  // ~80 SMs x 2048 lanes / 2.5
  s.min_utilization = 0.004;
  s.is_accelerator = true;
  return s;
}

DeviceSpec DeviceSpec::intel_cpu() {
  DeviceSpec s;
  s.name = "Intel CPU (CascadeLake-class model)";
  s.backend = Backend::kIntel;
  s.flops_per_ns = 750.0;  // 8c/16t AVX-512 effective
  s.bytes_per_ns = 85.0;   // ~6-channel DDR4
  s.onchip_capacity_bytes = 11ll * 1024 * 1024;  // L2 aggregate
  s.fused_scratch_bytes = 256ll * 1024;  // per-core L2 working set
  s.kernel_launch_ns = 180.0;    // library call + threading handoff
  s.inter_kernel_gap_ns = 60.0;
  s.memcpy_call_ns = 120.0;
  s.barrier_lockfree_ns = 350.0;   // centralized sense-reversing
  s.barrier_locked_ns = 700.0;
  s.full_utilization_parallelism = 1024.0;
  s.min_utilization = 0.06;
  s.is_accelerator = false;
  return s;
}

DeviceSpec DeviceSpec::arm_cpu() {
  DeviceSpec s;
  s.name = "ARM CPU (Graviton2-class model)";
  s.backend = Backend::kArm;
  s.flops_per_ns = 150.0;  // 8c NEON effective
  s.bytes_per_ns = 40.0;
  s.onchip_capacity_bytes = 8ll * 1024 * 1024;
  s.fused_scratch_bytes = 128ll * 1024;
  s.kernel_launch_ns = 220.0;
  s.inter_kernel_gap_ns = 80.0;
  s.memcpy_call_ns = 150.0;
  s.barrier_lockfree_ns = 450.0;
  s.barrier_locked_ns = 900.0;
  s.full_utilization_parallelism = 512.0;
  s.min_utilization = 0.08;
  s.is_accelerator = false;
  return s;
}

DeviceSpec DeviceSpec::for_backend(Backend b) {
  switch (b) {
    case Backend::kGpu:
      return v100_gpu();
    case Backend::kIntel:
      return intel_cpu();
    case Backend::kArm:
      return arm_cpu();
  }
  CORTEX_CHECK(false) << "unknown backend";
  return v100_gpu();
}

double Device::kernel_exec_ns(const KernelDesc& k) const {
  // Utilization: kernels exposing little parallelism cannot fill the
  // device (the reason unbatched per-node execution is so slow on GPUs).
  const double par = static_cast<double>(std::max<std::int64_t>(
      k.parallelism, 1));
  const double util = std::clamp(par / spec_.full_utilization_parallelism,
                                 spec_.min_utilization, 1.0);
  const double compute_ns =
      static_cast<double>(k.flops) / (spec_.flops_per_ns * util);
  // Scattered activation traffic scales with occupancy.
  const double mem_ns = static_cast<double>(k.bytes_read +
                                            k.bytes_written) /
                        (spec_.bytes_per_ns * util);
  // Contiguous weight streams run at full bandwidth regardless of
  // occupancy, but as a cold initial load they serialize with the body
  // of the kernel rather than hiding under it — which is exactly what
  // model persistence eliminates (Fig. 10a's "+Persistence" step).
  const double weights_ns =
      static_cast<double>(k.bytes_weights) / spec_.bytes_per_ns;
  // Roofline: the body is limited by whichever resource it saturates.
  return std::max(compute_ns, mem_ns) + weights_ns;
}

void Device::launch(const KernelDesc& k) {
  profiler_.kernel_launches += 1;
  profiler_.host_api_ns += spec_.kernel_launch_ns;
  profiler_.device_compute_ns += kernel_exec_ns(k) + spec_.inter_kernel_gap_ns;
  profiler_.device_bytes_read += k.bytes_read + k.bytes_weights;
  profiler_.device_bytes_written += k.bytes_written;
  profiler_.device_flops += k.flops;
}

void Device::memcpy(std::int64_t bytes) {
  profiler_.memcpy_calls += 1;
  profiler_.host_api_ns += spec_.memcpy_call_ns;
  profiler_.device_memcpy_ns +=
      static_cast<double>(bytes) / spec_.bytes_per_ns;
}

void Device::barrier(bool lock_free) {
  profiler_.barriers += 1;
  profiler_.device_compute_ns +=
      lock_free ? spec_.barrier_lockfree_ns : spec_.barrier_locked_ns;
}

}  // namespace cortex::runtime
