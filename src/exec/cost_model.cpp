#include "exec/cost_model.hpp"

#include <algorithm>

#include "runtime/device.hpp"
#include "tensor/workspace.hpp"

namespace cortex::exec {

namespace {
constexpr std::int64_t kF = sizeof(float);

/// Device-resident bytes of the linearizer's arrays (they are shipped to
/// the device for the generated code to index). The modeled device copy
/// is 32-bit ints: per node, the two binary child slots, the word, the
/// height and the node-order entry; the N + 1 CSR offsets and the child
/// ids; and the begin/length pair of each batch. The host linearization
/// keeps only the CSR, word and batch arrays, but the modeled figure
/// stays this layout's so the paper's memory figures do not move.
std::int64_t linearized_bytes(const linearizer::Linearized& lin) {
  const std::int64_t ints =
      5 * lin.num_nodes + (lin.num_nodes + 1) +
      static_cast<std::int64_t>(lin.child_ids.size()) +
      2 * lin.num_batches();
  return ints * static_cast<std::int64_t>(sizeof(std::int32_t));
}

/// Per-step transient intermediates exist only at vendor-library
/// granularity; a fused kernel keeps them on-chip (Fig. 8).
std::int64_t step_tmp_width(const ra::Schedule& schedule,
                            const models::CellProgram& cell) {
  std::int64_t width = 0;
  if (schedule.fusion == ra::FusionLevel::kNone)
    for (const auto& [reg, w] : cell.register_widths()) width += w;
  return width;
}

void account_batched(const Plan& plan, const ra::Schedule& schedule,
                     const models::CellProgram& cell,
                     const linearizer::Linearized& lin,
                     runtime::Device& device, Workspace& ws) {
  runtime::Profiler& prof = device.profiler();
  const bool mega = plan.megakernel;
  const std::int64_t d = plan.unroll_depth;
  bool weights_charged = false;

  if (mega) {
    // One launch for the whole inference; steps separated by device-wide
    // barriers inside the kernel (Table 6: Cortex => 1 kernel call).
    prof.kernel_launches += 1;
    prof.host_api_ns += device.spec().kernel_launch_ns;
  }

  const std::int64_t tmp_width = step_tmp_width(schedule, cell);

  // Nothing linearized, nothing to launch (run({}) / empty Linearized).
  if (lin.num_batches() == 0) return;

  auto run_step = [&](const std::vector<KernelTemplate>& step,
                      std::int64_t nodes) {
    std::int64_t tmp_ticket = -1;
    if (tmp_width > 0 && step.size() > 1)
      tmp_ticket = ws.allocate(nodes * tmp_width * kF);
    for (const KernelTemplate& t : step) {
      runtime::KernelDesc k;
      k.flops = t.flops_per_node * nodes;
      k.bytes_read = t.bytes_read_per_node * nodes;
      k.bytes_written = t.bytes_written_per_node * nodes;
      k.parallelism = nodes * std::max<std::int64_t>(t.width, 1);
      if (plan.persistent) {
        if (!weights_charged) {
          k.bytes_weights += plan.persisted_weight_bytes;
          weights_charged = true;
        }
      } else {
        k.bytes_weights += t.weight_bytes;
      }
      if (mega) {
        prof.device_compute_ns += device.kernel_exec_ns(k);
        prof.device_bytes_read += k.bytes_read + k.bytes_weights;
        prof.device_bytes_written += k.bytes_written;
        prof.device_flops += k.flops;
      } else {
        device.launch(k);
      }
    }
    if (tmp_ticket >= 0) ws.release(tmp_ticket);
  };

  // Batch 0: the leaf batch (or the source wavefront for DAGs).
  run_step(plan.leaf_step, lin.batch_length.front());

  // Internal batches, grouped by the unroll depth: an unrolled schedule
  // covers `d` consecutive height levels per kernel instance (Fig. 3).
  const std::int64_t num_batches = lin.num_batches();
  for (std::int64_t b = 1; b < num_batches; b += d) {
    std::int64_t nodes = 0;
    for (std::int64_t g = b; g < std::min(b + d, num_batches); ++g)
      nodes += lin.batch_length[static_cast<std::size_t>(g)];
    if (mega) {
      // Barriers separating this step group from the previous one. A
      // block-local schedule synchronizes unrolled sub-levels inside the
      // thread block for free; a batched global schedule needs extra
      // device-wide barriers per unrolled level and cannot amortize them
      // across the batch (Fig. 11).
      std::int64_t barriers = plan.sync_points_per_step;
      if (d > 1) barriers = plan.block_local ? plan.sync_points_per_step
                                             : 2 * d * barriers;
      for (std::int64_t k = 0; k < barriers; ++k)
        device.barrier(plan.lock_free_barrier);
    }
    run_step(plan.internal_step, nodes);
  }
}

void account_unbatched(const Plan& plan, const ra::Schedule& schedule,
                       const models::CellProgram& cell,
                       const linearizer::Linearized& lin,
                       runtime::Device& device, Workspace& ws) {
  // No dynamic batching: one (set of) launch(es) per node in topological
  // order — the degenerate schedule that shows why batching matters.
  const std::int64_t tmp_width = step_tmp_width(schedule, cell);
  std::int64_t tmp_ticket = -1;
  if (tmp_width > 0) tmp_ticket = ws.allocate(tmp_width * kF);

  linearizer::for_each_node(lin, [&](std::int32_t id, std::int32_t) {
    const bool leaf = lin.is_leaf(id);
    const auto& step = leaf ? plan.leaf_step : plan.internal_step;
    for (const KernelTemplate& t : step) {
      runtime::KernelDesc k;
      k.flops = t.flops_per_node;
      k.bytes_read = t.bytes_read_per_node;
      k.bytes_weights = t.weight_bytes;
      k.bytes_written = t.bytes_written_per_node;
      k.parallelism = std::max<std::int64_t>(t.width, 1);
      device.launch(k);
    }
  });
  if (tmp_ticket >= 0) ws.release(tmp_ticket);
}
}  // namespace

runtime::RunResult model_cost(const Plan& plan, const ra::Schedule& schedule,
                              const models::CellProgram& cell,
                              const runtime::DeviceSpec& spec,
                              const linearizer::Linearized& lin,
                              double linearization_ns) {
  runtime::RunResult rr;
  rr.profiler.linearization_ns = linearization_ns;
  if (lin.num_nodes == 0) return rr;

  runtime::Device device(spec);
  Workspace ws;
  device.profiler().linearization_ns = linearization_ns;
  // Device memory live for the whole inference: the linearized arrays,
  // then the node states.
  ws.allocate(linearized_bytes(lin));
  ws.allocate(lin.num_nodes * cell.state_width * kF);

  if (plan.dynamic_batching)
    account_batched(plan, schedule, cell, lin, device, ws);
  else
    account_unbatched(plan, schedule, cell, lin, device, ws);

  rr.profiler = device.profiler();
  rr.peak_memory_bytes = ws.peak_bytes();
  return rr;
}

runtime::RunResult model_cost(const CortexEngine& engine,
                              const linearizer::Linearized& lin,
                              double linearization_ns) {
  return model_cost(build_plan(engine.def(), engine.schedule(), engine.spec()),
                    engine.schedule(), engine.def().cell, engine.spec(), lin,
                    linearization_ns);
}

}  // namespace cortex::exec
