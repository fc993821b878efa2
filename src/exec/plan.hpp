#pragma once
// Execution-plan construction: turns (model, schedule, device) into the
// set of kernel-launch templates the offline cost model (exec::model_cost,
// exec/cost_model.hpp) instantiates per batch step.
// This is where the paper's optimizations become concrete cost/launch
// structure:
//   - fusion level decides kernels-per-step (one per operator vs one total),
//   - specialization decides whether the leaf batch runs a dedicated cheap
//     kernel (hoisted/constant-propagated, §4.3) or every node pays for
//     both branches of the §5.2 conditional operator,
//   - persistence turns the whole inference into a single mega-kernel with
//     weights pinned on-chip and device-wide barriers between batch steps
//     (the GRNN/PersistentRNN structure, Table 6's "1 kernel call"),
//   - unrolling and refactoring adjust barrier counts and child-state
//     traffic (Figs. 10b/10c/11).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "models/model_zoo.hpp"
#include "ra/schedule.hpp"
#include "runtime/device.hpp"

namespace cortex::exec {

/// One kernel launch template; per-node quantities are multiplied by the
/// number of nodes in the batch when the cost model instantiates a launch.
struct KernelTemplate {
  std::string label;
  std::int64_t flops_per_node = 0;
  /// Activation bytes read from off-chip (child states, embeddings).
  std::int64_t bytes_read_per_node = 0;
  std::int64_t bytes_written_per_node = 0;
  /// Weight bytes this kernel touches; re-read from off-chip every launch
  /// unless the plan persists them on-chip.
  std::int64_t weight_bytes = 0;
  /// Parallel elements per node (device-utilization input).
  std::int64_t width = 1;
};

/// The complete plan for a model under a schedule on a device.
struct Plan {
  /// Kernels run for the leaf batch (batch 0). Empty only for models with
  /// no leaf branch (the single-formula DAG case), which use
  /// internal_step for every batch.
  std::vector<KernelTemplate> leaf_step;
  /// Kernels run per internal batch.
  std::vector<KernelTemplate> internal_step;

  bool specialized = true;
  /// Leaf batch collapses to one broadcast/memset kernel (§4.3).
  bool leaf_collapsed = false;
  /// Single launch for the whole inference; batch steps separated by
  /// device-wide barriers (requires persistence + maximal fusion).
  bool megakernel = false;
  bool persistent = false;
  /// Weight bytes pinned on-chip when persistent (read from off-chip once).
  std::int64_t persisted_weight_bytes = 0;
  /// Device-wide sync points per internal batch step (multi-phase cells).
  std::int64_t sync_points_per_step = 1;
  std::int64_t unroll_depth = 1;
  bool block_local = false;
  bool lock_free_barrier = false;
  bool dynamic_batching = true;

  std::string describe() const;
};

/// Builds the plan. The schedule must already be validated against the
/// model (constructing a CortexEngine does this).
Plan build_plan(const models::ModelDef& def, const ra::Schedule& schedule,
                const runtime::DeviceSpec& spec);

/// Bytes of every parameter of a model, keyed by name.
std::map<std::string, std::int64_t> model_param_bytes(
    const models::ModelDef& def);

/// Kernel template for one operator at vendor-library granularity (every
/// input register is a materialized global tensor; weights re-read each
/// launch). This is the cost structure of the baseline frameworks, which
/// execute cells one batched operator call at a time.
KernelTemplate op_template(const models::CellOp& op,
                           const std::map<std::string, std::int64_t>& widths,
                           const std::map<std::string, std::int64_t>& pbytes,
                           std::int64_t num_children,
                           const std::string& prefix);

/// Per-node parallel elements a fused kernel over `ops` exposes: the sum
/// of its independent reduction operators' output widths (gate matvecs),
/// with the state width as a floor. Shared with the GRNN baseline so the
/// Fig. 9 comparison is apples-to-apples.
std::int64_t concurrent_width(const std::vector<models::CellOp>& ops,
                              std::int64_t state_width);

}  // namespace cortex::exec
