#include "exec/plan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace cortex::exec {

namespace {

constexpr std::int64_t kF = sizeof(float);

/// Weight bytes of a set of ops, counting each parameter once (a fused
/// kernel loads each weight once per launch; embedding tables contribute
/// one row per node and are handled as activation traffic instead).
std::int64_t unique_weight_bytes(
    const std::vector<models::CellOp>& ops,
    const std::map<std::string, std::int64_t>& pbytes,
    std::int64_t embed_row_bytes_ignored) {
  (void)embed_row_bytes_ignored;
  std::set<std::string> seen;
  std::int64_t total = 0;
  for (const models::CellOp& op : ops) {
    if (op.kind == models::CellOpKind::kLeafEmbed) continue;  // per-node row
    for (const std::string& p : models::cell_op_params(op)) {
      if (!seen.insert(p).second) continue;
      auto it = pbytes.find(p);
      if (it != pbytes.end()) total += it->second;
    }
  }
  return total;
}

/// Per-node activation bytes an op reads from off-chip when it runs as an
/// isolated kernel (vendor-library granularity): every input register is
/// a materialized global tensor.
std::int64_t op_isolated_read_bytes(
    const models::CellOp& op,
    const std::map<std::string, std::int64_t>& widths,
    std::int64_t num_children) {
  using models::CellOpKind;
  switch (op.kind) {
    case CellOpKind::kLeafEmbed:
      return op.width * kF + 4;  // table row + word id
    case CellOpKind::kLeafConst:
      return 0;
    case CellOpKind::kSliceChild:
      return op.width * kF;
    case CellOpKind::kChildSum:
      return num_children * op.width * kF;
    case CellOpKind::kNodeMatVec:
      return (widths.at(op.ins[0]) + widths.at(op.ins[1])) * kF;
    default: {
      std::int64_t b = 0;
      for (const std::string& in : op.ins) b += widths.at(in) * kF;
      return b;
    }
  }
}

/// Per-node activation bytes a *fused* kernel covering `ops` reads from
/// off-chip: child states once each, embedding rows, nothing else
/// (intermediates live in registers/shared memory — Fig. 8).
std::int64_t fused_read_bytes(const std::vector<models::CellOp>& ops,
                              std::int64_t state_width,
                              std::int64_t num_children) {
  bool reads_children = false;
  std::int64_t embed_bytes = 0;
  for (const models::CellOp& op : ops) {
    if (op.kind == models::CellOpKind::kSliceChild ||
        op.kind == models::CellOpKind::kChildSum)
      reads_children = true;
    if (op.kind == models::CellOpKind::kLeafEmbed)
      embed_bytes += op.width * kF + 4;
  }
  return (reads_children ? num_children * state_width * kF : 0) + embed_bytes;
}

std::int64_t ops_flops(const std::vector<models::CellOp>& ops,
                       const std::map<std::string, std::int64_t>& widths) {
  std::int64_t f = 0;
  for (const models::CellOp& op : ops) f += models::cell_op_flops(op, widths);
  return f;
}

/// Kernel templates for a branch at vendor-library granularity: one
/// launch per operator, intermediates materialized to global memory.
std::vector<KernelTemplate> unfused_step(
    const std::vector<models::CellOp>& ops,
    const std::map<std::string, std::int64_t>& widths,
    const std::map<std::string, std::int64_t>& pbytes,
    std::int64_t num_children, const std::string& prefix) {
  std::vector<KernelTemplate> step;
  step.reserve(ops.size());
  for (const models::CellOp& op : ops)
    step.push_back(op_template(op, widths, pbytes, num_children, prefix));
  return step;
}

/// Single fused kernel template covering `ops`.
KernelTemplate fused_step(const std::vector<models::CellOp>& ops,
                          const std::map<std::string, std::int64_t>& widths,
                          const std::map<std::string, std::int64_t>& pbytes,
                          std::int64_t state_width, std::int64_t num_children,
                          const std::string& label) {
  KernelTemplate k;
  k.label = label;
  k.flops_per_node = ops_flops(ops, widths);
  k.bytes_read_per_node = fused_read_bytes(ops, state_width, num_children);
  k.bytes_written_per_node = state_width * kF;
  k.weight_bytes = unique_weight_bytes(ops, pbytes, 0);
  k.width = concurrent_width(ops, state_width);
  return k;
}

/// True when the leaf branch is a uniform (node-independent) initial
/// state: every leaf op is a constant fill or a concat of constants.
bool leaf_is_uniform(const std::vector<models::CellOp>& leaf_ops) {
  if (leaf_ops.empty()) return false;
  for (const models::CellOp& op : leaf_ops)
    if (op.kind != models::CellOpKind::kLeafConst &&
        op.kind != models::CellOpKind::kConcat2)
      return false;
  return true;
}

}  // namespace

std::int64_t concurrent_width(const std::vector<models::CellOp>& ops,
                              std::int64_t state_width) {
  // A fused kernel exposes parallelism across its independent reduction
  // operators (a cell's gate matvecs all read the same child states), not
  // just across one output vector: a TreeLSTM step runs 5 H-wide matvecs
  // concurrently. Elementwise-only cells fall back to the state width.
  std::int64_t mv = 0;
  for (const models::CellOp& op : ops)
    if (op.kind == models::CellOpKind::kMatVec ||
        op.kind == models::CellOpKind::kNodeMatVec ||
        op.kind == models::CellOpKind::kMatStack2)
      mv += op.width;
  return std::max(mv, state_width);
}

std::map<std::string, std::int64_t> model_param_bytes(
    const models::ModelDef& def) {
  std::map<std::string, std::int64_t> m;
  for (const auto& [name, shape] : def.param_shapes) {
    std::int64_t n = 1;
    for (auto d : shape) n *= d;
    m[name] = n * kF;
  }
  return m;
}

KernelTemplate op_template(const models::CellOp& op,
                           const std::map<std::string, std::int64_t>& widths,
                           const std::map<std::string, std::int64_t>& pbytes,
                           std::int64_t num_children,
                           const std::string& prefix) {
  KernelTemplate k;
  k.label = prefix + op.out;
  k.flops_per_node = models::cell_op_flops(op, widths);
  k.bytes_read_per_node = op_isolated_read_bytes(op, widths, num_children);
  k.bytes_written_per_node = op.width * kF;
  if (op.kind != models::CellOpKind::kLeafEmbed) {
    std::set<std::string> seen;
    for (const std::string& p : models::cell_op_params(op)) {
      if (seen.insert(p).second) {
        auto it = pbytes.find(p);
        if (it != pbytes.end()) k.weight_bytes += it->second;
      }
    }
  }
  k.width = op.width;
  return k;
}

Plan build_plan(const models::ModelDef& def, const ra::Schedule& schedule,
                const runtime::DeviceSpec& spec) {
  const auto widths = def.cell.register_widths();
  const auto pbytes = model_param_bytes(def);
  const std::int64_t sw = def.cell.state_width;
  const std::int64_t nc = def.cell.num_children;
  const bool fuse = schedule.fusion == ra::FusionLevel::kMaximal;

  Plan plan;
  plan.specialized = schedule.specialize_leaves;
  // Recursive refactoring removes the per-step sync point only when no
  // term crosses the moved backedge. TreeGRU's h = z*hsum + (1-z)*h'
  // still chains z into the post-boundary computation, so its refactored
  // schedule keeps both phases (and pays rematerialization traffic) —
  // the reason Fig. 10c is flat for TreeGRU but ~25% for SimpleTreeGRU.
  const bool refactor_removes_sync =
      schedule.refactor && def.refactor_extra_bytes_per_node == 0;
  plan.sync_points_per_step =
      refactor_removes_sync ? 1 : def.sync_points_per_step;
  plan.unroll_depth = schedule.unroll_depth;
  plan.block_local = def.block_local_schedule;
  plan.lock_free_barrier = schedule.lock_free_barrier;
  plan.dynamic_batching = schedule.dynamic_batching;

  // Persistence only applies when the weights actually fit on-chip and
  // the whole step is one kernel (a per-operator kernel cannot keep
  // another operator's weights resident).
  const std::int64_t weight_bytes =
      unique_weight_bytes(def.cell.internal_ops, pbytes, 0) +
      (def.cell.leaf_ops.empty()
           ? 0
           : unique_weight_bytes(def.cell.leaf_ops, pbytes, 0));
  plan.persistent = schedule.persistence && fuse &&
                    weight_bytes <= spec.onchip_capacity_bytes;
  plan.persisted_weight_bytes = plan.persistent ? weight_bytes : 0;
  // The generated ILIR is one kernel looping over all batches with
  // device-wide barriers between dependent steps (Listing 3, §A.4) —
  // fusion + dynamic batching alone make it a mega-kernel; persistence
  // only decides whether weights are re-streamed each step.
  plan.megakernel = fuse && schedule.dynamic_batching;

  // -- internal-batch step ----------------------------------------------------
  std::vector<models::CellOp> internal_ops = def.cell.internal_ops;
  const bool has_leaf_branch = !def.cell.leaf_ops.empty();
  if (!schedule.specialize_leaves && has_leaf_branch) {
    // §5.2 conditional operator: without specialization the generated
    // batched kernel carries both branch bodies; every node pays for both
    // (warp-granularity divergence), and hoisting/constant propagation
    // are unavailable. This models the Fig. 10a specialization gap.
    for (const models::CellOp& op : def.cell.leaf_ops)
      internal_ops.push_back(op);
  }
  if (fuse) {
    KernelTemplate k = fused_step(internal_ops, widths, pbytes, sw, nc,
                                  def.name + "/fused_step");
    // Appendix D (register pressure): when the cell's per-node register
    // footprint exceeds the device's per-block on-chip scratch, the fused
    // kernel cannot keep intermediates in registers/shared memory and
    // spills them to global memory — one round trip per register byte.
    // MV-RNN (whose state packs an HxH matrix) is the model this bites.
    std::int64_t reg_bytes = 0;
    for (const auto& [reg, w] : widths) reg_bytes += w * kF;
    if (reg_bytes > spec.fused_scratch_bytes) {
      k.bytes_read_per_node += reg_bytes;
      k.bytes_written_per_node += reg_bytes;
      k.label += "+spill";
    }
    plan.internal_step = {std::move(k)};
  } else {
    plan.internal_step =
        unfused_step(internal_ops, widths, pbytes, nc, def.name + "/");
  }
  // Recursive refactoring moves the backedge (Fig. 4); terms crossing the
  // new boundary must be rematerialized through off-chip memory.
  if (schedule.refactor && !plan.internal_step.empty()) {
    plan.internal_step.front().bytes_read_per_node +=
        def.refactor_extra_bytes_per_node / 2;
    plan.internal_step.front().bytes_written_per_node +=
        def.refactor_extra_bytes_per_node / 2;
  }
  // Unrolling (trees only): children of the unrolled levels are consumed
  // from on-chip memory instead of off-chip (Fig. 3's reuse edges).
  if (schedule.unroll_depth > 1 && fuse) {
    const double keep = 1.0 / static_cast<double>(schedule.unroll_depth);
    for (KernelTemplate& k : plan.internal_step) {
      const std::int64_t child_bytes = nc * sw * kF;
      const std::int64_t saved = static_cast<std::int64_t>(
          static_cast<double>(child_bytes) * (1.0 - keep));
      k.bytes_read_per_node = std::max<std::int64_t>(
          k.bytes_read_per_node - saved, 0);
    }
  }

  // -- leaf step ---------------------------------------------------------------
  if (!has_leaf_branch) {
    // Single-formula model (DAG-RNN): every batch runs the same step.
    plan.leaf_step = plan.internal_step;
  } else if (!schedule.specialize_leaves) {
    // Conditional-operator form: the leaf batch runs the combined kernel.
    plan.leaf_step = plan.internal_step;
  } else if (leaf_is_uniform(def.cell.leaf_ops)) {
    // §4.3 hoisting / zero-init constant propagation: the entire leaf
    // batch collapses to one broadcast (or memset) kernel.
    plan.leaf_collapsed = true;
    KernelTemplate k;
    k.label = def.name + "/leaf_broadcast";
    k.flops_per_node = 0;
    k.bytes_read_per_node = 0;
    k.bytes_written_per_node = sw * kF;
    k.width = sw;
    plan.leaf_step = {k};
  } else if (fuse) {
    plan.leaf_step = {fused_step(def.cell.leaf_ops, widths, pbytes, sw, nc,
                                 def.name + "/leaf_fused")};
  } else {
    plan.leaf_step =
        unfused_step(def.cell.leaf_ops, widths, pbytes, nc, def.name + "/L");
  }

  return plan;
}

std::string Plan::describe() const {
  std::ostringstream os;
  os << (megakernel ? "megakernel" : "per-step kernels")
     << " leaf_kernels=" << leaf_step.size()
     << " internal_kernels=" << internal_step.size()
     << " persistent=" << (persistent ? "yes" : "no")
     << " sync/step=" << sync_points_per_step << " unroll=" << unroll_depth
     << (leaf_collapsed ? " leaf_collapsed" : "")
     << (block_local ? " block_local" : "");
  return os.str();
}

}  // namespace cortex::exec
