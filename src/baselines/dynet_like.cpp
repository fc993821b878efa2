#include "baselines/dynet_like.hpp"

#include <algorithm>
#include <map>

#include "exec/plan.hpp"
#include "tensor/workspace.hpp"

namespace cortex::baselines {

namespace {

constexpr std::int64_t kF = sizeof(float);

/// One node of the runtime dataflow graph: (structure node, cell op).
struct GraphNode {
  std::int32_t node = 0;       ///< linearized structure-node id
  std::int16_t op = 0;         ///< index into the branch's op list
  std::int16_t leaf_branch = 0;
  std::int32_t height = 0;     ///< agenda depth (ready time)
  std::vector<std::int32_t> args;  ///< producing graph-node ids
};

}  // namespace

DynetEngine::DynetEngine(const models::ModelDef& def,
                         const models::ModelParams& params,
                         runtime::DeviceSpec spec, DynetConfig config)
    : def_(def), params_(params), spec_(std::move(spec)), config_(config) {
  def_.cell.validate();
}

runtime::RunResult DynetEngine::run(
    const std::vector<const ds::Tree*>& trees) {
  return run_shared(compute_states(def_, params_, trees));
}

runtime::RunResult DynetEngine::run(const std::vector<const ds::Dag*>& dags) {
  return run_shared(compute_states(def_, params_, dags));
}

runtime::RunResult DynetEngine::run_shared(SharedStates ss) {
  const linearizer::Linearized& lin = ss.lin;
  runtime::Device device(spec_);
  runtime::Profiler& prof = device.profiler();
  Workspace ws;

  const auto widths = def_.cell.register_widths();
  const auto pbytes = exec::model_param_bytes(def_);
  const std::int64_t n_nodes = lin.num_nodes;
  const bool has_leaf_ops = !def_.cell.leaf_ops.empty();

  // -- 1. runtime graph construction (real, measured host work) --------------
  std::vector<GraphNode> graph;
  std::vector<std::int32_t> state_gnode(
      static_cast<std::size_t>(n_nodes));  // node -> last-op graph id
  {
    runtime::ScopedHostTimer timer(prof.graph_construction_ns);
    graph.reserve(static_cast<std::size_t>(n_nodes) *
                  def_.cell.internal_ops.size());
    linearizer::for_each_node(lin, [&](std::int32_t id, std::int32_t batch) {
      const auto i = static_cast<std::size_t>(id);
      const bool leaf =
          lin.child_offsets[i] == lin.child_offsets[i + 1] && has_leaf_ops;
      const auto& ops = leaf ? def_.cell.leaf_ops : def_.cell.internal_ops;
      // Register -> producing graph node, within this structure node.
      std::map<std::string, std::int32_t> producer;
      for (std::size_t k = 0; k < ops.size(); ++k) {
        GraphNode g;
        g.node = id;
        g.op = static_cast<std::int16_t>(k);
        g.leaf_branch = leaf ? 1 : 0;
        g.height = batch;
        const models::CellOp& op = ops[k];
        if (op.kind == models::CellOpKind::kSliceChild ||
            op.kind == models::CellOpKind::kChildSum) {
          for (std::int32_t c = lin.child_offsets[i];
               c < lin.child_offsets[i + 1]; ++c)
            g.args.push_back(
                state_gnode[static_cast<std::size_t>(
                    lin.child_ids[static_cast<std::size_t>(c)])]);
        } else {
          for (const std::string& in : op.ins) {
            auto it = producer.find(in);
            if (it != producer.end()) g.args.push_back(it->second);
          }
        }
        const auto gid = static_cast<std::int32_t>(graph.size());
        producer[op.out] = gid;
        graph.push_back(std::move(g));
        if (k + 1 == ops.size()) state_gnode[i] = gid;
      }
    });
  }

  // -- 2. agenda-based dynamic batching (real, measured host work) -----------
  // Groups operators by signature (branch, op index) and ready depth; a
  // node's batch index (its height) plays the role of DyNet's agenda
  // timestamp.
  std::map<std::int64_t, std::vector<std::int32_t>> groups;
  std::vector<std::int32_t> state_last_use(
      static_cast<std::size_t>(n_nodes), 0);
  {
    runtime::ScopedHostTimer timer(prof.dynamic_batching_ns);
    for (std::size_t g = 0; g < graph.size(); ++g) {
      const GraphNode& gn = graph[g];
      const std::int64_t key = (static_cast<std::int64_t>(gn.height) << 20) |
                               (static_cast<std::int64_t>(gn.leaf_branch)
                                << 16) |
                               static_cast<std::int64_t>(gn.op);
      groups[key].push_back(static_cast<std::int32_t>(g));
    }
    // Last level at which each node's state is still consumed (for the
    // inference-memory variant's deallocation points).
    linearizer::for_each_node(lin, [&](std::int32_t id, std::int32_t batch) {
      const auto i = static_cast<std::size_t>(id);
      for (std::int32_t c = lin.child_offsets[i];
           c < lin.child_offsets[i + 1]; ++c) {
        auto& lu = state_last_use[static_cast<std::size_t>(
            lin.child_ids[static_cast<std::size_t>(c)])];
        lu = std::max(lu, batch);
      }
    });
  }

  // -- 3. batched execution ----------------------------------------------------
  // Tickets for tensors allocated per group; inference mode frees
  // intermediates when their level completes and states after their last
  // consuming level. {last consuming level, ticket}; level 0 = never
  // consumed (roots), kept until the run ends.
  std::vector<std::pair<std::int32_t, std::int64_t>> state_tickets;
  std::vector<std::int64_t> level_tmp_tickets;
  std::int32_t current_height = -1;

  auto close_level = [&]() {
    if (!config_.inference_memory) return;
    for (const std::int64_t t : level_tmp_tickets) ws.release(t);
    level_tmp_tickets.clear();
    std::vector<std::pair<std::int32_t, std::int64_t>> keep;
    for (const auto& [last_use, ticket] : state_tickets) {
      if (last_use != 0 && last_use <= current_height)
        ws.release(ticket);
      else
        keep.push_back({last_use, ticket});
    }
    state_tickets = std::move(keep);
  };

  for (const auto& [key, members] : groups) {
    const std::int32_t height = static_cast<std::int32_t>(key >> 20);
    if (height != current_height) {
      close_level();
      current_height = height;
    }
    const GraphNode& rep = graph[static_cast<std::size_t>(members.front())];
    const auto& ops =
        rep.leaf_branch ? def_.cell.leaf_ops : def_.cell.internal_ops;
    const models::CellOp& op = ops[static_cast<std::size_t>(rep.op)];
    const auto n = static_cast<std::int64_t>(members.size());

    // Contiguity management: operands produced by other batches are not
    // contiguous, so DyNet assembles gather lists on the host and issues
    // device copies into scratch (§7.2, Table 6 "Mem. mgmt. time").
    std::int64_t gather_inputs = 0;
    if (op.kind == models::CellOpKind::kSliceChild ||
        op.kind == models::CellOpKind::kChildSum) {
      runtime::ScopedHostTimer timer(prof.mem_mgmt_host_ns);
      std::vector<const float*> ptrs;
      ptrs.reserve(members.size() * 2);
      for (const std::int32_t gid : members) {
        const GraphNode& gn = graph[static_cast<std::size_t>(gid)];
        for (const std::int32_t arg : gn.args)
          ptrs.push_back(
              ss.states.row(graph[static_cast<std::size_t>(arg)].node));
      }
      gather_inputs = static_cast<std::int64_t>(ptrs.size());
    }
    if (gather_inputs > 0) {
      const std::int64_t scratch =
          ws.allocate(gather_inputs * op.width * kF);
      device.memcpy(gather_inputs * op.width * kF);
      ws.release(scratch);
    }

    // One batched vendor-library kernel for the group.
    const exec::KernelTemplate t =
        exec::op_template(op, widths, pbytes, def_.cell.num_children,
                          "dynet/");
    runtime::KernelDesc k;
    k.flops = t.flops_per_node * n;
    k.bytes_read = t.bytes_read_per_node * n;
    k.bytes_weights = t.weight_bytes;
    k.bytes_written = t.bytes_written_per_node * n;
    k.parallelism = n * std::max<std::int64_t>(t.width, 1);
    device.launch(k);

    // Output tensor of the batched op.
    const std::int64_t ticket = ws.allocate(n * op.width * kF);
    const bool is_state_op = (rep.op + 1 ==
                              static_cast<std::int16_t>(ops.size()));
    if (config_.inference_memory) {
      if (is_state_op) {
        std::int32_t last_use = 0;
        for (const std::int32_t gid : members)
          last_use = std::max(
              last_use,
              state_last_use[static_cast<std::size_t>(
                  graph[static_cast<std::size_t>(gid)].node)]);
        state_tickets.push_back({last_use, ticket});
      } else {
        level_tmp_tickets.push_back(ticket);
      }
    }
  }
  // (Training-style default: nothing was released — the backward pass
  // would need every intermediate.)

  runtime::RunResult rr;
  rr.root_states = std::move(ss.root_states);
  rr.profiler = device.profiler();
  rr.peak_memory_bytes = ws.peak_bytes();
  return rr;
}

}  // namespace cortex::baselines
