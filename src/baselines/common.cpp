#include "baselines/common.hpp"

#include <utility>

namespace cortex::baselines {

SharedStates compute_states(const models::ModelDef& def,
                            const models::ModelParams& params,
                            linearizer::Linearized lin) {
  SharedStates ss;
  ss.lin = std::move(lin);
  const std::int64_t sw = def.cell.state_width;
  ss.states = Tensor::zeros(Shape{ss.lin.num_nodes, sw});

  models::CellExecutor exec(def.cell, params);
  std::vector<const float*> kids;
  linearizer::for_each_node(ss.lin, [&](std::int32_t id, std::int32_t) {
    const auto i = static_cast<std::size_t>(id);
    const std::int32_t off0 = ss.lin.child_offsets[i];
    const std::int32_t off1 = ss.lin.child_offsets[i + 1];
    kids.clear();
    for (std::int32_t c = off0; c < off1; ++c)
      kids.push_back(
          ss.states.row(ss.lin.child_ids[static_cast<std::size_t>(c)]));
    exec.run_node(off0 == off1, kids, ss.lin.word[i], ss.states.row(id));
  });

  ss.root_states.reserve(ss.lin.roots.size());
  for (const std::int32_t r : ss.lin.roots) {
    const float* row = ss.states.row(r);
    ss.root_states.emplace_back(row, row + sw);
  }
  return ss;
}

SharedStates compute_states(const models::ModelDef& def,
                            const models::ModelParams& params,
                            const std::vector<const ds::Tree*>& trees) {
  linearizer::LinearizerSpec spec;
  spec.kind = linearizer::StructureKind::kTree;
  return compute_states(def, params, linearizer::linearize_trees(trees, spec));
}

SharedStates compute_states(const models::ModelDef& def,
                            const models::ModelParams& params,
                            const std::vector<const ds::Dag*>& dags) {
  linearizer::LinearizerSpec spec;
  spec.kind = linearizer::StructureKind::kDag;
  return compute_states(def, params, linearizer::linearize_dags(dags, spec));
}

std::vector<const ds::Tree*> raw(
    const std::vector<std::unique_ptr<ds::Tree>>& trees) {
  std::vector<const ds::Tree*> out;
  out.reserve(trees.size());
  for (const auto& t : trees) out.push_back(t.get());
  return out;
}

std::vector<const ds::Dag*> raw(
    const std::vector<std::unique_ptr<ds::Dag>>& dags) {
  std::vector<const ds::Dag*> out;
  out.reserve(dags.size());
  for (const auto& d : dags) out.push_back(d.get());
  return out;
}

}  // namespace cortex::baselines
