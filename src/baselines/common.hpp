#pragma once
// Shared machinery for the baseline frameworks (PyTorch-like eager,
// DyNet-like, Cavs-like, GRNN-like).
//
// Every framework in this repo computes the *same* numerics through the
// same cell kernels (mirroring the paper, where all frameworks call the
// same vendor BLAS), so cross-framework outputs are directly comparable.
// What distinguishes the frameworks — and what the paper measures — is
// their runtime behaviour: graph construction, dynamic-batching agendas,
// contiguity copies, kernel-launch granularity and memory retention.
// Those phases are implemented per-framework as real, measured host code
// plus modeled device activity.

#include <memory>
#include <vector>

#include "ds/dag.hpp"
#include "ds/tree.hpp"
#include "linearizer/linearizer.hpp"
#include "models/model_zoo.hpp"
#include "runtime/result.hpp"
#include "tensor/tensor.hpp"

namespace cortex::baselines {

/// Node states computed once per run and shared by a framework's
/// accounting phases. The linearized numbering is used purely as a
/// convenient dense node id space; its construction is *not* charged to
/// the framework (each framework pays for its own real batching work).
struct SharedStates {
  linearizer::Linearized lin;
  Tensor states;  ///< (N, state_width)
  std::vector<std::vector<float>> root_states;
};

/// The per-node oracle: every node state of `lin`, one
/// models::CellExecutor::run_node per node in linearizer::for_each_node
/// order, into a fresh zeroed table. The panel executor, the ILIR
/// interpreter and the JIT kernel are all checked against it bitwise or
/// to tolerance. Takes `lin` by value: SharedStates keeps it.
SharedStates compute_states(const models::ModelDef& def,
                            const models::ModelParams& params,
                            linearizer::Linearized lin);

SharedStates compute_states(const models::ModelDef& def,
                            const models::ModelParams& params,
                            const std::vector<const ds::Tree*>& trees);

SharedStates compute_states(const models::ModelDef& def,
                            const models::ModelParams& params,
                            const std::vector<const ds::Dag*>& dags);

/// Raw-pointer views used by the batch-input overloads below.
std::vector<const ds::Tree*> raw(
    const std::vector<std::unique_ptr<ds::Tree>>& trees);
std::vector<const ds::Dag*> raw(
    const std::vector<std::unique_ptr<ds::Dag>>& dags);

}  // namespace cortex::baselines
