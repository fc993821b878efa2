#pragma once
// The evaluation's model zoo (Table 2 plus §7.4's extra models):
//   TreeFC, DAG-RNN, child-sum TreeGRU, SimpleTreeGRU, child-sum TreeLSTM,
//   MV-RNN, TreeRNN (the Fig. 1 running example and the weighted variant),
//   and sequential LSTM/GRU for the GRNN comparison (Fig. 9).
//
// Each model is written once, as an RA definition (ra::Model) that drives
// the compiler pipeline. The cell is derived from the RA model
// (cell_from_ra): the CellProgram every execution engine (Cortex +
// baselines) runs numerically, so outputs are identical across
// frameworks. Tests check the derived cells against the ILIR evaluator.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "models/cell.hpp"
#include "ra/model.hpp"
#include "support/rng.hpp"

namespace cortex::models {

/// A model plus the schedule-relevant structural metadata the execution
/// engine needs for accounting.
struct ModelDef {
  std::string name;
  /// RA definition driving the compiler pipeline. Optional so users can
  /// define cell-only models: every engine serves `cell` either way; with
  /// an RA model, engine compilation also lowers it (verifying P.1-P.3)
  /// and reads the linearizer spec from the result.
  std::optional<ra::Model> model;
  /// What every engine runs: cell_from_ra(*model) for the zoo models.
  CellProgram cell;
  std::int64_t hidden = 0;  ///< H
  std::int64_t vocab = 0;   ///< V

  /// Device-wide sync points per batch step when the fused kernel splits
  /// into dependent phases (GRNN-style phase structure; GRU cells use 2).
  std::int64_t sync_points_per_step = 1;
  /// Extra bytes per node forced by recursive refactoring (the TreeGRU
  /// h-gate's z*h_sum term crosses the refactored backedge and must be
  /// rematerialized; SimpleTreeGRU drops that term — Fig. 10c).
  std::int64_t refactor_extra_bytes_per_node = 0;
  /// Schedule computes one node per thread block, so unrolling needs no
  /// extra device-wide barriers (TreeRNN in Fig. 10b).
  bool block_local_schedule = false;

  /// Shapes of all parameters, keyed by name; the zoo declares its RA
  /// input tensors from this list. Its order is the order init_params
  /// draws the weights in.
  std::vector<std::pair<std::string, std::vector<std::int64_t>>>
      param_shapes;

  std::int64_t state_width() const { return cell.state_width; }
  /// The structure kind the model runs over: the RA model's, or a tree
  /// (a sequence is a chain tree) for a cell-only model.
  linearizer::StructureKind kind() const {
    return model ? model->kind : linearizer::StructureKind::kTree;
  }
};

/// Derives the cell program from an RA model, one cell op per operator in
/// the order the operators were created (ra::Op::seq). The body's
/// if_then_else(isleaf(n)) splits it into the leaf and internal programs;
/// a body without it has no leaf program. Operators map by their
/// ComputePattern (embed lookup, child read/sum, matvec, eltwise, const
/// init, concat, node matvec, mat-stack); an eltwise operator's per-node
/// operands become e0, e1, ... in operand order and its input-tensor
/// loads stay parameter loads. Registers take the operators' names,
/// except that both branches' final ops write the state register, named
/// after the internal branch's result. num_children is the model's
/// max_children. Throws, naming the operator, on an opaque compute
/// operator (no cell op to translate it to), on nested branches, and on
/// two operators of one name.
CellProgram cell_from_ra(const ra::Model& model);

// -- Table 2 models -----------------------------------------------------------

/// TreeFC (Looks et al. 2017 benchmark): h = relu(W [h_l; h_r] + b).
ModelDef make_treefc(std::int64_t hidden, std::int64_t vocab = 1000);

/// Recursive portion of DAG-RNN (Shuai et al. 2015):
/// h_v = tanh(U * sum_{u in preds(v)} h_u + x_v + b).
ModelDef make_dagrnn(std::int64_t hidden, std::int64_t vocab = 1000);

/// Child-sum TreeGRU.
ModelDef make_treegru(std::int64_t hidden, std::int64_t vocab = 1000);

/// SimpleTreeGRU (§7.4, footnote 4): h-gate h = (1-z) * h'.
ModelDef make_simple_treegru(std::int64_t hidden, std::int64_t vocab = 1000);

/// Child-sum TreeLSTM (Tai et al. 2015), recursive portion; state [h; c].
ModelDef make_treelstm(std::int64_t hidden, std::int64_t vocab = 1000);

/// MV-RNN (Socher et al. 2012b): state packs vector h and matrix M.
ModelDef make_mvrnn(std::int64_t hidden, std::int64_t vocab = 1000);

// -- §7.4 / examples models ---------------------------------------------------

/// TreeRNN: h = tanh(W h_l + U h_r + b) (the tree extension of a
/// sequential RNN used in the unrolling study, Fig. 10b).
ModelDef make_treernn(std::int64_t hidden, std::int64_t vocab = 1000);

/// The Fig. 1 running example: h = tanh(h_l + h_r), leaves are embeddings.
ModelDef make_treernn_fig1(std::int64_t hidden, std::int64_t vocab = 1000);

/// TreeRNN with a uniform zero initial leaf state (exercises computation
/// hoisting / constant propagation, §4.3).
ModelDef make_treernn_zeroleaf(std::int64_t hidden,
                               std::int64_t vocab = 1000);

// -- embedding-leaf variants ---------------------------------------------------
// The Table-2 bench models follow the paper's evaluated configuration
// ("recursive portion", input matvecs excluded): leaves carry a *uniform*
// initial state, which is what makes specialization + hoisting so
// effective (Fig. 10a). That makes same-height states identical, so the
// correctness/equivalence tests additionally use these variants whose
// leaves read per-word embeddings — indexing bugs cannot hide in them.

/// TreeFC with embedding leaves: leaf h = Emb[word].
ModelDef make_treefc_embed(std::int64_t hidden, std::int64_t vocab = 1000);

/// Child-sum TreeGRU with embedding leaves.
ModelDef make_treegru_embed(std::int64_t hidden, std::int64_t vocab = 1000);

/// Child-sum TreeLSTM with embedding leaves: leaf [h;c] = [Emb; EmbC].
ModelDef make_treelstm_embed(std::int64_t hidden, std::int64_t vocab = 1000);

/// Sequential LSTM over a chain (GRNN comparison, Fig. 9). Sequences are
/// degenerate trees: the left child is the previous timestep, the right
/// child a leaf carrying the embedded token.
ModelDef make_seq_lstm(std::int64_t hidden, std::int64_t vocab = 1000);

/// Sequential GRU over a chain (GRNN comparison, Fig. 9).
ModelDef make_seq_gru(std::int64_t hidden, std::int64_t vocab = 1000);

/// Appends a canonical structural encoding of everything engine
/// compilation reads from a ModelDef: name, hidden/vocab widths, the cell
/// programs, the optional RA model, and the parameter shapes.
///
/// Field sensitivity (fingerprint-collision tests pin this contract):
///   - order-SENSITIVE: every scalar field above, cell op order (execution
///     order), the RA operator DAG;
///   - order-INSENSITIVE: `param_shapes` — it is a keyed lookup table, so
///     entries are encoded sorted by parameter name and reordering them
///     does not change the key;
///   - absent: parameter *values* (ModelParams) — compiled artifacts are
///     weight-independent, which is what lets engines with different
///     weights share one plan-cache entry — and the modeled-cost metadata
///     (sync_points_per_step, refactor_extra_bytes_per_node,
///     block_local_schedule), which exec::build_plan, the cost model and
///     the GRNN baseline read from the def itself, never from artifacts.
void fingerprint(const ModelDef& def, support::FingerprintBuilder& fb);

/// Allocates and randomly initializes all parameters of a model.
ModelParams init_params(const ModelDef& def, Rng& rng);

/// All Table 2 models at the paper's small hidden size (for sweeps).
std::vector<ModelDef> table2_models(bool small_hidden);

}  // namespace cortex::models
