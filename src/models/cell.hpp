#pragma once
// Cell programs: each model's per-node computation expressed as a short
// sequence of tensor operators over named registers. This is the
// operator-granularity view that the baseline frameworks (PyTorch-like,
// DyNet-like, Cavs-like) execute one kernel at a time, and that the Cortex
// execution engine fuses into batch kernels. Numerical semantics are
// shared by every engine, so cross-framework outputs are bit-identical and
// the RA/ILIR path can be validated against the same cell.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ra/expr.hpp"
#include "tensor/kernels_detail.hpp"
#include "tensor/tensor.hpp"

namespace cortex::models {

/// Kinds of primitive cell operators.
enum class CellOpKind {
  kLeafEmbed,    ///< out = Table[word] (leaf nodes only)
  kLeafConst,    ///< out = constant vector (uniform initial state)
  kSliceChild,   ///< out = child_state[child][offset : offset+width]
  kChildSum,     ///< out = sum over children of child_state[*][offset:+width]
  kMatVec,       ///< out = Param @ in0 (Param is (width, |in0|))
  kNodeMatVec,   ///< out = mat(in0, width x width) @ in1 (MV-RNN)
  kMatStack2,    ///< out(H*H) = Param(H,2H) @ vstack(mat(in0), mat(in1))
  kEltwise,      ///< out[i] = expr(e0[i], e1[i], ..., params[i])
  kConcat2,      ///< out = concat(in0, in1)
};

/// One primitive operator of a cell program.
struct CellOp {
  CellOpKind kind = CellOpKind::kEltwise;
  std::string out;            ///< destination register
  std::int64_t width = 0;     ///< destination width

  int child = 0;              ///< kSliceChild: which child
  std::int64_t offset = 0;    ///< kSliceChild: offset into child state
  double constant = 0.0;      ///< kLeafConst

  std::string param;          ///< kLeafEmbed / kMatVec / kMatStack2 weight
  std::vector<std::string> ins;  ///< input registers

  /// kEltwise: scalar expression over vars "e0","e1",... (the inputs at
  /// element i) and loads of 1-D params indexed by var "i".
  ra::Expr expr;
};

/// A compiled elementwise expression: flat postfix program executed per
/// element (fast path replacing AST interpretation).
class CompiledEltwise {
 public:
  CompiledEltwise() = default;
  /// Compiles `expr` given the input register names mapped to e0..ek and
  /// the list of param names it may load.
  explicit CompiledEltwise(const ra::Expr& expr);

  /// Evaluates at element i with inputs ins[j][i] and pre-resolved param
  /// pointers (order of param_names()). The hot-path form: no lookups.
  float eval(std::int64_t i, const float* const* ins,
             const float* const* params) const;

  /// Evaluates the expression over the first `width` columns of `rows`
  /// panel rows: out[r*out_stride + i] = expr(ins[j][r*in_strides[j] + i],
  /// params[k][i]), so an input panel may be wider than the output (the
  /// op reads its first `width` elements). The interpreter is strip-mined
  /// so each instruction runs over a vector of elements; per element the
  /// arithmetic is the identical scalar op sequence, so results are
  /// bit-identical to eval() element by element. Runs the instruction-set
  /// variant kernels::gemm uses.
  void eval_panel(std::int64_t rows, std::int64_t width,
                  const float* const* ins, const std::int64_t* in_strides,
                  const float* const* params, float* out,
                  std::int64_t out_stride) const;
  /// eval_panel with a given variant, which must be in
  /// kernels::detail::supported_isas() (tests and benches run each one).
  void eval_panel_with(kernels::detail::Isa isa, std::int64_t rows,
                       std::int64_t width, const float* const* ins,
                       const std::int64_t* in_strides,
                       const float* const* params, float* out,
                       std::int64_t out_stride) const;

  /// Most inputs (e0..e7) an expression, and so an eltwise op, may read.
  static constexpr std::size_t kMaxInputs = 8;

  bool empty() const { return prog_.empty(); }
  /// Number of arithmetic instructions (used in flop accounting).
  std::int64_t arith_ops() const { return arith_ops_; }
  /// One more than the highest input index the expression reads.
  std::size_t num_inputs() const { return num_inputs_; }

 private:
  enum class OpCode : std::uint8_t {
    kPushInput, kPushParam, kPushConst,
    kAdd, kSub, kMul, kDiv, kMax, kMin,
    kTanh, kSigmoid, kRelu, kExp, kSelect,
  };
  struct Instr {
    OpCode op;
    std::int32_t slot = 0;   // input index / param index
    float constant = 0.0f;
  };
  void compile(const ra::Expr& e);
  friend struct EltwisePanel;  // cell.cpp: eval_panel per instruction set

  std::vector<Instr> prog_;
  std::vector<std::string> param_names_;
  std::int64_t arith_ops_ = 0;
  std::size_t num_inputs_ = 0;
  std::int32_t max_depth_ = 0;  ///< peak operand-stack depth of prog_

 public:
  const std::vector<std::string>& param_names() const {
    return param_names_;
  }
};

/// Floating-point operations one cell op performs per node, given the
/// widths of all registers (from CellProgram::register_widths()). Used by
/// the execution engines' device-cost accounting.
std::int64_t cell_op_flops(const CellOp& op,
                           const std::map<std::string, std::int64_t>& widths);

/// Parameter tensors an op reads: its `param` plus any 1-D params loaded
/// by an eltwise expression. Used for weight-byte accounting.
std::vector<std::string> cell_op_params(const CellOp& op);

/// A full cell: leaf program + internal program over named registers.
struct CellProgram {
  std::vector<CellOp> leaf_ops;
  std::vector<CellOp> internal_ops;
  std::int64_t state_width = 0;  ///< width of the node state vector
  std::int64_t num_children = 2;

  /// Widths of all registers (computed from the ops).
  std::map<std::string, std::int64_t> register_widths() const;
  /// Sum of per-node flops over internal ops.
  std::int64_t internal_flops() const;
  /// Validates register/width consistency, define-before-use (every op
  /// input must be written by an earlier op of the same (leaf or
  /// internal) program) and that every read stays inside what it reads:
  /// each op has its kind's inputs, wide enough for the elements it takes
  /// from them, an eltwise expression reads only e0..e<inputs - 1> of at
  /// most CompiledEltwise::kMaxInputs, and child slices lie inside the
  /// state. Both executors run every cell that passes (given params
  /// shaped as its ops read them). Throws on error.
  void validate() const;
};

/// Appends a canonical structural encoding of one cell operator (every
/// field, including the compiled-away eltwise expression AST).
void fingerprint(const CellOp& op, support::FingerprintBuilder& fb);

/// Appends a canonical structural encoding of a cell program: leaf and
/// internal op sequences (order-sensitive — op order is execution order),
/// state width and child count.
void fingerprint(const CellProgram& cell, support::FingerprintBuilder& fb);

/// Model weights: named tensors keyed by parameter name.
struct ModelParams {
  std::map<std::string, Tensor> tensors;

  const Tensor& at(const std::string& name) const;
  std::int64_t total_bytes() const;
  std::int64_t elems(const std::string& name) const;
};

/// The per-node executor: runs one node's cell program natively, op by
/// op, with eltwise expressions compiled and registers preallocated. Its
/// semantics are the per-node reference every engine reproduces bit for
/// bit: it is the oracle the panel path is checked against
/// (baselines::compute_states, tests); the engine serves every step with
/// BatchedCellExecutor.
///
/// After construction the executor is read-only, so any number of threads
/// may call the Scratch-taking run_node overload concurrently as long as
/// each thread passes its own Scratch (the parallel wavefront executor
/// keeps one per pool worker). The scratch-free overload uses a built-in
/// Scratch and is therefore single-threaded.
class CellExecutor {
 public:
  /// Mutable state for one in-flight run_node call, reused across calls so
  /// the per-node hot loop performs no heap allocation: the named register
  /// buffers plus the hoisted per-op scratch (eltwise input-pointer list,
  /// kMatStack2 vstack buffer) that used to be allocated per call.
  struct Scratch {
    std::map<std::string, std::vector<float>> regs;
    std::vector<const float*> elt_ins;
    std::vector<float> stacked;
  };

  CellExecutor(const CellProgram& cell, const ModelParams& params);

  /// Runs the leaf (when `leaf` and the cell has leaf ops) or internal
  /// program for one node. `child_states` holds num_children pointers to
  /// state vectors (may be empty for leaves).
  void run_node(bool leaf, const std::vector<const float*>& child_states,
                std::int32_t word, float* out_state);
  /// Thread-safe variant: all mutable state lives in `scratch`.
  void run_node(bool leaf, const std::vector<const float*>& child_states,
                std::int32_t word, float* out_state, Scratch& scratch) const;

  const CellProgram& cell() const { return cell_; }
  const ModelParams& params() const { return params_; }

 private:
  void run_ops(const std::vector<CellOp>& ops,
               const std::vector<CompiledEltwise>& compiled,
               const std::vector<std::vector<const float*>>& eparams,
               const std::vector<const float*>& child_states,
               std::int32_t word, float* out_state, Scratch& scratch) const;

  const CellProgram& cell_;
  const ModelParams& params_;
  std::vector<CompiledEltwise> leaf_compiled_;
  std::vector<CompiledEltwise> internal_compiled_;
  /// Pre-resolved eltwise param pointers per op (order of the op's
  /// CompiledEltwise::param_names()); empty vectors for non-eltwise ops.
  std::vector<std::vector<const float*>> leaf_eparams_;
  std::vector<std::vector<const float*>> internal_eparams_;
  Scratch regs_;
};

/// Member `member` of a team of `members` splitting one step by output
/// columns (BatchedCellExecutor::run_batch); the default runs it whole.
struct ColumnShare {
  int member = 0;
  int members = 1;
};

/// Batched wavefront executor: runs one cell program over a whole dynamic
/// batch of nodes at once instead of node by node. Child states and
/// embedding rows are gathered into contiguous [rows, width] register
/// panels, every kMatVec becomes ONE panel GEMM (In @ W^T, with W^T packed
/// once into kernels::pack_strips' 64-column strips; each output element
/// is the fused multiply-add chain over k that kernels::gemv computes, so
/// outputs are bit-identical to per-node execution), and eltwise ops
/// evaluate vectorized across the panel. Registers live
/// in a flat, index-addressed arena — no string maps on the hot path —
/// laid out per program: the leaf and the internal program each place
/// only the registers they write, and the last op writes the caller's
/// destination rows, so it has no register panel.
///
/// Input hoisting: the internal ops that read only child `c`'s state
/// (through kSliceChild(c)) and params — a sequence cell's W·x gate
/// products — do not depend on the recurrence. When the caller knows
/// every child `c` of a run of wavefronts is already computed (a leaf),
/// run_hoisted computes those ops once for the whole window as tall
/// panels into a side buffer, and run_batch then runs only the remaining
/// ops, reading the hoisted registers' rows from that buffer. Each output
/// element is still one fused chain over k ascending, so results stay
/// bit-identical.
///
/// Column split (cross-core model persistence): a wavefront narrower than
/// the threads running it is split by output columns instead of rows.
/// Each member of a team runs run_batch with its ColumnShare: every kMatVec
/// computes only the member's columns of its output (kernels::gemm_packed
/// over its column slice of the weight, which therefore stays in that
/// member's cache across steps), eltwise ops take the same columns, and a
/// kConcat2 maps onto both inputs' shares. Gathers (child slices and sums,
/// embeddings) are cheap and run whole on every member. A program whose
/// kMatVec reads a register only computed in shares (SeqGRU's
/// Uh·(r⊙h)), whose eltwise reads a register computed in shares but wider
/// than the op, or that has a kNodeMatVec / kMatStack2, cannot split:
/// member 0 runs it whole and the others do nothing. Each output element
/// is still the one chain per-node execution computes, so shares are
/// bit-identical.
///
/// Immutable after construction: any number of threads may call run_batch
/// concurrently as long as each passes its own Panels (the engine keeps
/// one per thread and hands each a disjoint row range or column share).
class BatchedCellExecutor {
 public:
  /// Per-thread workspace for run_batch, reused across calls: the
  /// register-panel arena and the per-call register base pointers,
  /// gather-index and register-written bookkeeping, the kMatStack2 vstack
  /// buffer, and the execution stats the engine drains into the profiler
  /// after a run. The arena only grows, to the largest panel a call has
  /// needed, and keeps its stale contents: no call clears it.
  struct Panels {
    std::vector<float> arena;
    std::vector<float*> regs;
    std::vector<std::int32_t> idx;
    std::vector<std::uint8_t> written;
    std::vector<float> stacked;
    // -- stats, accumulated across run_batch calls until drained --------
    std::int64_t gemm_calls = 0;      ///< GEMMs issued (kMatVec), hoisted too
    std::int64_t panels_run = 0;      ///< run_batch invocations
    std::int64_t max_panel_rows = 0;  ///< largest panel row count
  };

  /// A window of consecutively numbered internal nodes whose child-`child`
  /// ops are hoisted: `data` holds one [rows, width] block per hoisted
  /// register that the remaining ops read (hoist_width(child) floats per
  /// window row), and `row0` is the window row of a call's first node.
  struct HoistWindow {
    int child = -1;
    float* data = nullptr;
    std::int64_t rows = 0;
    std::int64_t row0 = 0;
  };

  /// Runs every cell that passes CellProgram::validate(). Throws when the
  /// cell fails it, or when a param the cell reads is missing or shaped
  /// unlike its op (an embedding table or kMatVec weight not as wide as
  /// the register it fills or reads, a kMatStack2 weight not (H, 2H)).
  BatchedCellExecutor(const CellProgram& cell, const ModelParams& params);

  /// Executes the leaf or internal program for `rows` consecutively
  /// numbered nodes. `words` holds the per-row word ids; `child_offsets`
  /// the per-row CSR offsets (rows + 1 entries, absolute indices into
  /// `child_ids`); `states` the state table child rows are gathered from
  /// (row stride = state_width); `out` the nodes' contiguous
  /// [rows, state_width] destination rows. Same numeric semantics as
  /// rows calls of CellExecutor::run_node, bit for bit. With `hoisted`
  /// (internal rows only), the hoisted ops are skipped and their
  /// registers read from the window, which run_hoisted filled for these
  /// rows. With a `share` of a team, writes only that member's columns of
  /// `out` (the class comment); all members' calls together write it
  /// whole.
  void run_batch(bool leaf, std::int64_t rows, const std::int32_t* words,
                 const std::int32_t* child_offsets,
                 const std::int32_t* child_ids, const float* states,
                 float* out, Panels& p, const HoistWindow* hoisted = nullptr,
                 ColumnShare share = {}) const;

  /// Bytes of kMatVec weights one node of a program reads, when the
  /// program can be split by columns; 0 when it cannot. The program is the
  /// leaf or internal one, or, with `hoist_child` >= 0, the internal ops
  /// left after hoisting that child's.
  std::int64_t split_weight_bytes(bool leaf, int hoist_child) const;

  /// Floats per node of child `c`'s hoisted registers; 0 when no internal
  /// op chain from kSliceChild(c) reaches a kMatVec (nothing to hoist).
  std::int64_t hoist_width(int c) const;

  /// Runs child `w.child`'s hoisted ops for `rows` internal nodes (same
  /// argument layout as run_batch) into window rows [w.row0, w.row0+rows).
  /// Every node's child `w.child` state must be final already.
  void run_hoisted(std::int64_t rows, const std::int32_t* child_offsets,
                   const std::int32_t* child_ids, const float* states,
                   const HoistWindow& w, Panels& p) const;

  /// Reserves `p`'s buffers for panels of up to `rows` rows of the wider
  /// program (optional; the engine calls it once per run with its
  /// threads' share of the linearization's max_batch_length so no
  /// reallocation happens inside the wavefront loop). Capacity only: the
  /// arena's size still grows only as calls need it.
  void reserve(std::int64_t rows, Panels& p) const;

  const CellProgram& cell() const { return cell_; }

 private:
  /// One cell op, pre-lowered for panel execution: register names
  /// resolved to arena indices, weights resolved (and packed for
  /// kMatVec), eltwise compiled with param pointers pre-bound.
  struct BatchedOp {
    CellOpKind kind = CellOpKind::kEltwise;
    std::int64_t width = 0;
    int out_reg = -1;
    std::vector<int> in_regs;
    std::vector<std::int64_t> in_widths;  ///< row stride of each input
    int child = 0;
    std::int64_t offset = 0;
    float constant = 0.0f;
    Tensor param;       ///< kLeafEmbed table / kMatStack2 weight
    Tensor packed;      ///< kMatVec weight W^T, kernels::pack_strips
    std::int64_t k = 0; ///< kMatVec reduction width
    CompiledEltwise compiled;
    std::vector<const float*> eparams;
    bool is_last = false;
  };

  /// A register placed at `offset` row-widths into a panel buffer.
  struct Slot {
    int reg = -1;
    std::int64_t offset = 0;
  };

  /// Registers sharing one panel buffer, `width` row-widths in all.
  struct Layout {
    std::vector<Slot> slots;
    std::int64_t width = 0;
  };

  /// Columns [offset, offset + width) of a register, which the members of
  /// a column split divide among themselves.
  struct Segment {
    std::int64_t offset = 0;
    std::int64_t width = 0;
    bool operator==(const Segment& o) const {
      return offset == o.offset && width == o.width;
    }
  };

  /// How one program runs split by columns: by op index, the segments of
  /// the op's output that each member computes its share of; none means
  /// every member computes the whole register.
  struct ColumnPlan {
    bool ok = false;               ///< false: the program cannot split
    std::int64_t weight_bytes = 0; ///< kMatVec weight bytes per node
    std::vector<std::vector<Segment>> segs;
  };

  /// Child `c`'s hoisting split of the internal program (op indices in
  /// program order). Empty `ops` means nothing to hoist for `c`.
  struct Hoist {
    std::vector<int> ops;   ///< hoisted: read only kSliceChild(c)
    std::vector<int> rest;  ///< the other internal ops
    Layout live;            ///< hoisted registers `rest` reads: window
    Layout scratch;         ///< other hoisted registers: run_hoisted's arena
    Layout arena;           ///< what `rest` writes: run_batch's arena
    ColumnPlan split;       ///< of `rest`, the window read whole
  };

  std::vector<BatchedOp> compile_ops(const std::vector<CellOp>& ops) const;
  Hoist find_hoist(int c) const;
  /// The arena layout of running `order` of `bops`: every register an op
  /// writes, except the last op's, which writes the caller's `out`.
  Layout layout_of(const std::vector<BatchedOp>& bops,
                   const std::vector<int>& order) const;
  /// Points each of `lay`'s registers at its [rows, width] panel in `p`'s
  /// arena, growing the arena only when it is too small. Its contents are
  /// never cleared: an op reads only what an earlier op of the same call
  /// wrote. Every other register gets no panel.
  void bind_arena(const Layout& lay, std::int64_t rows, Panels& p) const;
  /// Points each `live` register's panel at rows [w.row0, w.row0 + rows)
  /// of its [w.rows, width] block in the window.
  void bind_window(const Layout& live, const HoistWindow& w,
                   std::vector<float*>& regs) const;
  /// The column plan of running `order` of `bops`; registers it reads
  /// before writing them (the window's) count as whole.
  ColumnPlan plan_columns(const std::vector<BatchedOp>& bops,
                          const std::vector<int>& order) const;
  /// With `split`, each op that has segments runs only `share`'s columns.
  void run_ops(const std::vector<BatchedOp>& bops,
               const std::vector<int>& order, std::int64_t rows,
               const std::int32_t* words, const std::int32_t* child_offsets,
               const std::int32_t* child_ids, const float* states,
               float* out, Panels& p, const ColumnPlan* split = nullptr,
               ColumnShare share = {}) const;
  /// One op's share of a column split (`segs` from its ColumnPlan) over
  /// its input panels `ins`.
  void run_split_op(const BatchedOp& b, const std::vector<Segment>& segs,
                    ColumnShare share, std::int64_t rows,
                    const float* const* ins, float* outp, Panels& p) const;

  const CellProgram& cell_;
  const ModelParams& params_;
  std::map<std::string, int> reg_index_;
  std::vector<std::int64_t> reg_width_;  ///< by register index
  std::vector<BatchedOp> leaf_bops_;
  std::vector<BatchedOp> internal_bops_;
  std::vector<int> leaf_order_;      ///< 0..leaf_bops_.size()-1
  std::vector<int> internal_order_;  ///< 0..internal_bops_.size()-1
  Layout leaf_layout_;
  Layout internal_layout_;
  std::vector<Hoist> hoists_;        ///< by child index
  ColumnPlan leaf_split_;
  ColumnPlan internal_split_;
};

}  // namespace cortex::models
