#include "models/cell.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "tensor/activations.hpp"
#include "tensor/kernels.hpp"

namespace cortex::models {

// ---------------------------------------------------------------------------
// CompiledEltwise
// ---------------------------------------------------------------------------

namespace {
/// Hard bounds of the postfix interpreter's fixed-size operand stack and
/// param-pointer table; enforced at compile() so eval can never overrun.
constexpr std::int32_t kMaxStackDepth = 32;
constexpr std::size_t kMaxEltParams = 8;
static_assert(CompiledEltwise::kMaxInputs <= 10,
              "eltwise input names e0..e<k> are one digit");
/// Column shares of a split step are whole multiples of this many floats
/// (a 64-byte cache line), so two members never write one line.
constexpr std::int64_t kSplitAlign = 16;
/// Elements per interpreter strip in eval_panel (8 KiB of stack at max
/// depth; long enough to amortize instruction dispatch, short enough to
/// stay in L1).
constexpr std::int64_t kEltStrip = 64;
}  // namespace

CompiledEltwise::CompiledEltwise(const ra::Expr& expr) {
  compile(expr);
  // Walk the program once to bound the operand stack depth.
  std::int32_t depth = 0;
  for (const Instr& it : prog_) {
    switch (it.op) {
      case OpCode::kPushInput:
      case OpCode::kPushParam:
      case OpCode::kPushConst:
        ++depth;
        break;
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kMax:
      case OpCode::kMin:
        --depth;
        break;
      case OpCode::kSelect:
        depth -= 2;
        break;
      default:  // unary calls leave the depth unchanged
        break;
    }
    max_depth_ = std::max(max_depth_, depth);
  }
  CORTEX_CHECK(max_depth_ <= kMaxStackDepth)
      << "eltwise expression exceeds operand stack depth " << kMaxStackDepth;
  CORTEX_CHECK(param_names_.size() <= kMaxEltParams)
      << "eltwise expression loads more than " << kMaxEltParams << " params";
}

void CompiledEltwise::compile(const ra::Expr& e) {
  using ra::ExprKind;
  switch (e->kind) {
    case ExprKind::kFloatImm:
      prog_.push_back({OpCode::kPushConst, 0, static_cast<float>(e->fimm)});
      return;
    case ExprKind::kIntImm:
      prog_.push_back({OpCode::kPushConst, 0, static_cast<float>(e->iimm)});
      return;
    case ExprKind::kVar: {
      // e0..e7: one digit below kMaxInputs.
      const std::string& name = e->name;
      CORTEX_CHECK(name.size() == 2 && name[0] == 'e' && name[1] >= '0' &&
                   name[1] < static_cast<char>('0' + kMaxInputs))
          << "eltwise expr may only reference inputs e0..e"
          << kMaxInputs - 1 << ", got " << name;
      const auto slot = static_cast<std::size_t>(name[1] - '0');
      num_inputs_ = std::max(num_inputs_, slot + 1);
      prog_.push_back(
          {OpCode::kPushInput, static_cast<std::int32_t>(slot), 0.0f});
      return;
    }
    case ExprKind::kLoad: {
      // Param load: 1-D tensor indexed by the element variable "i".
      CORTEX_CHECK(e->args.size() == 1 &&
                   e->args[0]->kind == ExprKind::kVar &&
                   e->args[0]->name == "i")
          << "eltwise param loads must be param[i], got " << ra::to_string(e);
      std::int32_t slot = -1;
      for (std::size_t k = 0; k < param_names_.size(); ++k)
        if (param_names_[k] == e->name) slot = static_cast<std::int32_t>(k);
      if (slot < 0) {
        slot = static_cast<std::int32_t>(param_names_.size());
        param_names_.push_back(e->name);
      }
      prog_.push_back({OpCode::kPushParam, slot, 0.0f});
      return;
    }
    case ExprKind::kBinary: {
      compile(e->args[0]);
      compile(e->args[1]);
      ++arith_ops_;
      switch (e->bin) {
        case ra::BinOp::kAdd: prog_.push_back({OpCode::kAdd, 0, 0}); return;
        case ra::BinOp::kSub: prog_.push_back({OpCode::kSub, 0, 0}); return;
        case ra::BinOp::kMul: prog_.push_back({OpCode::kMul, 0, 0}); return;
        case ra::BinOp::kDiv: prog_.push_back({OpCode::kDiv, 0, 0}); return;
        case ra::BinOp::kMax: prog_.push_back({OpCode::kMax, 0, 0}); return;
        case ra::BinOp::kMin: prog_.push_back({OpCode::kMin, 0, 0}); return;
        default:
          CORTEX_CHECK(false)
              << "comparison ops unsupported in eltwise cell exprs";
      }
      return;
    }
    case ExprKind::kCall: {
      compile(e->args[0]);
      ++arith_ops_;
      switch (e->fn) {
        case ra::CallFn::kTanh:
          prog_.push_back({OpCode::kTanh, 0, 0});
          return;
        case ra::CallFn::kSigmoid:
          prog_.push_back({OpCode::kSigmoid, 0, 0});
          return;
        case ra::CallFn::kRelu:
          prog_.push_back({OpCode::kRelu, 0, 0});
          return;
        case ra::CallFn::kExp:
          prog_.push_back({OpCode::kExp, 0, 0});
          return;
      }
      return;
    }
    case ExprKind::kSelect:
      compile(e->args[0]);
      compile(e->args[1]);
      compile(e->args[2]);
      ++arith_ops_;
      prog_.push_back({OpCode::kSelect, 0, 0});
      return;
    default:
      CORTEX_CHECK(false) << "unsupported eltwise expr: " << ra::to_string(e);
  }
}

float CompiledEltwise::eval(std::int64_t i, const float* const* ins,
                            const float* const* params) const {
  float stack[kMaxStackDepth];
  int sp = 0;
  for (const Instr& ins_i : prog_) {
    switch (ins_i.op) {
      case OpCode::kPushInput:
        stack[sp++] = ins[static_cast<std::size_t>(ins_i.slot)][i];
        break;
      case OpCode::kPushParam:
        stack[sp++] = params[ins_i.slot][i];
        break;
      case OpCode::kPushConst:
        stack[sp++] = ins_i.constant;
        break;
      case OpCode::kAdd: --sp; stack[sp - 1] += stack[sp]; break;
      case OpCode::kSub: --sp; stack[sp - 1] -= stack[sp]; break;
      case OpCode::kMul: --sp; stack[sp - 1] *= stack[sp]; break;
      case OpCode::kDiv: --sp; stack[sp - 1] /= stack[sp]; break;
      case OpCode::kMax:
        --sp;
        stack[sp - 1] = std::max(stack[sp - 1], stack[sp]);
        break;
      case OpCode::kMin:
        --sp;
        stack[sp - 1] = std::min(stack[sp - 1], stack[sp]);
        break;
      case OpCode::kTanh:
        stack[sp - 1] = kernels::tanh_rational(stack[sp - 1]);
        break;
      case OpCode::kSigmoid:
        stack[sp - 1] = kernels::sigmoid_rational(stack[sp - 1]);
        break;
      case OpCode::kRelu:
        stack[sp - 1] = stack[sp - 1] > 0.0f ? stack[sp - 1] : 0.0f;
        break;
      case OpCode::kExp:
        stack[sp - 1] = std::exp(stack[sp - 1]);
        break;
      case OpCode::kSelect: {
        sp -= 2;
        stack[sp - 1] = stack[sp - 1] != 0.0f ? stack[sp] : stack[sp + 1];
        break;
      }
    }
  }
  return stack[0];
}

// eval_panel's body, compiled once per instruction set: run() is
// always_inline, so it takes the target of each entry point below, and the
// strip loops (tanh_rational and sigmoid_rational are inline) vectorize to
// that width. Per element the op sequence is the same in every variant.
struct EltwisePanel {
  [[gnu::always_inline]] static inline void run(
      const CompiledEltwise& ce, std::int64_t rows, std::int64_t width,
      const float* const* ins, const std::int64_t* in_strides,
      const float* const* params, float* out, std::int64_t out_stride);

#ifdef CORTEX_X86_SIMD_VARIANTS
  [[gnu::target("avx2")]] static void avx2(
      const CompiledEltwise& ce, std::int64_t rows, std::int64_t width,
      const float* const* ins, const std::int64_t* in_strides,
      const float* const* params, float* out, std::int64_t out_stride) {
    run(ce, rows, width, ins, in_strides, params, out, out_stride);
  }
  [[gnu::target("avx512f")]] static void avx512(
      const CompiledEltwise& ce, std::int64_t rows, std::int64_t width,
      const float* const* ins, const std::int64_t* in_strides,
      const float* const* params, float* out, std::int64_t out_stride) {
    run(ce, rows, width, ins, in_strides, params, out, out_stride);
  }
#endif
};

inline void EltwisePanel::run(const CompiledEltwise& ce, std::int64_t rows,
                              std::int64_t width, const float* const* ins,
                              const std::int64_t* in_strides,
                              const float* const* params, float* out,
                              std::int64_t out_stride) {
  using OpCode = CompiledEltwise::OpCode;
  using Instr = CompiledEltwise::Instr;
  // Strip-mined interpretation: each instruction runs over a strip of
  // elements, amortizing the dispatch switch. Per element the arithmetic
  // is the identical scalar op sequence eval() performs (elementwise ops
  // carry no cross-element accumulation), so the panel result is
  // bit-identical to per-element evaluation in any order.
  float stack[kMaxStackDepth][kEltStrip];
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t i0 = 0; i0 < width; i0 += kEltStrip) {
      const std::int64_t len = std::min(kEltStrip, width - i0);
      int sp = 0;
      for (const Instr& it : ce.prog_) {
        switch (it.op) {
          case OpCode::kPushInput: {
            const auto slot = static_cast<std::size_t>(it.slot);
            const float* src = ins[slot] + r * in_strides[slot] + i0;
            float* dst = stack[sp++];
            for (std::int64_t e = 0; e < len; ++e) dst[e] = src[e];
            break;
          }
          case OpCode::kPushParam: {
            // Params are 1-D over the register width: index i, not r*w+i.
            const float* src = params[it.slot] + i0;
            float* dst = stack[sp++];
            for (std::int64_t e = 0; e < len; ++e) dst[e] = src[e];
            break;
          }
          case OpCode::kPushConst: {
            float* dst = stack[sp++];
            for (std::int64_t e = 0; e < len; ++e) dst[e] = it.constant;
            break;
          }
          case OpCode::kAdd: {
            --sp;
            float* a = stack[sp - 1];
            const float* b = stack[sp];
            for (std::int64_t e = 0; e < len; ++e) a[e] += b[e];
            break;
          }
          case OpCode::kSub: {
            --sp;
            float* a = stack[sp - 1];
            const float* b = stack[sp];
            for (std::int64_t e = 0; e < len; ++e) a[e] -= b[e];
            break;
          }
          case OpCode::kMul: {
            --sp;
            float* a = stack[sp - 1];
            const float* b = stack[sp];
            for (std::int64_t e = 0; e < len; ++e) a[e] *= b[e];
            break;
          }
          case OpCode::kDiv: {
            --sp;
            float* a = stack[sp - 1];
            const float* b = stack[sp];
            for (std::int64_t e = 0; e < len; ++e) a[e] /= b[e];
            break;
          }
          case OpCode::kMax: {
            --sp;
            float* a = stack[sp - 1];
            const float* b = stack[sp];
            for (std::int64_t e = 0; e < len; ++e)
              a[e] = std::max(a[e], b[e]);
            break;
          }
          case OpCode::kMin: {
            --sp;
            float* a = stack[sp - 1];
            const float* b = stack[sp];
            for (std::int64_t e = 0; e < len; ++e)
              a[e] = std::min(a[e], b[e]);
            break;
          }
          case OpCode::kTanh: {
            float* a = stack[sp - 1];
            for (std::int64_t e = 0; e < len; ++e)
              a[e] = kernels::tanh_rational(a[e]);
            break;
          }
          case OpCode::kSigmoid: {
            float* a = stack[sp - 1];
            for (std::int64_t e = 0; e < len; ++e)
              a[e] = kernels::sigmoid_rational(a[e]);
            break;
          }
          case OpCode::kRelu: {
            float* a = stack[sp - 1];
            for (std::int64_t e = 0; e < len; ++e)
              a[e] = a[e] > 0.0f ? a[e] : 0.0f;
            break;
          }
          case OpCode::kExp: {
            float* a = stack[sp - 1];
            for (std::int64_t e = 0; e < len; ++e) a[e] = std::exp(a[e]);
            break;
          }
          case OpCode::kSelect: {
            sp -= 2;
            float* c = stack[sp - 1];
            const float* t = stack[sp];
            const float* f = stack[sp + 1];
            for (std::int64_t e = 0; e < len; ++e)
              c[e] = c[e] != 0.0f ? t[e] : f[e];
            break;
          }
        }
      }
      float* dst = out + r * out_stride + i0;
      const float* s0 = stack[0];
      for (std::int64_t e = 0; e < len; ++e) dst[e] = s0[e];
    }
  }
}

void CompiledEltwise::eval_panel(std::int64_t rows, std::int64_t width,
                                 const float* const* ins,
                                 const std::int64_t* in_strides,
                                 const float* const* params, float* out,
                                 std::int64_t out_stride) const {
  eval_panel_with(kernels::detail::selected_isa(), rows, width, ins,
                  in_strides, params, out, out_stride);
}

void CompiledEltwise::eval_panel_with(kernels::detail::Isa isa,
                                      std::int64_t rows, std::int64_t width,
                                      const float* const* ins,
                                      const std::int64_t* in_strides,
                                      const float* const* params, float* out,
                                      std::int64_t out_stride) const {
  CORTEX_CHECK(kernels::detail::supported(isa))
      << "eltwise variant " << kernels::detail::isa_name(isa)
      << " is not supported here";
  switch (isa) {
#ifdef CORTEX_X86_SIMD_VARIANTS
    case kernels::detail::Isa::kAvx512:
      EltwisePanel::avx512(*this, rows, width, ins, in_strides, params, out,
                           out_stride);
      return;
    case kernels::detail::Isa::kAvx2:
      EltwisePanel::avx2(*this, rows, width, ins, in_strides, params, out,
                         out_stride);
      return;
#endif
    default:
      EltwisePanel::run(*this, rows, width, ins, in_strides, params, out,
                        out_stride);
      return;
  }
}

// ---------------------------------------------------------------------------
// CellProgram
// ---------------------------------------------------------------------------

namespace {
std::int64_t op_flops(const CellOp& op,
                      const std::map<std::string, std::int64_t>& widths) {
  auto in_width = [&](std::size_t k) -> std::int64_t {
    CORTEX_CHECK(k < op.ins.size()) << "op " << op.out << " missing input";
    auto it = widths.find(op.ins[k]);
    CORTEX_CHECK(it != widths.end()) << "unknown register " << op.ins[k];
    return it->second;
  };
  switch (op.kind) {
    case CellOpKind::kMatVec:
      return 2 * op.width * in_width(0);
    case CellOpKind::kNodeMatVec:
      return 2 * op.width * op.width;
    case CellOpKind::kMatStack2:
      // (H, 2H) @ (2H, H): out width = H*H.
      {
        const auto h2 = op.width;  // H*H
        const auto h = static_cast<std::int64_t>(std::llround(
            std::sqrt(static_cast<double>(h2))));
        return 2 * h * 2 * h * h;
      }
    case CellOpKind::kEltwise: {
      CompiledEltwise ce(op.expr);
      return ce.arith_ops() * op.width;
    }
    case CellOpKind::kChildSum:
      return 2 * op.width;  // assumes binary fan-in for static accounting
    default:
      return 0;
  }
}
}  // namespace

std::int64_t cell_op_flops(const CellOp& op,
                           const std::map<std::string, std::int64_t>& widths) {
  return op_flops(op, widths);
}

std::vector<std::string> cell_op_params(const CellOp& op) {
  std::vector<std::string> names;
  if (!op.param.empty()) names.push_back(op.param);
  if (op.kind == CellOpKind::kEltwise && op.expr)
    for (const std::string& p : ra::collect_loads(op.expr))
      names.push_back(p);
  return names;
}

std::map<std::string, std::int64_t> CellProgram::register_widths() const {
  std::map<std::string, std::int64_t> w;
  for (const auto* ops : {&leaf_ops, &internal_ops})
    for (const CellOp& op : *ops) {
      auto it = w.find(op.out);
      if (it != w.end()) {
        CORTEX_CHECK(it->second == op.width)
            << "register " << op.out << " redefined with width " << op.width
            << " (was " << it->second << ")";
      }
      w[op.out] = op.width;
    }
  return w;
}

std::int64_t CellProgram::internal_flops() const {
  const auto widths = register_widths();
  std::int64_t f = 0;
  for (const CellOp& op : internal_ops) f += op_flops(op, widths);
  return f;
}

namespace {
/// Every element `op` reads lies inside the register or state it reads
/// (CellProgram::validate): the executors index without further checks.
void check_reads(const CellOp& op,
                 const std::map<std::string, std::int64_t>& widths,
                 std::int64_t state_width) {
  const auto arity = [&](std::size_t n) {
    CORTEX_CHECK(op.ins.size() == n)
        << "op " << op.out << " takes " << n << " inputs, got "
        << op.ins.size();
  };
  const auto in_width = [&](std::size_t k) { return widths.at(op.ins[k]); };
  switch (op.kind) {
    case CellOpKind::kSliceChild:
    case CellOpKind::kChildSum:
      CORTEX_CHECK(op.offset >= 0 && op.offset + op.width <= state_width)
          << "op " << op.out << " reads state columns [" << op.offset << ", "
          << op.offset + op.width << ") of " << state_width;
      break;
    case CellOpKind::kMatVec:
      arity(1);
      break;
    case CellOpKind::kNodeMatVec:
      arity(2);
      CORTEX_CHECK(in_width(0) >= op.width * op.width &&
                   in_width(1) >= op.width)
          << "kNodeMatVec " << op.out << " reads a " << op.width << " x "
          << op.width << " matrix and a " << op.width << " vector";
      break;
    case CellOpKind::kMatStack2:
      arity(2);
      CORTEX_CHECK(in_width(0) >= op.width && in_width(1) >= op.width)
          << "kMatStack2 " << op.out << " reads " << op.width
          << " floats of each input";
      break;
    case CellOpKind::kEltwise: {
      CORTEX_CHECK(op.ins.size() <= CompiledEltwise::kMaxInputs)
          << "eltwise op " << op.out << " has more than "
          << CompiledEltwise::kMaxInputs << " inputs";
      CORTEX_CHECK(op.expr != nullptr)
          << "eltwise op " << op.out << " has no expression";
      const CompiledEltwise ce(op.expr);
      CORTEX_CHECK(ce.num_inputs() <= op.ins.size())
          << "eltwise op " << op.out << " reads e" << ce.num_inputs() - 1
          << " but has " << op.ins.size() << " inputs";
      for (std::size_t k = 0; k < op.ins.size(); ++k)
        CORTEX_CHECK(in_width(k) >= op.width)
            << "eltwise op " << op.out << " (" << op.width
            << " wide) reads the narrower register " << op.ins[k];
      break;
    }
    case CellOpKind::kConcat2:
      arity(2);
      CORTEX_CHECK(in_width(0) <= op.width &&
                   in_width(1) >= op.width - in_width(0))
          << "kConcat2 " << op.out << " (" << op.width << " wide) of "
          << op.ins[0] << " (" << in_width(0) << ") and " << op.ins[1]
          << " (" << in_width(1) << ")";
      break;
    default:
      break;
  }
}
}  // namespace

void CellProgram::validate() const {
  CORTEX_CHECK(state_width > 0) << "cell has no state width";
  CORTEX_CHECK(!internal_ops.empty()) << "cell has no internal program";
  // Throws on conflicting register widths.
  const std::map<std::string, std::int64_t> widths = register_widths();
  for (const auto* ops : {&leaf_ops, &internal_ops}) {
    // Define before use within each program: a register written only by
    // the other program, or only by a later op, holds whatever the
    // previous node left there.
    std::set<std::string> defined;
    for (const CellOp& op : *ops) {
      for (const std::string& in : op.ins)
        CORTEX_CHECK(defined.count(in) > 0)
            << "op " << op.out << " reads register " << in
            << " before an earlier op of its program defines it";
      check_reads(op, widths, state_width);
      defined.insert(op.out);
    }
    if (!ops->empty()) {
      const CellOp& last = ops->back();
      CORTEX_CHECK(last.width == state_width)
          << "final cell op '" << last.out << "' must produce the state ("
          << state_width << " wide), got " << last.width;
    }
  }
}

void fingerprint(const CellOp& op, support::FingerprintBuilder& fb) {
  fb.tag('c');
  fb.add(static_cast<std::int64_t>(op.kind));
  fb.add(op.out);
  fb.add(op.width);
  fb.add(op.child);
  fb.add(op.offset);
  fb.add(op.constant);
  fb.add(op.param);
  fb.add(static_cast<std::int64_t>(op.ins.size()));
  for (const std::string& in : op.ins) fb.add(in);
  ra::fingerprint(op.expr, fb);
}

void fingerprint(const CellProgram& cell, support::FingerprintBuilder& fb) {
  fb.tag('C');
  fb.add(cell.state_width);
  fb.add(cell.num_children);
  fb.add(static_cast<std::int64_t>(cell.leaf_ops.size()));
  for (const CellOp& op : cell.leaf_ops) fingerprint(op, fb);
  fb.add(static_cast<std::int64_t>(cell.internal_ops.size()));
  for (const CellOp& op : cell.internal_ops) fingerprint(op, fb);
}

// ---------------------------------------------------------------------------
// ModelParams
// ---------------------------------------------------------------------------

const Tensor& ModelParams::at(const std::string& name) const {
  auto it = tensors.find(name);
  CORTEX_CHECK(it != tensors.end()) << "missing model parameter " << name;
  return it->second;
}

std::int64_t ModelParams::total_bytes() const {
  std::int64_t b = 0;
  for (const auto& [name, t] : tensors)
    b += t.numel() * static_cast<std::int64_t>(sizeof(float));
  return b;
}

std::int64_t ModelParams::elems(const std::string& name) const {
  return at(name).numel();
}

// ---------------------------------------------------------------------------
// Native cell execution
// ---------------------------------------------------------------------------

namespace {

/// Executes one cell op. For an eltwise op, `compiled` is its expression
/// and `elt_params` its pre-resolved param pointers (param_names() order);
/// `elt_ins` and `stacked` are per-op scratch reused across calls, so the
/// loop allocates nothing once they have grown.
void exec_op(const CellOp& op, const CompiledEltwise& compiled,
             const float* const* elt_params, const ModelParams& params,
             const std::vector<const float*>& child_states,
             std::int32_t word,
             std::map<std::string, std::vector<float>>& regs,
             std::vector<const float*>& elt_ins, std::vector<float>& stacked,
             float* out_state, std::int64_t state_width, bool is_last) {
  float* out;
  if (is_last) {
    CORTEX_CHECK(op.width == state_width)
        << "last op width " << op.width << " != state width " << state_width;
    out = out_state;
  } else {
    auto& buf = regs[op.out];
    buf.resize(static_cast<std::size_t>(op.width));
    out = buf.data();
  }
  auto in_reg = [&](std::size_t k) -> const std::vector<float>& {
    auto it = regs.find(op.ins[k]);
    CORTEX_CHECK(it != regs.end()) << "undefined register " << op.ins[k];
    return it->second;
  };
  auto in_ptr = [&](std::size_t k) { return in_reg(k).data(); };
  switch (op.kind) {
    case CellOpKind::kLeafEmbed: {
      const Tensor& table = params.at(op.param);
      CORTEX_CHECK(word >= 0 && word < table.shape().dim(0))
          << "word id " << word << " outside embedding table";
      kernels::copy(table.row(word), out, op.width);
      break;
    }
    case CellOpKind::kLeafConst:
      kernels::fill(out, static_cast<float>(op.constant), op.width);
      break;
    case CellOpKind::kSliceChild: {
      CORTEX_CHECK(static_cast<std::size_t>(op.child) < child_states.size())
          << "cell reads child " << op.child << " but node has "
          << child_states.size();
      kernels::copy(child_states[static_cast<std::size_t>(op.child)] +
                        op.offset,
                    out, op.width);
      break;
    }
    case CellOpKind::kChildSum: {
      kernels::fill(out, 0.0f, op.width);
      for (const float* cs : child_states)
        kernels::acc(cs + op.offset, out, op.width);
      break;
    }
    case CellOpKind::kMatVec: {
      const Tensor& w = params.at(op.param);
      kernels::gemv(w.data(), in_ptr(0), out, w.shape().dim(0),
                    w.shape().dim(1));
      break;
    }
    case CellOpKind::kNodeMatVec: {
      // in0 is an H*H matrix register, in1 an H vector.
      kernels::gemv(in_ptr(0), in_ptr(1), out, op.width, op.width);
      break;
    }
    case CellOpKind::kMatStack2: {
      // out (H*H) = Param(H, 2H) @ vstack(mat(in0), mat(in1)) (2H, H).
      const Tensor& w = params.at(op.param);
      const auto h = w.shape().dim(0);
      CORTEX_CHECK(w.shape().dim(1) == 2 * h && op.width == h * h)
          << "kMatStack2 param must be (H,2H) with out H*H";
      stacked.resize(static_cast<std::size_t>(2 * h * h));
      kernels::copy(in_ptr(0), stacked.data(), h * h);
      kernels::copy(in_ptr(1), stacked.data() + h * h, h * h);
      kernels::gemm(w.data(), stacked.data(), out, h, 2 * h, h);
      break;
    }
    case CellOpKind::kEltwise: {
      elt_ins.clear();
      for (std::size_t k = 0; k < op.ins.size(); ++k)
        elt_ins.push_back(in_ptr(k));
      for (std::int64_t i = 0; i < op.width; ++i)
        out[i] = compiled.eval(i, elt_ins.data(), elt_params);
      break;
    }
    case CellOpKind::kConcat2: {
      const std::int64_t w0 = static_cast<std::int64_t>(in_reg(0).size());
      kernels::copy(in_ptr(0), out, w0);
      kernels::copy(in_ptr(1), out + w0, op.width - w0);
      break;
    }
  }
  if (is_last) return;
}

/// Pre-resolves each eltwise op's param pointers (in param_names() order)
/// so the hot loop never touches the params map.
std::vector<std::vector<const float*>> resolve_eparams(
    const std::vector<CellOp>& ops,
    const std::vector<CompiledEltwise>& compiled, const ModelParams& params) {
  std::vector<std::vector<const float*>> out;
  out.reserve(ops.size());
  for (std::size_t k = 0; k < ops.size(); ++k) {
    std::vector<const float*> ptrs;
    if (ops[k].kind == CellOpKind::kEltwise)
      for (const std::string& pn : compiled[k].param_names())
        ptrs.push_back(params.at(pn).data());
    out.push_back(std::move(ptrs));
  }
  return out;
}
}  // namespace

CellExecutor::CellExecutor(const CellProgram& cell, const ModelParams& params)
    : cell_(cell), params_(params) {
  cell.validate();
  for (const CellOp& op : cell.leaf_ops)
    leaf_compiled_.push_back(op.kind == CellOpKind::kEltwise
                                 ? CompiledEltwise(op.expr)
                                 : CompiledEltwise());
  for (const CellOp& op : cell.internal_ops)
    internal_compiled_.push_back(op.kind == CellOpKind::kEltwise
                                     ? CompiledEltwise(op.expr)
                                     : CompiledEltwise());
  leaf_eparams_ = resolve_eparams(cell.leaf_ops, leaf_compiled_, params);
  internal_eparams_ =
      resolve_eparams(cell.internal_ops, internal_compiled_, params);
}

void CellExecutor::run_ops(const std::vector<CellOp>& ops,
                           const std::vector<CompiledEltwise>& compiled,
                           const std::vector<std::vector<const float*>>& eparams,
                           const std::vector<const float*>& child_states,
                           std::int32_t word, float* out_state,
                           Scratch& scratch) const {
  for (std::size_t k = 0; k < ops.size(); ++k)
    exec_op(ops[k], compiled[k], eparams[k].data(), params_, child_states,
            word, scratch.regs, scratch.elt_ins, scratch.stacked, out_state,
            cell_.state_width, k + 1 == ops.size());
}

void CellExecutor::run_node(bool leaf,
                            const std::vector<const float*>& child_states,
                            std::int32_t word, float* out_state) {
  run_node(leaf, child_states, word, out_state, regs_);
}

void CellExecutor::run_node(bool leaf,
                            const std::vector<const float*>& child_states,
                            std::int32_t word, float* out_state,
                            Scratch& scratch) const {
  if (leaf && !cell_.leaf_ops.empty())
    run_ops(cell_.leaf_ops, leaf_compiled_, leaf_eparams_, child_states,
            word, out_state, scratch);
  else
    run_ops(cell_.internal_ops, internal_compiled_, internal_eparams_,
            child_states, word, out_state, scratch);
}

// ---------------------------------------------------------------------------
// BatchedCellExecutor
// ---------------------------------------------------------------------------

BatchedCellExecutor::BatchedCellExecutor(const CellProgram& cell,
                                         const ModelParams& params)
    : cell_(cell), params_(params) {
  cell.validate();
  // Every register of the leaf and internal programs gets an index; each
  // program lays out only the registers it writes (layout_of). The map is
  // ordered, so the indices are deterministic.
  for (const auto& [name, w] : cell.register_widths()) {
    reg_index_[name] = static_cast<int>(reg_width_.size());
    reg_width_.push_back(w);
  }
  leaf_bops_ = compile_ops(cell.leaf_ops);
  internal_bops_ = compile_ops(cell.internal_ops);
  for (std::size_t n = 0; n < leaf_bops_.size(); ++n)
    leaf_order_.push_back(static_cast<int>(n));
  for (std::size_t n = 0; n < internal_bops_.size(); ++n)
    internal_order_.push_back(static_cast<int>(n));
  leaf_layout_ = layout_of(leaf_bops_, leaf_order_);
  internal_layout_ = layout_of(internal_bops_, internal_order_);
  int children = 0;
  for (const BatchedOp& b : internal_bops_)
    if (b.kind == CellOpKind::kSliceChild)
      children = std::max(children, b.child + 1);
  for (int c = 0; c < children; ++c) hoists_.push_back(find_hoist(c));
  leaf_split_ = plan_columns(leaf_bops_, leaf_order_);
  internal_split_ = plan_columns(internal_bops_, internal_order_);
}

BatchedCellExecutor::Hoist BatchedCellExecutor::find_hoist(int c) const {
  // One pass in program order: an op is hoisted when it slices child `c`,
  // or computes only from registers whose latest writer was hoisted. The
  // last op writes the node's state, so it always stays per step.
  const std::size_t nregs = reg_width_.size();
  std::vector<std::uint8_t> hoisted_reg(nregs, 0);
  std::vector<int> writers(nregs, 0);
  Hoist h;
  bool any_matvec = false;
  for (std::size_t n = 0; n < internal_bops_.size(); ++n) {
    const BatchedOp& b = internal_bops_[n];
    bool hoist = false;
    switch (b.kind) {
      case CellOpKind::kSliceChild:
        hoist = b.child == c;
        break;
      case CellOpKind::kMatVec:
      case CellOpKind::kNodeMatVec:
      case CellOpKind::kMatStack2:
      case CellOpKind::kEltwise:
      case CellOpKind::kConcat2:
        hoist = std::all_of(b.in_regs.begin(), b.in_regs.end(), [&](int r) {
          return hoisted_reg[static_cast<std::size_t>(r)] != 0;
        });
        break;
      default:  // the node's word, or every child's state
        break;
    }
    hoist = hoist && !b.is_last;
    const auto out = static_cast<std::size_t>(b.out_reg);
    hoisted_reg[out] = hoist ? 1 : 0;
    ++writers[out];
    (hoist ? h.ops : h.rest).push_back(static_cast<int>(n));
    any_matvec = any_matvec || (hoist && b.kind == CellOpKind::kMatVec);
  }
  if (!any_matvec) return {};
  std::vector<std::uint8_t> read_by_rest(nregs, 0);
  for (const int n : h.rest)
    for (const int r : internal_bops_[static_cast<std::size_t>(n)].in_regs)
      read_by_rest[static_cast<std::size_t>(r)] = 1;
  for (const int n : h.ops) {
    const int reg = internal_bops_[static_cast<std::size_t>(n)].out_reg;
    const auto r = static_cast<std::size_t>(reg);
    // A register another op also writes has no single hoisted value.
    if (writers[r] != 1) return {};
    Layout& lay = read_by_rest[r] != 0 ? h.live : h.scratch;
    lay.slots.push_back({reg, lay.width});
    lay.width += reg_width_[r];
  }
  if (h.live.slots.empty()) return {};
  h.arena = layout_of(internal_bops_, h.rest);
  h.split = plan_columns(internal_bops_, h.rest);
  return h;
}

BatchedCellExecutor::Layout BatchedCellExecutor::layout_of(
    const std::vector<BatchedOp>& bops, const std::vector<int>& order) const {
  Layout lay;
  std::vector<std::uint8_t> placed(reg_width_.size(), 0);
  for (const int n : order) {
    const BatchedOp& b = bops[static_cast<std::size_t>(n)];
    const auto r = static_cast<std::size_t>(b.out_reg);
    if (b.is_last || placed[r] != 0) continue;
    placed[r] = 1;
    lay.slots.push_back({b.out_reg, lay.width});
    lay.width += reg_width_[r];
  }
  return lay;
}

BatchedCellExecutor::ColumnPlan BatchedCellExecutor::plan_columns(
    const std::vector<BatchedOp>& bops, const std::vector<int>& order) const {
  ColumnPlan plan;
  plan.segs.resize(bops.size());
  // The segments of each register's latest value; none = whole.
  std::vector<std::vector<Segment>> reg(reg_width_.size());
  const auto segs_or_whole = [&](int r, std::int64_t width) {
    const auto& sg = reg[static_cast<std::size_t>(r)];
    return sg.empty() ? std::vector<Segment>{{0, width}} : sg;
  };
  for (const int n : order) {
    const BatchedOp& b = bops[static_cast<std::size_t>(n)];
    const bool any_split =
        std::any_of(b.in_regs.begin(), b.in_regs.end(), [&](int r) {
          return !reg[static_cast<std::size_t>(r)].empty();
        });
    std::vector<Segment> out;
    switch (b.kind) {
      case CellOpKind::kMatVec:
        // Needs its whole input on every member.
        if (any_split) return {};
        out = {{0, b.width}};
        plan.weight_bytes +=
            b.k * b.width * static_cast<std::int64_t>(sizeof(float));
        break;
      case CellOpKind::kEltwise:
        // Whole when its inputs are whole, except the state's writer: two
        // members must never write the same state columns.
        if (!any_split && !b.is_last) break;
        for (std::size_t k = 0; k < b.in_regs.size(); ++k) {
          const auto& sg = reg[static_cast<std::size_t>(b.in_regs[k])];
          if (sg.empty()) continue;
          // A wider input's shares are of its own columns, not the op's.
          if (b.in_widths[k] != b.width) return {};
          if (out.empty()) out = sg;
          if (sg != out) return {};
        }
        if (out.empty()) out = {{0, b.width}};
        break;
      case CellOpKind::kConcat2: {
        if (!any_split && !b.is_last) break;
        const int in1 = b.in_regs[1];
        const std::int64_t w0 = b.in_widths[0];
        const std::int64_t w1 = b.width - w0;
        if (!reg[static_cast<std::size_t>(in1)].empty() &&
            b.in_widths[1] != w1)
          return {};
        out = segs_or_whole(b.in_regs[0], w0);
        for (Segment sg : segs_or_whole(in1, w1)) {
          sg.offset += w0;
          out.push_back(sg);
        }
        break;
      }
      case CellOpKind::kNodeMatVec:
      case CellOpKind::kMatStack2:
        return {};
      default:
        // Gathers run whole on every member, so one must not write the
        // state.
        if (b.is_last) return {};
        break;
    }
    reg[static_cast<std::size_t>(b.out_reg)] = out;
    plan.segs[static_cast<std::size_t>(n)] = std::move(out);
  }
  plan.ok = true;
  return plan;
}

std::int64_t BatchedCellExecutor::split_weight_bytes(bool leaf,
                                                     int hoist_child) const {
  const ColumnPlan& plan =
      hoist_width(hoist_child) > 0
          ? hoists_[static_cast<std::size_t>(hoist_child)].split
          : (leaf && !leaf_bops_.empty() ? leaf_split_ : internal_split_);
  return plan.ok ? plan.weight_bytes : 0;
}

std::int64_t BatchedCellExecutor::hoist_width(int c) const {
  return c >= 0 && static_cast<std::size_t>(c) < hoists_.size()
             ? hoists_[static_cast<std::size_t>(c)].live.width
             : 0;
}

std::vector<BatchedCellExecutor::BatchedOp> BatchedCellExecutor::compile_ops(
    const std::vector<CellOp>& ops) const {
  std::vector<BatchedOp> bops;
  bops.reserve(ops.size());
  for (std::size_t n = 0; n < ops.size(); ++n) {
    const CellOp& op = ops[n];
    BatchedOp b;
    b.kind = op.kind;
    b.width = op.width;
    b.child = op.child;
    b.offset = op.offset;
    b.constant = static_cast<float>(op.constant);
    // The last op writes straight into the caller's [rows, state_width]
    // destination, which validate() made exactly as wide.
    b.is_last = n + 1 == ops.size();
    b.out_reg = reg_index_.at(op.out);
    for (const std::string& in : op.ins) {
      b.in_regs.push_back(reg_index_.at(in));
      b.in_widths.push_back(reg_width_[static_cast<std::size_t>(
          b.in_regs.back())]);
    }
    switch (op.kind) {
      case CellOpKind::kLeafEmbed: {
        b.param = params_.at(op.param);
        CORTEX_CHECK(b.param.shape().rank() == 2 &&
                     b.param.shape().dim(1) == op.width)
            << "embedding table " << op.param << " rows must be "
            << op.width << " wide";
        break;
      }
      case CellOpKind::kMatVec: {
        const Tensor& w = params_.at(op.param);
        CORTEX_CHECK(w.shape().rank() == 2 && w.shape().dim(0) == op.width)
            << "kMatVec param " << op.param << " must have " << op.width
            << " rows";
        b.k = w.shape().dim(1);
        CORTEX_CHECK(b.in_widths[0] == b.k)
            << "kMatVec input register width != param cols for " << op.out;
        // The panel GEMM C = In @ W^T reads B = W^T in 64-column strips.
        b.packed = Tensor(Shape{b.k, op.width});
        kernels::pack_strips(w.data(), b.packed.data(), op.width, b.k);
        break;
      }
      case CellOpKind::kMatStack2: {
        b.param = params_.at(op.param);
        const auto h = b.param.shape().dim(0);
        CORTEX_CHECK(b.param.shape().dim(1) == 2 * h && op.width == h * h)
            << "kMatStack2 param must be (H,2H) with out H*H";
        break;
      }
      case CellOpKind::kEltwise: {
        b.compiled = CompiledEltwise(op.expr);
        for (const std::string& pn : b.compiled.param_names())
          b.eparams.push_back(params_.at(pn).data());
        break;
      }
      default:
        break;
    }
    bops.push_back(std::move(b));
  }
  return bops;
}

void BatchedCellExecutor::reserve(std::int64_t rows, Panels& p) const {
  std::int64_t width = std::max(leaf_layout_.width, internal_layout_.width);
  for (const Hoist& h : hoists_)
    width = std::max({width, h.scratch.width, h.arena.width});
  p.arena.reserve(static_cast<std::size_t>(width * rows));
  p.regs.reserve(reg_width_.size());
  p.idx.reserve(static_cast<std::size_t>(rows));
  p.written.reserve(reg_width_.size());
}

void BatchedCellExecutor::bind_arena(const Layout& lay, std::int64_t rows,
                                     Panels& p) const {
  const auto need = static_cast<std::size_t>(lay.width * rows);
  if (p.arena.size() < need) p.arena.resize(need);
  p.regs.assign(reg_width_.size(), nullptr);
  for (const Slot& s : lay.slots)
    p.regs[static_cast<std::size_t>(s.reg)] = p.arena.data() + s.offset * rows;
}

void BatchedCellExecutor::bind_window(const Layout& live, const HoistWindow& w,
                                      std::vector<float*>& regs) const {
  for (const Slot& s : live.slots) {
    const auto r = static_cast<std::size_t>(s.reg);
    regs[r] = w.data + s.offset * w.rows + w.row0 * reg_width_[r];
  }
}

void BatchedCellExecutor::run_batch(bool leaf, std::int64_t rows,
                                    const std::int32_t* words,
                                    const std::int32_t* child_offsets,
                                    const std::int32_t* child_ids,
                                    const float* states, float* out,
                                    Panels& p, const HoistWindow* hoisted,
                                    ColumnShare share) const {
  if (rows <= 0) return;
  CORTEX_CHECK(share.members >= 1 && share.member >= 0 &&
               share.member < share.members)
      << "column share " << share.member << " of " << share.members;
  // Mirror run_node's branch selection: a model without a leaf program
  // runs its single formula at leaves too (DAG-RNN).
  const bool leaf_prog = leaf && !leaf_bops_.empty();
  const std::vector<BatchedOp>& bops = leaf_prog ? leaf_bops_ : internal_bops_;
  const std::vector<int>* order = leaf_prog ? &leaf_order_ : &internal_order_;
  const ColumnPlan* split = leaf_prog ? &leaf_split_ : &internal_split_;
  p.idx.resize(static_cast<std::size_t>(rows));
  p.written.assign(reg_width_.size(), 0);
  if (hoisted != nullptr) {
    CORTEX_CHECK(!leaf && hoist_width(hoisted->child) > 0 &&
                 hoisted->row0 >= 0 && hoisted->row0 + rows <= hoisted->rows)
        << "hoisted run_batch outside its window or without a hoist";
    const Hoist& h = hoists_[static_cast<std::size_t>(hoisted->child)];
    bind_arena(h.arena, rows, p);
    bind_window(h.live, *hoisted, p.regs);
    for (const Slot& s : h.live.slots)
      p.written[static_cast<std::size_t>(s.reg)] = 1;
    order = &h.rest;
    split = &h.split;
  } else {
    bind_arena(leaf_prog ? leaf_layout_ : internal_layout_, rows, p);
  }
  if (share.members == 1) {
    split = nullptr;
  } else if (!split->ok) {
    // Cannot split: member 0 runs the whole program.
    if (share.member != 0) return;
    split = nullptr;
  }
  ++p.panels_run;
  p.max_panel_rows = std::max(p.max_panel_rows, rows);
  run_ops(bops, *order, rows, words, child_offsets, child_ids, states, out,
          p, split, share);
}

void BatchedCellExecutor::run_hoisted(std::int64_t rows,
                                      const std::int32_t* child_offsets,
                                      const std::int32_t* child_ids,
                                      const float* states,
                                      const HoistWindow& w,
                                      Panels& p) const {
  if (rows <= 0) return;
  CORTEX_CHECK(hoist_width(w.child) > 0 && w.row0 >= 0 &&
               w.row0 + rows <= w.rows)
      << "run_hoisted outside its window or without a hoist";
  const Hoist& h = hoists_[static_cast<std::size_t>(w.child)];
  // Only the hoisted registers get panels: the ones the remaining ops
  // read go straight to the window, the rest to the arena.
  bind_arena(h.scratch, rows, p);
  bind_window(h.live, w, p.regs);
  p.idx.resize(static_cast<std::size_t>(rows));
  p.written.assign(reg_width_.size(), 0);
  run_ops(internal_bops_, h.ops, rows, /*words=*/nullptr, child_offsets,
          child_ids, states, /*out=*/nullptr, p);
}

void BatchedCellExecutor::run_ops(const std::vector<BatchedOp>& bops,
                                  const std::vector<int>& order,
                                  std::int64_t rows,
                                  const std::int32_t* words,
                                  const std::int32_t* child_offsets,
                                  const std::int32_t* child_ids,
                                  const float* states, float* out,
                                  Panels& p, const ColumnPlan* split,
                                  ColumnShare share) const {
  const std::int64_t sw = cell_.state_width;
  const auto panel = [&](int reg) {
    return p.regs[static_cast<std::size_t>(reg)];
  };
  const auto in_panel = [&](const BatchedOp& b,
                            std::size_t k) -> const float* {
    const int reg = b.in_regs[k];
    CORTEX_CHECK(p.written[static_cast<std::size_t>(reg)] != 0)
        << "batched op reads register " << reg
        << " before any op of this program wrote it";
    return panel(reg);
  };
  for (const int n : order) {
    const BatchedOp& b = bops[static_cast<std::size_t>(n)];
    float* outp = b.is_last ? out : panel(b.out_reg);
    if (split != nullptr && !split->segs[static_cast<std::size_t>(n)].empty()) {
      const float* ins[CompiledEltwise::kMaxInputs] = {nullptr};
      for (std::size_t k = 0; k < b.in_regs.size(); ++k)
        ins[k] = in_panel(b, k);
      run_split_op(b, split->segs[static_cast<std::size_t>(n)], share, rows,
                   ins, outp, p);
      p.written[static_cast<std::size_t>(b.out_reg)] = 1;
      continue;
    }
    switch (b.kind) {
      case CellOpKind::kLeafEmbed: {
        const std::int64_t vocab = b.param.shape().dim(0);
        for (std::int64_t r = 0; r < rows; ++r)
          CORTEX_CHECK(words[r] >= 0 && words[r] < vocab)
              << "word id " << words[r] << " outside embedding table";
        kernels::gather_rows(b.param.data(), words, outp, rows, b.width);
        break;
      }
      case CellOpKind::kLeafConst:
        kernels::fill(outp, b.constant, rows * b.width);
        break;
      case CellOpKind::kSliceChild: {
        for (std::int64_t r = 0; r < rows; ++r) {
          const std::int32_t off0 = child_offsets[r];
          const std::int32_t off1 = child_offsets[r + 1];
          CORTEX_CHECK(b.child < off1 - off0)
              << "cell reads child " << b.child << " but node has "
              << off1 - off0;
          p.idx[static_cast<std::size_t>(r)] =
              child_ids[static_cast<std::size_t>(off0) +
                        static_cast<std::size_t>(b.child)];
        }
        kernels::gather_rows_strided(states + b.offset, sw, p.idx.data(),
                                     outp, rows, b.width);
        break;
      }
      case CellOpKind::kChildSum: {
        kernels::fill(outp, 0.0f, rows * b.width);
        for (std::int64_t r = 0; r < rows; ++r) {
          float* dst = outp + r * b.width;
          for (std::int32_t c = child_offsets[r]; c < child_offsets[r + 1];
               ++c)
            kernels::acc(states +
                             child_ids[static_cast<std::size_t>(c)] * sw +
                             b.offset,
                         dst, b.width);
        }
        break;
      }
      case CellOpKind::kMatVec: {
        // The whole panel in one GEMM: [rows, k] @ [k, m]. Each element is
        // the fused chain over k that gemv computes, so every row is
        // bit-identical to the per-node matvec.
        const float* in = in_panel(b, 0);
        kernels::gemm_packed(in, b.packed.data(), outp, rows, b.k, b.width,
                             0, b.width);
        ++p.gemm_calls;
        break;
      }
      case CellOpKind::kNodeMatVec: {
        // Per-node matrices: no shared weight to batch; run the same
        // per-row gemv the per-node path runs.
        const float* m = in_panel(b, 0);
        const float* x = in_panel(b, 1);
        for (std::int64_t r = 0; r < rows; ++r)
          kernels::gemv(m + r * b.in_widths[0], x + r * b.in_widths[1],
                        outp + r * b.width, b.width, b.width);
        break;
      }
      case CellOpKind::kMatStack2: {
        const std::int64_t h = b.param.shape().dim(0);
        p.stacked.resize(static_cast<std::size_t>(2 * h * h));
        const float* in0 = in_panel(b, 0);
        const float* in1 = in_panel(b, 1);
        for (std::int64_t r = 0; r < rows; ++r) {
          kernels::copy(in0 + r * b.in_widths[0], p.stacked.data(), h * h);
          kernels::copy(in1 + r * b.in_widths[1], p.stacked.data() + h * h,
                        h * h);
          kernels::gemm(b.param.data(), p.stacked.data(),
                        outp + r * b.width, h, 2 * h, h);
        }
        break;
      }
      case CellOpKind::kEltwise: {
        const float* ins_arr[CompiledEltwise::kMaxInputs] = {nullptr};
        for (std::size_t k = 0; k < b.in_regs.size(); ++k)
          ins_arr[k] = in_panel(b, k);
        b.compiled.eval_panel(rows, b.width, ins_arr, b.in_widths.data(),
                              b.eparams.data(), outp, b.width);
        break;
      }
      case CellOpKind::kConcat2: {
        const float* in0 = in_panel(b, 0);
        const float* in1 = in_panel(b, 1);
        const std::int64_t w0 = b.in_widths[0];
        for (std::int64_t r = 0; r < rows; ++r) {
          kernels::copy(in0 + r * w0, outp + r * b.width, w0);
          kernels::copy(in1 + r * b.in_widths[1], outp + r * b.width + w0,
                        b.width - w0);
        }
        break;
      }
    }
    p.written[static_cast<std::size_t>(b.out_reg)] = 1;
  }
}

void BatchedCellExecutor::run_split_op(const BatchedOp& b,
                                       const std::vector<Segment>& segs,
                                       ColumnShare share, std::int64_t rows,
                                       const float* const* ins, float* outp,
                                       Panels& p) const {
  for (const Segment& sg : segs) {
    // The member's share of the segment, in whole cache lines of floats.
    const std::int64_t units = (sg.width + kSplitAlign - 1) / kSplitAlign;
    const auto edge = [&](int m) {
      return sg.offset +
             std::min(sg.width, kSplitAlign * (units * m / share.members));
    };
    const std::int64_t c0 = edge(share.member);
    const std::int64_t c1 = edge(share.member + 1);
    if (c0 >= c1) continue;
    switch (b.kind) {
      case CellOpKind::kMatVec:
        kernels::gemm_packed(ins[0], b.packed.data(), outp, rows, b.k,
                             b.width, c0, c1);
        ++p.gemm_calls;
        break;
      case CellOpKind::kEltwise: {
        // Columns [c0, c1) of every input and of the 1-D params.
        const float* prm[kMaxEltParams] = {nullptr};
        for (std::size_t k = 0; k < b.eparams.size(); ++k)
          prm[k] = b.eparams[k] + c0;
        const float* in_c[CompiledEltwise::kMaxInputs] = {nullptr};
        for (std::size_t k = 0; k < b.in_regs.size(); ++k)
          in_c[k] = ins[k] + c0;
        b.compiled.eval_panel(rows, c1 - c0, in_c, b.in_widths.data(), prm,
                              outp + c0, b.width);
        break;
      }
      case CellOpKind::kConcat2: {
        // A segment lies inside one input (plan_columns builds it so).
        const std::int64_t w0 = b.in_widths[0];
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* src = c0 < w0
                                 ? ins[0] + r * w0 + c0
                                 : ins[1] + r * b.in_widths[1] + (c0 - w0);
          kernels::copy(src, outp + r * b.width + c0, c1 - c0);
        }
        break;
      }
      default:
        CORTEX_CHECK(false) << "op kind cannot split by columns";
    }
  }
}

}  // namespace cortex::models
