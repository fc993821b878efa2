#include "exec/memory_plan.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>

#include "support/logging.hpp"

namespace cortex::exec {

namespace {

using ilir::LiveRange;
using ra::Expr;
using ra::ExprKind;
using support::Diagnostic;
using support::Severity;

constexpr std::int64_t kArenaAlign = 64;  // cache-line-aligned slots

/// Symbolic byte size of a buffer: 4 * shape[0] * shape[1] * ...
Expr bytes_expr(const ilir::Buffer& b) {
  Expr e = ra::imm(4);
  for (const Expr& d : b.shape) e = ra::mul(e, d);
  return e;
}

/// Nominal (heuristic-only) evaluation of a size expression: unknown
/// scalars take representative values so the best-fit ordering has
/// concrete sizes to compare. Never correctness-bearing — slot sizes
/// stay symbolic and resolve per run.
std::int64_t eval_nominal(const Expr& e) {
  if (!e) return 1;
  switch (e->kind) {
    case ExprKind::kIntImm:
      return e->iimm;
    case ExprKind::kVar: {
      if (e->name == "N") return 256;
      if (e->name == "num_leaves" || e->name == "first_leaf_id") return 128;
      if (e->name == "num_batches") return 16;
      if (e->name == "num_internal_batches") return 15;
      if (e->name == "max_batch_size") return 64;
      return 64;
    }
    case ExprKind::kBinary: {
      const std::int64_t a = eval_nominal(e->args[0]);
      const std::int64_t b = eval_nominal(e->args[1]);
      switch (e->bin) {
        case ra::BinOp::kAdd: return a + b;
        case ra::BinOp::kSub: return a - b;
        case ra::BinOp::kMul: return a * b;
        case ra::BinOp::kDiv: return b != 0 ? a / b : a;
        case ra::BinOp::kMax: return std::max(a, b);
        case ra::BinOp::kMin: return std::min(a, b);
        default: break;
      }
      return 64;
    }
    default:
      return 64;
  }
}

/// True when `tree` (a kMax tree over byte expressions) already covers
/// `term`: contains a structurally equal term, or both are constants
/// with tree >= term.
bool max_tree_covers(const Expr& tree, const Expr& term) {
  if (!tree || !term) return false;
  if (ra::struct_equal(tree, term)) return true;
  if (tree->kind == ExprKind::kIntImm && term->kind == ExprKind::kIntImm)
    return tree->iimm >= term->iimm;
  if (tree->kind == ExprKind::kBinary && tree->bin == ra::BinOp::kMax)
    return max_tree_covers(tree->args[0], term) ||
           max_tree_covers(tree->args[1], term);
  return false;
}

/// max(a, b) without growing the tree when one side already covers the
/// other structurally.
Expr max_expr(const Expr& a, const Expr& b) {
  if (!a) return b;
  if (max_tree_covers(a, b)) return a;
  if (a->kind == ExprKind::kIntImm && b->kind == ExprKind::kIntImm)
    return ra::imm(std::max(a->iimm, b->iimm));
  return ra::binary(ra::BinOp::kMax, a, b);
}

/// One plannable buffer with its (live_out-widened) range and size.
struct Plannable {
  const ilir::Buffer* buf = nullptr;
  LiveRange range;
  Expr bytes;
  std::int64_t nominal = 0;
};

/// Collects the buffers the runtime allocates (written float buffers not
/// externally bound) with their effective live ranges: live_out buffers
/// stay live to the end of the program, since the caller reads them
/// after the run.
std::map<std::string, Plannable> collect_plannable(
    const ilir::Program& program, const MemoryPlanOptions& options,
    const ilir::LivenessInfo& live) {
  const ilir::Effects eff = ilir::effects_of(program.body);
  const std::set<std::string> external(options.external.begin(),
                                       options.external.end());
  const std::set<std::string> live_out(options.live_out.begin(),
                                       options.live_out.end());
  std::map<std::string, Plannable> out;
  for (const ilir::Buffer& b : program.buffers) {
    if (b.dtype != ra::DType::kFloat) continue;
    if (eff.writes.count(b.name) == 0) continue;  // parameter / constant
    if (external.count(b.name) > 0) continue;
    Plannable p;
    p.buf = &b;
    const auto it = live.ranges.find(b.name);
    CORTEX_CHECK(it != live.ranges.end())
        << "written buffer '" << b.name << "' missing from liveness";
    p.range = it->second;
    if (live_out.count(b.name) > 0) p.range.end = live.num_positions;
    p.bytes = bytes_expr(b);
    p.nominal = eval_nominal(p.bytes);
    out.emplace(b.name, std::move(p));
  }
  return out;
}

bool ranges_disjoint(const LiveRange& a, const LiveRange& b) {
  return a.end < b.begin || b.end < a.begin;
}

}  // namespace

const BufferPlanEntry* MemoryPlan::find(const std::string& buffer) const {
  for (const BufferPlanEntry& e : entries)
    if (e.buffer == buffer) return &e;
  return nullptr;
}

std::string MemoryPlan::describe() const {
  std::ostringstream os;
  os << "memory plan: " << entries.size() << " buffer(s), " << slots.size()
     << " slot(s), " << buffers_reused << " reused\n";
  for (const BufferPlanEntry& e : entries) {
    os << "  " << e.buffer << " -> slot " << e.slot << " live ["
       << e.live_begin << ", " << e.live_end << "] bytes "
       << ra::to_string(e.bytes);
    if (e.reused_slot) os << " (shared)";
    if (e.zero_init) os << " (zero-init)";
    os << "\n";
  }
  return os.str();
}

MemoryPlan plan_memory(const ilir::Program& program,
                       const MemoryPlanOptions& options) {
  const ilir::LivenessInfo live = ilir::analyze_liveness(program);
  const std::map<std::string, Plannable> plannable =
      collect_plannable(program, options, live);

  // Greedy best-fit in decreasing nominal size (big buffers claim slots
  // first; small ones fill the gaps), name-tie-broken for determinism.
  std::vector<const Plannable*> order;
  order.reserve(plannable.size());
  for (const auto& [name, p] : plannable) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [](const Plannable* a, const Plannable* b) {
              if (a->nominal != b->nominal) return a->nominal > b->nominal;
              return a->buf->name < b->buf->name;
            });

  MemoryPlan plan;
  plan.num_positions = live.num_positions;
  std::vector<std::int64_t> slot_nominal;
  std::map<std::string, BufferPlanEntry> placed;

  for (const Plannable* cand : order) {
    const LiveRange& r = cand->range;
    const bool zero_init = r.read_before_write;
    std::int64_t best = -1;
    std::int64_t best_score = 0;
    if (!zero_init) {
      for (std::size_t i = 0; i < plan.slots.size(); ++i) {
        const MemorySlot& slot = plan.slots[i];
        if (slot.scope != cand->buf->scope) continue;
        if (slot.scope != ilir::MemScope::kGlobal &&
            slot.home_nest != r.home_nest)
          continue;
        bool ok = true;
        for (const std::string& member : slot.members) {
          const BufferPlanEntry& m = placed.at(member);
          if (!ranges_disjoint(r, LiveRange{m.live_begin, m.live_end, -1,
                                            -1, false, false, false, ""})) {
            ok = false;
            break;
          }
          // Running before a zero-relying member would dirty its bytes.
          if (m.zero_init && r.end < m.live_begin) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        const std::int64_t score =
            std::abs(slot_nominal[i] - cand->nominal);  // best fit
        if (best < 0 || score < best_score) {
          best = static_cast<std::int64_t>(i);
          best_score = score;
        }
      }
    }

    BufferPlanEntry entry;
    entry.buffer = cand->buf->name;
    entry.scope = cand->buf->scope;
    entry.bytes = cand->bytes;
    entry.live_begin = r.begin;
    entry.live_end = r.end;
    entry.zero_init = zero_init;
    if (best >= 0) {
      MemorySlot& slot = plan.slots[static_cast<std::size_t>(best)];
      slot.bytes = max_expr(slot.bytes, cand->bytes);
      slot.members.push_back(cand->buf->name);
      slot_nominal[static_cast<std::size_t>(best)] =
          std::max(slot_nominal[static_cast<std::size_t>(best)],
                   cand->nominal);
      entry.slot = best;
      entry.reused_slot = true;
      ++plan.buffers_reused;
    } else {
      MemorySlot slot;
      slot.bytes = cand->bytes;
      slot.scope = cand->buf->scope;
      if (slot.scope != ilir::MemScope::kGlobal)
        slot.home_nest = r.home_nest;
      slot.members.push_back(cand->buf->name);
      entry.slot = static_cast<std::int64_t>(plan.slots.size());
      plan.slots.push_back(std::move(slot));
      slot_nominal.push_back(cand->nominal);
    }
    placed.emplace(entry.buffer, std::move(entry));
  }

  // Entries in program buffer order, so the plan is deterministic and
  // diffs read like the buffer table.
  for (const ilir::Buffer& b : program.buffers) {
    const auto it = placed.find(b.name);
    if (it != placed.end()) plan.entries.push_back(it->second);
  }
  return plan;
}

std::vector<Diagnostic> verify_memory_plan(const ilir::Program& program,
                                           const MemoryPlan& plan,
                                           const MemoryPlanOptions& options) {
  std::vector<Diagnostic> diags;
  const auto error = [&](const std::string& code, const std::string& at,
                         const std::string& message) {
    diags.push_back({Severity::kError, code, at, message});
  };

  const ilir::LivenessInfo live = ilir::analyze_liveness(program);
  const std::map<std::string, Plannable> plannable =
      collect_plannable(program, options, live);

  // Coverage: every runtime-allocated buffer has exactly one entry, and
  // every entry names one.
  std::map<std::string, std::int64_t> entry_count;
  for (const BufferPlanEntry& e : plan.entries) ++entry_count[e.buffer];
  for (const auto& [name, p] : plannable)
    if (entry_count.find(name) == entry_count.end())
      error("memplan-missing", "buffer(" + name + ")",
            "program-allocated buffer '" + name + "' has no plan entry");
  for (const auto& [name, n] : entry_count) {
    if (n > 1)
      error("memplan-missing", "buffer(" + name + ")",
            "buffer '" + name + "' has " + std::to_string(n) +
                " plan entries (expected one)");
    if (plannable.find(name) == plannable.end())
      error("memplan-missing", "buffer(" + name + ")",
            "plan entry for '" + name +
                "' which is not a program-allocated buffer");
  }

  for (const BufferPlanEntry& e : plan.entries) {
    const std::string at = "buffer(" + e.buffer + ")";
    const auto pit = plannable.find(e.buffer);
    if (pit == plannable.end()) continue;  // already reported above
    const Plannable& p = pit->second;

    if (e.slot < 0 ||
        e.slot >= static_cast<std::int64_t>(plan.slots.size())) {
      error("memplan-slot", at,
            "slot id " + std::to_string(e.slot) + " out of range (plan has " +
                std::to_string(plan.slots.size()) + " slot(s))");
      continue;
    }
    const MemorySlot& slot = plan.slots[static_cast<std::size_t>(e.slot)];
    if (e.scope != p.buf->scope || slot.scope != p.buf->scope)
      error("memplan-slot", at,
            "memory-scope mismatch between buffer, entry and slot");
    if (slot.scope != ilir::MemScope::kGlobal &&
        slot.home_nest != p.range.home_nest)
      error("memplan-slot", at,
            "on-chip buffer planned into a slot of a different "
            "dependence nest ('" +
                slot.home_nest + "' vs '" + p.range.home_nest + "')");
    if (std::find(slot.members.begin(), slot.members.end(), e.buffer) ==
        slot.members.end())
      error("memplan-slot", at,
            "entry's slot does not list it as a member");

    if (e.live_begin > p.range.begin || e.live_end < p.range.end)
      error("memplan-liveness", at,
            "recorded live range [" + std::to_string(e.live_begin) + ", " +
                std::to_string(e.live_end) +
                "] no longer covers the program's [" +
                std::to_string(p.range.begin) + ", " +
                std::to_string(p.range.end) + "]");

    if (!e.bytes || !ra::struct_equal(e.bytes, p.bytes))
      error("memplan-size", at,
            "entry byte size is stale against the buffer's shape");
    else if (!max_tree_covers(slot.bytes, e.bytes))
      error("memplan-size", at,
            "slot bytes do not cover this member's bytes: an access "
            "could escape its assignment");

    if (p.range.read_before_write && !e.zero_init)
      error("memplan-zero", at,
            "buffer reads before any dominating write (relies on "
            "zero-fill) but is not flagged zero_init");
  }

  // Pairwise overlap within each slot, against the RECOMPUTED ranges.
  for (std::size_t si = 0; si < plan.slots.size(); ++si) {
    const MemorySlot& slot = plan.slots[si];
    for (std::size_t i = 0; i < slot.members.size(); ++i) {
      const auto ai = plannable.find(slot.members[i]);
      if (ai == plannable.end()) continue;
      for (std::size_t j = i + 1; j < slot.members.size(); ++j) {
        const auto bj = plannable.find(slot.members[j]);
        if (bj == plannable.end()) continue;
        const LiveRange& ra_ = ai->second.range;
        const LiveRange& rb = bj->second.range;
        if (!ranges_disjoint(ra_, rb))
          error("memplan-overlap", "slot(" + std::to_string(si) + ")",
                "simultaneously-live buffers '" + slot.members[i] +
                    "' [" + std::to_string(ra_.begin) + ", " +
                    std::to_string(ra_.end) + "] and '" + slot.members[j] +
                    "' [" + std::to_string(rb.begin) + ", " +
                    std::to_string(rb.end) + "] share bytes");
        // An earlier-live neighbour dirties a zero-relying member.
        const bool a_first = ra_.end < rb.begin;
        const LiveRange& later = a_first ? rb : ra_;
        const std::string& later_name =
            a_first ? slot.members[j] : slot.members[i];
        const std::string& earlier_name =
            a_first ? slot.members[i] : slot.members[j];
        if (ranges_disjoint(ra_, rb) && later.read_before_write)
          error("memplan-zero", "slot(" + std::to_string(si) + ")",
                "zero-relying buffer '" + later_name +
                    "' shares its slot with earlier-live '" + earlier_name +
                    "', which dirties its bytes before the first read");
      }
    }
  }
  return diags;
}

void verify_memory_plan_or_throw(const ilir::Program& program,
                                 const MemoryPlan& plan,
                                 const std::string& phase,
                                 const MemoryPlanOptions& options) {
  const std::vector<Diagnostic> diags =
      verify_memory_plan(program, plan, options);
  if (!support::has_errors(diags)) return;
  CORTEX_CHECK(false) << "memory-plan verification failed after '" << phase
                      << "' for program '" << program.name << "' ("
                      << support::error_count(diags) << " error(s)):\n"
                      << support::format(support::sorted_by_severity(diags));
}

std::int64_t eval_extent(const ra::Expr& e,
                         const std::map<std::string, std::int64_t>& scalars) {
  switch (e->kind) {
    case ExprKind::kIntImm:
      return e->iimm;
    case ExprKind::kVar: {
      auto it = scalars.find(e->name);
      CORTEX_CHECK(it != scalars.end())
          << "buffer extent references unknown runtime scalar " << e->name;
      return it->second;
    }
    case ExprKind::kBinary: {
      const std::int64_t a = eval_extent(e->args[0], scalars);
      const std::int64_t b = eval_extent(e->args[1], scalars);
      switch (e->bin) {
        case ra::BinOp::kAdd: return a + b;
        case ra::BinOp::kSub: return a - b;
        case ra::BinOp::kMul: return a * b;
        case ra::BinOp::kDiv: return a / b;
        case ra::BinOp::kMax: return std::max(a, b);
        case ra::BinOp::kMin: return std::min(a, b);
        default: break;
      }
      CORTEX_CHECK(false) << "unsupported extent operator";
      return 0;
    }
    default:
      CORTEX_CHECK(false) << "unsupported extent expression "
                          << ra::to_string(e);
      return 0;
  }
}

ResolvedArena resolve_arena(
    const MemoryPlan& plan,
    const std::map<std::string, std::int64_t>& scalars) {
  ResolvedArena out;
  out.slot_offsets.reserve(plan.slots.size());
  std::int64_t offset = 0;
  for (const MemorySlot& slot : plan.slots) {
    out.slot_offsets.push_back(offset);
    std::int64_t bytes = eval_extent(slot.bytes, scalars);
    CORTEX_CHECK(bytes >= 0) << "negative slot size in memory plan";
    bytes = (bytes + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
    offset += bytes;
  }
  out.arena_bytes = offset;
  for (const BufferPlanEntry& e : plan.entries)
    out.sum_buffer_bytes += eval_extent(e.bytes, scalars);
  return out;
}

void fingerprint(const MemoryPlan& plan, support::FingerprintBuilder& fb) {
  fb.tag('M');
  fb.add(plan.num_positions);
  fb.add(plan.buffers_reused);
  fb.count(plan.entries.size());
  for (const BufferPlanEntry& e : plan.entries) {
    fb.add_short(e.buffer);
    fb.small(static_cast<std::uint8_t>(e.scope));
    fb.add(e.slot);
    ra::fingerprint(e.bytes, fb);
    fb.add(e.live_begin);
    fb.add(e.live_end);
    fb.add(e.reused_slot);
    fb.add(e.zero_init);
  }
  fb.count(plan.slots.size());
  for (const MemorySlot& s : plan.slots) {
    fb.small(static_cast<std::uint8_t>(s.scope));
    fb.add_short(s.home_nest);
    ra::fingerprint(s.bytes, fb);
    fb.count(s.members.size());
    for (const std::string& m : s.members) fb.add_short(m);
  }
}

support::Fingerprint fingerprint(const MemoryPlan& plan) {
  support::FingerprintBuilder fb;
  fingerprint(plan, fb);
  return fb.finish();
}

}  // namespace cortex::exec
