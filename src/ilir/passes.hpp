#pragma once
// ILIR optimization passes (§5, §A.4, §A.5):
//   fuse_elementwise_loops   — merge adjacent same-domain loop nests
//                              (operator/kernel fusion at loop level)
//   forward_stores           — within a fused body, forward stored values
//                              to same-index loads (intermediates become
//                              registers — Fig. 8's on-chip reuse)
//   eliminate_dead_stores    — drop stores/buffers nobody reads
//                              (fusion's memory-footprint win, Fig. 12)
//   insert_barriers          — place device-wide barriers on the loop that
//                              actually carries the inter-batch dependence
//                              (improved mode) or conservatively in the
//                              innermost node loop (TVM-default mode, §A.4)
//   dense_index_intermediates— re-index scratch tensors by the loop
//                              iteration space instead of the sparse node
//                              space (§5.1, Fig. 5)
//   peel_variable_loop       — split variable-bound node loops into a
//                              check-free unrolled main loop + tail (§A.5)

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ilir/ilir.hpp"

namespace cortex::ilir {

/// Merges maximal runs of adjacent For loops with the same loop variable,
/// bounds, and kind whose bodies are stores, when every load of a buffer
/// stored earlier in the run uses exactly the store's indices (pointwise
/// dependence). Reductions over other axes block fusion, as required.
Program fuse_elementwise_loops(const Program& p);

/// Replaces loads that match an earlier same-index store in the same
/// (fused) sequence with the stored value.
Program forward_stores(const Program& p);

/// Removes stores to buffers that are never loaded anywhere in the
/// program and are not in `live_out`; removes those buffers too.
Program eliminate_dead_stores(const Program& p,
                              const std::vector<std::string>& live_out);

/// Inserts device-wide barriers. With `improved` (the paper's fix), one
/// barrier per iteration of the dependence-carrying batch loop; without
/// it, one per node iteration (the conservative TVM placement).
Program insert_barriers(const Program& p, bool improved);

/// Counts barrier statements that would execute given runtime trip counts
/// for the batch loop and node loops (used by tests to show the §A.4
/// improvement).
std::int64_t static_barrier_count(const Program& p);

/// Re-indexes shared-memory candidate intermediates (per-node scratch
/// buffers whose accesses all use the let-bound `node` index) by the
/// dense batch iteration space; moves them to MemScope::kShared and
/// shrinks their leading dimension to `max_batch_var`.
Program dense_index_intermediates(const Program& p,
                                  const std::string& node_var,
                                  const std::string& dense_var,
                                  const std::string& max_batch_var,
                                  const std::vector<std::string>& live_out);

/// Splits every variable-extent node loop into an unrolled main loop of
/// `factor` iterations plus a tail loop; bounds checks in the main body
/// are elided when provably redundant (uses the simplifier/prover).
Program peel_variable_loop(const Program& p, std::int64_t factor);

// -- classical tensor-compiler loop transformations ----------------------------
// The ILIR supports the standard scheduling repertoire on top of its
// irregular extensions ("Loop optimizations such [as] unrolling, tiling,
// etc., as performed in tensor compilers, can be performed here" — §2).

/// Splits every loop over variable `var` (which must have constant
/// extent divisible by `factor`) into var_o over extent/factor and var_i
/// over factor, with `var` let-bound to var_o*factor + var_i. Throws if
/// no such loop exists or an extent is not divisible.
Program split_loop(const Program& p, const std::string& var,
                   std::int64_t factor);

/// Interchanges a perfectly nested loop pair: `outer` must immediately
/// contain `inner` (no intervening statements). Throws when the pair is
/// not found or not perfectly nested.
Program reorder_loops(const Program& p, const std::string& outer,
                      const std::string& inner);

/// Re-annotates every loop over `var` with the given kind (vectorize /
/// unroll / parallel); a pure marking transform consumed by codegen.
Program annotate_loop(const Program& p, const std::string& var,
                      ForKind kind);

// -- pipeline driver -----------------------------------------------------------

/// Called after every applied pass with the pass name and the program it
/// produced. exec::compile_ilir hooks the static verifier
/// (ilir/verify.hpp) in here, so a pass
/// that emits ill-formed IR is attributed to the pass, not to whatever
/// downstream consumer happens to trip over it first.
using PassObserver =
    std::function<void(const std::string& pass, const Program& after)>;

/// Which schedule-driven passes to run; mirrors the ra::Schedule knobs.
struct PipelineConfig {
  bool fuse = false;              ///< fusion trio (fuse/forward/DSE)
  bool dense_index = false;       ///< §5.1 dense indexing of intermediates
  bool peel = false;              ///< §A.5 variable-loop peeling
  std::int64_t peel_factor = 4;
  bool improved_barriers = true;  ///< §A.4 placement (false = TVM-style)
  std::vector<std::string> live_out;
};

/// Runs the standard pass pipeline in its canonical order — fusion trio,
/// dense indexing, peeling, barrier insertion — invoking `observe` after
/// each pass that actually ran. The pass names reported are the function
/// names ("fuse_elementwise_loops", ..., "insert_barriers").
Program apply_schedule_passes(Program p, const PipelineConfig& cfg,
                              const PassObserver& observe = nullptr);

}  // namespace cortex::ilir
