#pragma once
// ILIR static verifier: a machine-checked well-formedness contract
// between optimization passes. The pass pipeline rewrites whole Programs
// (fusion, store forwarding, DSE, dense indexing, peeling, barrier
// insertion); before this pass existed, a transform that dropped a `let`,
// mis-indexed a densified buffer or misplaced a barrier was only caught
// if a numeric differential test happened to diverge. The verifier pins
// each pass to preserve four invariant families statically:
//
//   def-use   every variable in every expression is bound by an enclosing
//             kFor / kLet / kSum axis or declared as a runtime parameter
//             (Program::params); every load/store names a declared
//             buffer; no binding shadows another in the same nest.
//   bounds    interval analysis over loop min/extent, let values and the
//             dim_extents registry proves direct (non-uninterpreted-
//             function) indices in range; a provably negative or
//             provably overflowing index is an error.
//   barrier   a buffer written inside one iteration of a
//             carries_dependence loop and read by later iterations
//             through an indirect index must be separated by a kBarrier
//             when the loop body runs in parallel (§A.4), and every
//             barrier must sit on a dependence-carrying or node loop.
//   scope     kRegister/kShared buffers must not be live across a
//             barrier and must not escape the dependence/node-loop nest
//             that produces them (§5.1 dense indexing gives them
//             one-iteration lifetimes).
//
// Diagnostics are collected, not first-thrown: one verify() call reports
// every violation with a statement path, sharing support::Diagnostic
// with ra::verify_properties and the bounds/named-dimension checkers.

#include <string>
#include <vector>

#include "ilir/ilir.hpp"
#include "support/diagnostic.hpp"

namespace cortex::ilir {

struct VerifyOptions {
  /// Enforce barrier presence on dependence-carrying parallel loops.
  /// Off until insert_barriers has run (earlier pipeline stages are
  /// legitimately barrier-free); exec::compile_ilir turns it on for
  /// the post-barrier-insertion program.
  bool require_barriers = false;
  /// Additional free symbols to accept beyond Program::params (used by
  /// tests exercising hand-built fragments).
  std::vector<std::string> extra_symbols;
};

/// Runs every check and returns all findings (empty means well-formed).
std::vector<support::Diagnostic> verify(const Program& program,
                                        const VerifyOptions& options = {});

/// Throws cortex::Error listing every error-severity diagnostic,
/// prefixed with the pipeline phase ("lower", "fuse_elementwise_loops",
/// ...) for attribution. No-op when the program is clean.
void verify_or_throw(const Program& program, const std::string& phase,
                     const VerifyOptions& options = {});

}  // namespace cortex::ilir
