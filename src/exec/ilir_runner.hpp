#pragma once
// The offline ILIR tools: compile_ilir builds the optimized program and
// its memory plan for one (model, schedule), and run_ilir executes it.
// Serving never calls either (the engine runs the batched cell executor,
// exec/engine.hpp); tests, benches and examples do.
//
// run_ilir is the reference execution of ILIR programs: it allocates
// every program buffer (resolving symbolic extents against a linearized
// structure), binds model parameters and the linearizer arrays, and
// interprets the program with the ILIR evaluator. This is the semantic
// ground truth the execution engine and all scheduling transformations
// are validated against in tests, and what the examples use to show the
// pipeline end to end.
//
// Buffer storage comes from the static memory planner
// (exec/memory_plan.hpp): one zero-filled arena allocation per run, each
// buffer a view at its precomputed slot offset, so buffers with disjoint
// live ranges share bytes. Each call allocates its own arena, so
// concurrent runs never share storage. A buffer the plan has no entry
// for gets its own Tensor::zeros, so passing an empty MemoryPlan gives
// the per-buffer reference allocator; both are bit-identical on every
// buffer that is live at program exit.

#include <map>
#include <string>

#include "exec/memory_plan.hpp"
#include "ilir/eval.hpp"
#include "ilir/ilir.hpp"
#include "linearizer/linearizer.hpp"
#include "lowering/lower.hpp"
#include "models/cell.hpp"

namespace cortex::exec {

class JitKernel;

struct CompiledIlir {
  lowering::LoweredModel lowered;
  /// After the schedule's passes: fusion + store forwarding + dead-store
  /// elimination, dense indexing (§5.1), peeling (§A.5) and barrier
  /// insertion (§A.4). What codegen_c renders as the target kernel.
  ilir::Program optimized;
  /// Plan of `optimized` with the recursion output live at exit.
  MemoryPlan memory;
};

/// Lowers `model` under `schedule` (throws cortex::Error on P.1-P.3
/// violations and illegal schedules), runs the schedule's pass pipeline
/// and plans the final program's memory. The verifiers check the lowered
/// program, the program and a fresh memory plan after every pass (so the
/// first bad pass is the one blamed), and the returned plan.
CompiledIlir compile_ilir(const ra::Model& model, const ra::Schedule& schedule);

struct IlirRun {
  /// Every non-parameter buffer allocated for the run, keyed by name;
  /// includes the recursion output. Under the arena path these are views
  /// into one shared allocation (reused scratch buffers alias bytes).
  std::map<std::string, Tensor> buffers;
  /// Barriers executed by the evaluator (validates §A.4 placement).
  std::int64_t barriers = 0;

  /// Bytes actually allocated for program buffers this run: the arena
  /// size plus any unplanned buffers (the per-buffer sum under an empty
  /// plan).
  std::int64_t arena_bytes = 0;
  /// Sum of the individual buffer byte sizes (what per-buffer allocation
  /// would cost); arena_bytes / sum_buffer_bytes is the reuse ratio.
  std::int64_t sum_buffer_bytes = 0;
  /// Buffers bound into a slot shared with at least one other buffer.
  std::int64_t buffers_reused = 0;
  /// The run executed IlirRunOptions::jit instead of the interpreter.
  bool ran_jit = false;

  const Tensor& at(const std::string& name) const;
};

struct IlirRunOptions {
  /// Precomputed plan (e.g. CompiledIlir::memory). When null, run_ilir
  /// plans the program itself. An empty MemoryPlan plans nothing: every
  /// buffer gets dedicated storage.
  const MemoryPlan* plan = nullptr;
  /// Compiled kernel for this program (exec::build_kernel). When set, the
  /// run executes the kernel instead of the interpreter over the same
  /// buffer storage. run_ilir throws unless `program` is the one the
  /// kernel was built from and, for a kernel built against a memory plan,
  /// this run's plan is that same plan (an empty one throws too).
  const JitKernel* jit = nullptr;
};

/// Interprets `program` against `lin`, binding parameter buffers from
/// `params` by name and allocating (zeroed) storage for everything else.
/// Symbolic buffer extents (N, max_batch_size, ...) resolve against the
/// linearized structure.
IlirRun run_ilir(const ilir::Program& program,
                 const linearizer::Linearized& lin,
                 const models::ModelParams& params,
                 const IlirRunOptions& opts);
IlirRun run_ilir(const ilir::Program& program,
                 const linearizer::Linearized& lin,
                 const models::ModelParams& params);

}  // namespace cortex::exec
