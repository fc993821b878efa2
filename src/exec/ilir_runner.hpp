#pragma once
// Reference execution of lowered ILIR programs: allocates every program
// buffer (resolving symbolic extents against a linearized structure),
// binds model parameters and the linearizer arrays, and interprets the
// program with the ILIR evaluator. This is the semantic ground truth the
// execution engine and all scheduling transformations are validated
// against in tests, and what the examples use to show the pipeline end
// to end.
//
// Buffer storage comes from the static memory planner
// (exec/memory_plan.hpp) by default: one zero-filled arena allocation
// per run, each buffer a view at its precomputed slot offset, so buffers
// with disjoint live ranges share bytes. Each call allocates its own
// arena, so concurrent runs (EnginePool workers, ThreadPool shards)
// never share storage. CORTEX_MEMPLAN=0 falls back to the historical
// per-buffer Tensor::zeros allocator; both paths are bit-identical on
// every buffer that is live at program exit.

#include <map>
#include <string>

#include "exec/memory_plan.hpp"
#include "ilir/eval.hpp"
#include "ilir/ilir.hpp"
#include "linearizer/linearizer.hpp"
#include "models/cell.hpp"

namespace cortex::runtime {
struct Profiler;
}

namespace cortex::exec {

struct MemoryPlan;
class JitKernel;

struct IlirRun {
  /// Every non-parameter buffer allocated for the run, keyed by name;
  /// includes the recursion output. Under the arena path these are views
  /// into one shared allocation (reused scratch buffers alias bytes).
  std::map<std::string, Tensor> buffers;
  /// Barriers executed by the evaluator (validates §A.4 placement).
  std::int64_t barriers = 0;

  /// Bytes actually allocated for program buffers this run: the arena
  /// size under the planner, the per-buffer sum under CORTEX_MEMPLAN=0.
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
  /// Precomputed plan (e.g. Plan::ilir_memory from compile_artifacts).
  /// When null and the planner is enabled, run_ilir plans the program
  /// itself.
  const MemoryPlan* plan = nullptr;
  /// When set, the run adds arena/reuse counters to this profiler.
  runtime::Profiler* profiler = nullptr;
  /// Compiled kernel for this program (JitCache::get_or_build). When
  /// set, the run executes the kernel instead of the interpreter over the
  /// same buffer storage; a kernel built against a memory plan needs that
  /// plan here and throws under CORTEX_MEMPLAN=0. CORTEX_JIT_CHECK=1 runs
  /// BOTH paths and requires bit-identical buffers and barrier counts
  /// (the interpreter as differential oracle).
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
