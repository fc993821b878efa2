#pragma once
// The immutable products of engine compilation, shared between
// CortexEngine (exec/engine.hpp) and the process-wide plan cache
// (exec/plan_cache.hpp). Split out so engine.hpp — included by nearly
// every test/bench/example TU — does not drag in the cache's
// <future>/<mutex>/map machinery.

#include <memory>
#include <optional>

#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {

/// Everything CortexEngine construction compiles, immutable once cached:
/// the lowered model, and nothing that depends on the device. `lowered`
/// is empty for cell-only models (no RA def). Holds no launch plan,
/// optimized ILIR, memory plan or native kernel: serving runs the batched
/// cell executor, and the offline tools build those on demand
/// (the cost model in exec/cost_model.hpp, exec::compile_ilir in
/// exec/ilir_runner.hpp, exec/jit.hpp).
struct CompiledArtifacts {
  /// lower()'s output; serving reads only its linearizer spec.
  std::optional<lowering::LoweredModel> lowered;
  /// Wall-clock cost of the cold compile that produced this entry (what a
  /// hit saves; feeds PlanCacheStats::compile_ns_saved).
  double compile_ns = 0.0;
};

using ArtifactsPtr = std::shared_ptr<const CompiledArtifacts>;

/// Compiles (def, schedule) from scratch: validates the cell and, for RA
/// models, lowers the model (the P.1-P.3 and schedule-legality check).
/// This is the cold path PlanCache::get_or_compile invokes; it throws
/// cortex::Error on P.1-P.3 violations and illegal schedules, and nothing
/// is cached on a throw.
CompiledArtifacts compile_artifacts(const models::ModelDef& def,
                                    const ra::Schedule& schedule);

}  // namespace cortex::exec
