#pragma once
// The immutable products of engine compilation, shared between
// CortexEngine (exec/engine.hpp) and the process-wide plan cache
// (exec/plan_cache.hpp). Split out so engine.hpp — included by nearly
// every test/bench/example TU — does not drag in the cache's
// <future>/<mutex>/map machinery.

#include <memory>
#include <optional>

#include "exec/plan.hpp"
#include "ilir/ilir.hpp"
#include "lowering/lower.hpp"

namespace cortex::exec {

/// Everything CortexEngine construction compiles, immutable once cached.
/// `lowered`/`optimized` are empty for cell-only models (no RA def).
/// Holds no native kernel: serving runs the batched cell executor, and
/// exec/jit.hpp builds kernels only for callers that ask JitCache.
struct CompiledArtifacts {
  Plan plan;
  std::optional<lowering::LoweredModel> lowered;
  std::optional<ilir::Program> optimized;
  /// Wall-clock cost of the cold compile that produced this entry (what a
  /// hit saves; feeds PlanCacheStats::compile_ns_saved).
  double compile_ns = 0.0;
};

using ArtifactsPtr = std::shared_ptr<const CompiledArtifacts>;

/// Compiles (def, schedule, spec) from scratch: validates the cell,
/// builds the launch plan, and for RA models lowers + runs the schedule's
/// ILIR optimization passes (fusion, store forwarding, DSE, dense
/// indexing, peeling, barrier insertion). This is the cold path
/// PlanCache::get_or_compile invokes; it throws cortex::Error on P.1-P.3
/// violations and illegal schedules, and nothing is cached on a throw.
CompiledArtifacts compile_artifacts(const models::ModelDef& def,
                                    const ra::Schedule& schedule,
                                    const runtime::DeviceSpec& spec);

}  // namespace cortex::exec
