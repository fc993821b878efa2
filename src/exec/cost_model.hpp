#pragma once
// Modeled device cost of one Cortex inference: kernel launches, off-chip
// traffic, barriers and peak device memory on the analytical device model
// (runtime::Device), per DESIGN.md §2's GPU substitution. It stands in
// for the paper's hardware, so only the paper's figures and the schedule
// tuner need it: the paper-figure benches, bench_engine_pool, the examples
// and exec::autotune call model_cost offline. Served runs (CortexEngine,
// EnginePool, BatchServer) never build a device model and report measured
// numbers only. Every counter is a pure function of the launch plan, the
// schedule, the cell and the linearization, so model_cost is
// deterministic and runs no numerics. The launch plan (exec/plan.hpp) is
// built here, offline, not by engine construction.

#include "exec/engine.hpp"
#include "exec/plan.hpp"

namespace cortex::exec {

/// Models one inference of `cell`, compiled to `plan` under `schedule` for
/// `spec`, over `lin`. The result holds the modeled profiler counters and
/// the modeled peak device memory (the linearized arrays, N x
/// state_width floats of node states, and per-step intermediates under
/// FusionLevel::kNone), and no root states. `linearization_ns` is the
/// host time the caller measured linearizing `lin`; it is copied into the
/// profiler, so Profiler::modeled_latency_ns() counts it like the paper's
/// end-to-end latencies do. An empty linearization models nothing.
runtime::RunResult model_cost(const Plan& plan, const ra::Schedule& schedule,
                              const models::CellProgram& cell,
                              const runtime::DeviceSpec& spec,
                              const linearizer::Linearized& lin,
                              double linearization_ns);

/// model_cost for the model, schedule and device `engine` was built for:
/// builds their launch plan (build_plan) and models `lin` under it.
runtime::RunResult model_cost(const CortexEngine& engine,
                              const linearizer::Linearized& lin,
                              double linearization_ns);

}  // namespace cortex::exec
