#pragma once
// Schedule auto-tuning by grid search (§6: the prototype "performed
// auto-tuning via grid search to search the space of certain schedule
// parameters"; full auto-scheduling is future work the paper defers to
// the Halide/TVM literature). The tuner enumerates every legal
// combination of the recursion scheduling primitives and ILIR knobs,
// evaluates each on a representative linearized workload under the
// deterministic device model, and returns the argmin.

#include <string>
#include <vector>

#include "exec/plan.hpp"
#include "linearizer/linearizer.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {

struct TuneResult {
  ra::Schedule best;
  double best_latency_ms = 0.0;
  /// Every evaluated (schedule, latency) pair, best first.
  std::vector<std::pair<ra::Schedule, double>> trials;

  std::string summary() const;
};

/// Grid-searches the schedule space for `def` on `spec`, scoring each
/// legal schedule's modeled latency on `lin` (linearization time is
/// excluded — it is schedule-independent). Illegal combinations (DAG
/// unroll/refactor, unroll+persistence) are skipped, mirroring
/// validate_schedule.
TuneResult autotune(const models::ModelDef& def,
                    const linearizer::Linearized& lin,
                    const runtime::DeviceSpec& spec);

}  // namespace cortex::exec
