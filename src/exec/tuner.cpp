#include "exec/tuner.hpp"

#include <algorithm>
#include <sstream>

#include "exec/cost_model.hpp"

namespace cortex::exec {

std::string TuneResult::summary() const {
  std::ostringstream os;
  os << "best " << ra::to_string(best) << " at " << best_latency_ms
     << " ms over " << trials.size() << " trials";
  return os.str();
}

TuneResult autotune(const models::ModelDef& def,
                    const linearizer::Linearized& lin,
                    const runtime::DeviceSpec& spec) {
  def.cell.validate();
  const bool is_dag = def.kind() == linearizer::StructureKind::kDag;

  TuneResult result;
  for (const bool batching : {true, false}) {
    for (const bool specialize : {true, false}) {
      for (const auto fusion :
           {ra::FusionLevel::kMaximal, ra::FusionLevel::kNone}) {
        for (const bool persist : {true, false}) {
          for (const std::int64_t unroll : {1ll, 2ll, 4ll}) {
            for (const bool refactor : {false, true}) {
              if (is_dag && (unroll > 1 || refactor)) continue;
              if (unroll > 1 && persist) continue;  // Appendix D
              ra::Schedule s;
              s.dynamic_batching = batching;
              s.specialize_leaves = specialize;
              s.fusion = fusion;
              s.persistence = persist;
              s.unroll_depth = unroll;
              s.refactor = refactor;
              // Deterministic score: modeled device time only.
              result.trials.emplace_back(
                  s, model_cost(build_plan(def, s, spec), s, def.cell, spec,
                                lin, 0.0)
                         .modeled_latency_ms());
            }
          }
        }
      }
    }
  }
  CORTEX_CHECK(!result.trials.empty()) << "empty schedule space";
  std::sort(result.trials.begin(), result.trials.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  result.best = result.trials.front().first;
  result.best_latency_ms = result.trials.front().second;
  return result;
}

}  // namespace cortex::exec
