#include "exec/plan_cache.hpp"

#include <cstdlib>
#include <optional>
#include <string>

#include "exec/memory_plan.hpp"
#include "ilir/passes.hpp"
#include "ilir/verify.hpp"
#include "runtime/profiler.hpp"
#include "support/logging.hpp"

namespace cortex::exec {

CompiledArtifacts compile_artifacts(const models::ModelDef& def,
                                    const ra::Schedule& schedule,
                                    const runtime::DeviceSpec& spec) {
  CompiledArtifacts a;
  def.cell.validate();
  a.plan = build_plan(def, schedule, spec);
  if (def.model) {
    // lower() verifies P.1-P.3 and validates the schedule against the
    // model; the lowered program is the compiler's ILIR artifact.
    lowering::LoweredModel lm = lowering::lower(*def.model, schedule);
    // Apply the schedule's ILIR-level optimizations to produce the
    // target program (what codegen_c would emit for the device). Under
    // CORTEX_ILIR_VERIFY, the static verifier (def-use, bounds, barrier
    // and scope legality) runs on the lowered program and after every
    // pass, so the first pass to emit ill-formed IR is the one blamed.
    ilir::PassObserver observe;
    MemoryPlanOptions mp_opts;
    mp_opts.live_out = {lm.output};
    if (ilir::verify_enabled()) {
      ilir::verify_or_throw(lm.program, "lower");
      observe = [mp_opts](const std::string& pass,
                          const ilir::Program& after) {
        ilir::VerifyOptions opt;
        // Barrier-presence legality only holds once barriers exist.
        opt.require_barriers = pass == "insert_barriers";
        ilir::verify_or_throw(after, pass, opt);
        // Re-plan and re-prove the memory plan after every pass: a pass
        // that moves or widens buffer lifetimes must still yield an
        // overlap-free, in-bounds arena assignment.
        verify_memory_plan_or_throw(after, plan_memory(after, mp_opts),
                                    pass, mp_opts);
      };
    }
    ilir::PipelineConfig cfg;
    cfg.fuse = schedule.fusion == ra::FusionLevel::kMaximal;
    cfg.dense_index =
        schedule.dense_intermediates && schedule.dynamic_batching;
    cfg.peel = schedule.loop_peeling && schedule.dynamic_batching;
    cfg.improved_barriers = schedule.improved_barrier_placement;
    cfg.live_out = {lm.output};
    a.optimized = ilir::apply_schedule_passes(lm.program, cfg, observe);
    // The memory plan of the final optimized program rides in the plan:
    // run_ilir binds buffers at its offsets, and a kernel JitCache builds
    // for this program bakes them into generated code.
    auto mem = std::make_shared<MemoryPlan>(plan_memory(*a.optimized, mp_opts));
    if (ilir::verify_enabled())
      verify_memory_plan_or_throw(*a.optimized, *mem, "final", mp_opts);
    a.plan.ilir_memory = std::move(mem);
    a.lowered = std::move(lm);
  } else {
    // Cell-only models (the sequential Fig. 9 cells) still respect the
    // Appendix-D register-pressure constraint.
    CORTEX_CHECK(!(schedule.unroll_depth > 1 && schedule.persistence))
        << "unrolling precludes persistence (Appendix D)";
  }
  return a;
}

PlanCache& PlanCache::instance() {
  static PlanCache* cache = new PlanCache();  // never destroyed: engines
  return *cache;  // on other threads may outlive static teardown
}

PlanCache::PlanCache() {
  const Config cfg = config_from_env(std::getenv("CORTEX_PLAN_CACHE"),
                                     std::getenv("CORTEX_PLAN_CACHE_CAPACITY"));
  enabled_ = cfg.enabled;
  capacity_ = cfg.capacity;
}

PlanCache::Config PlanCache::config_from_env(const char* enabled_value,
                                             const char* capacity_value) {
  Config cfg;
  if (enabled_value != nullptr && std::string(enabled_value) == "0")
    cfg.enabled = false;
  if (capacity_value != nullptr) {
    char* end = nullptr;
    const long long cap = std::strtoll(capacity_value, &end, 10);
    if (end != capacity_value && *end == '\0' && cap > 0)
      cfg.capacity = static_cast<std::int64_t>(cap);
  }
  return cfg;
}

support::Fingerprint PlanCache::key_for(const models::ModelDef& def,
                                        const ra::Schedule& schedule,
                                        const runtime::DeviceSpec& spec) {
  support::FingerprintBuilder fb;
  fb.tag('K');
  models::fingerprint(def, fb);
  ra::fingerprint(schedule, fb);
  runtime::fingerprint(spec, fb);
  return fb.finish();
}

ArtifactsPtr PlanCache::get_or_compile(
    const support::Fingerprint& key,
    const std::function<CompiledArtifacts()>& compile) {
  std::shared_future<ArtifactsPtr> wait_on;
  // Constructed only on the owning (cold-miss) path: a promise allocates
  // shared state, and the warm hit should stay a fingerprint + lookup.
  std::optional<std::promise<ArtifactsPtr>> promise;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) {
      // Fall through to the uncached compile below.
    } else {
      // Classify the lookup here, under the same lock, whatever path it
      // takes — warm hit, single-flight waiter (a hit: it compiles
      // nothing), or compiling miss — so a concurrent stats() snapshot
      // can never observe hits + misses != lookups, even mid-compile.
      ++stats_.lookups;
      const auto it = map_.find(key);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
        ++stats_.hits;
        stats_.compile_ns_saved += it->second->second->compile_ns;
        return it->second->second;
      }
      const auto fit = inflight_.find(key);
      if (fit != inflight_.end()) {
        ++stats_.hits;
        wait_on = fit->second;
      } else {
        ++stats_.misses;
        promise.emplace();
        inflight_.emplace(key,
                          std::shared_future<ArtifactsPtr>(
                              promise->get_future()));
      }
    }
  }

  if (wait_on.valid()) {
    // Another thread is compiling this key: block on its result (already
    // counted as a hit above — this caller compiles nothing). get()
    // rethrows compile errors. No compile_ns_saved credit: the waiter
    // blocked for the whole compile, so no wall-clock time was actually
    // avoided.
    return wait_on.get();
  }

  if (!promise)  // cache disabled: compile directly, cache & count nothing
    return std::make_shared<const CompiledArtifacts>(compile());

  try {
    const std::int64_t t0 = runtime::now_ns();
    CompiledArtifacts compiled = compile();
    compiled.compile_ns = static_cast<double>(runtime::now_ns() - t0);
    ArtifactsPtr shared =
        std::make_shared<const CompiledArtifacts>(std::move(compiled));
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
      lru_.emplace_front(key, shared);
      map_[key] = lru_.begin();
      evict_to_capacity_locked();
    }
    promise->set_value(shared);
    return shared;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
    }
    promise->set_exception(std::current_exception());
    throw;
  }
}

void PlanCache::evict_to_capacity_locked() {
  if (capacity_ <= 0) return;
  while (static_cast<std::int64_t>(lru_.size()) > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void PlanCache::set_capacity(std::int64_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity < 0 ? 0 : capacity;
  evict_to_capacity_locked();
}

std::int64_t PlanCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

bool PlanCache::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void PlanCache::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

std::int64_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(lru_.size());
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  stats_ = PlanCacheStats{};
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cortex::exec
