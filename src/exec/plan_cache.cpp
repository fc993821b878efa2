#include "exec/plan_cache.hpp"

#include <optional>

#include "runtime/profiler.hpp"
#include "support/logging.hpp"

namespace cortex::exec {

CompiledArtifacts compile_artifacts(const models::ModelDef& def,
                                    const ra::Schedule& schedule) {
  CompiledArtifacts a;
  def.cell.validate();
  if (def.model) {
    // lower() verifies P.1-P.3 and validates the schedule against the
    // model; the engine reads the linearizer spec from its output. The
    // pass pipeline and memory planning are offline (exec::compile_ilir).
    a.lowered = lowering::lower(*def.model, schedule);
  } else {
    // Cell-only models (no RA definition) still respect the Appendix-D
    // register-pressure constraint.
    CORTEX_CHECK(!(schedule.unroll_depth > 1 && schedule.persistence))
        << "unrolling precludes persistence (Appendix D)";
  }
  return a;
}

PlanCache& PlanCache::instance() {
  static PlanCache* cache = new PlanCache();  // never destroyed: engines
  return *cache;  // on other threads may outlive static teardown
}

support::Fingerprint PlanCache::key_for(const models::ModelDef& def,
                                        const ra::Schedule& schedule) {
  support::FingerprintBuilder fb;
  fb.tag('K');
  models::fingerprint(def, fb);
  ra::fingerprint(schedule, fb);
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
