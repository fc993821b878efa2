#pragma once
// Process-wide plan cache: compile once, run everywhere.
//
// Cortex's premise (§4) is that recursive-model compilation happens ahead
// of time, so the run loop touches only linearization and kernel
// launches. The cache makes engine *construction* match that premise:
// compiled artifacts (the lowered model) are keyed on a structural
// fingerprint of (ModelDef, Schedule) and shared, immutably, by every
// CortexEngine constructed for an identical pair — across threads. A
// cold miss verifies and lowers; a warm hit skips both and bumps the
// entry in the LRU order. It caches only what serving reads: the
// modeled kernel launches are the offline cost model's
// (exec/cost_model.hpp), and the optimized ILIR and its memory plan are
// exec::compile_ilir's, both built on demand by offline callers.
// Neither parameter values nor the device are part of the key: artifacts
// are weight- and device-independent, so engines with different weights,
// or built for different devices, share one entry.
//
// Concurrency: lookups and insertions take one mutex; compilation runs
// outside it under a single-flight guard, so M threads racing on the same
// key produce exactly one compile (one miss) and M-1 hits that block on
// the in-flight result. Artifacts are handed out as shared_ptr-to-const;
// eviction never invalidates a pointer an engine already holds.
//
// Controls: the cache starts enabled and unbounded; set_enabled,
// set_capacity and clear adjust it (tests and benches use them).

#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "exec/artifacts.hpp"
#include "models/model_zoo.hpp"
#include "ra/schedule.hpp"
#include "support/fingerprint.hpp"

namespace cortex::exec {

/// Counter snapshot returned by PlanCache::stats(). Every counter is
/// mutated under the cache mutex and classified at lookup time, so any
/// snapshot — including one taken mid-compile while other threads race
/// get_or_compile — satisfies `hits + misses == lookups`. A single-flight
/// waiter is classified a hit when it *joins* the in-flight compile (it
/// compiles nothing), not when the compile finishes; symmetrically a
/// failed compile stays counted as a miss (and its waiters as hits) even
/// though nothing was cached.
struct PlanCacheStats {
  /// Enabled-cache get_or_compile calls (disabled calls count nothing).
  std::int64_t lookups = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  /// Sum over warm (already-cached) hits of the hit entry's compile_ns:
  /// compile wall-clock time actually avoided. Single-flight waiters are
  /// hits but add nothing — they blocked for the compile they "shared".
  double compile_ns_saved = 0.0;
};

class PlanCache {
 public:
  /// The process-wide instance every CortexEngine constructor consults.
  static PlanCache& instance();

  /// The cache key: canonical structural fingerprint of everything
  /// compilation reads (see the per-layer fingerprint() overloads).
  static support::Fingerprint key_for(const models::ModelDef& def,
                                      const ra::Schedule& schedule);

  /// Returns the artifacts for `key`, invoking `compile` on a miss.
  /// Concurrent callers with one key share a single in-flight compile
  /// (exactly one miss); waiters count as hits. Exceptions from `compile`
  /// propagate to every waiter and nothing is cached. When disabled,
  /// compiles directly with no caching and no stats.
  ArtifactsPtr get_or_compile(
      const support::Fingerprint& key,
      const std::function<CompiledArtifacts()>& compile);

  /// LRU capacity bound; 0 = unbounded (the default). Shrinking evicts
  /// least-recently-used entries immediately.
  void set_capacity(std::int64_t capacity);
  std::int64_t capacity() const;

  bool enabled() const;
  void set_enabled(bool on);

  /// Cached entry count (in-flight compiles excluded).
  std::int64_t size() const;

  /// Drops every entry and zeroes the stats (tests; in-flight compiles
  /// finish and insert normally).
  void clear();

  PlanCacheStats stats() const;

 private:
  PlanCache() = default;

  /// Front = most recently used.
  using LruList = std::list<std::pair<support::Fingerprint, ArtifactsPtr>>;

  void evict_to_capacity_locked();

  mutable std::mutex mu_;
  bool enabled_ = true;
  std::int64_t capacity_ = 0;
  LruList lru_;
  std::unordered_map<support::Fingerprint, LruList::iterator,
                     support::FingerprintHash>
      map_;
  std::unordered_map<support::Fingerprint, std::shared_future<ArtifactsPtr>,
                     support::FingerprintHash>
      inflight_;
  PlanCacheStats stats_;
};

}  // namespace cortex::exec
