#pragma once
// JIT execution of optimized ILIR programs: render the program as C
// (ilir/codegen_c.hpp), compile it with the system toolchain, dlopen the
// shared object, and hand run_ilir a function pointer (popart's
// graph-build/device-binary split for the disk half). This is an offline
// tool, not a serving path: CortexEngine serves through the batched cell
// executor, which bench_jit measures an order of magnitude faster than
// the kernel on the Fig. 9 SeqLSTM / TreeLSTM / DAG-RNN configurations
// at batch {1, 8, 64}. Nothing builds a kernel unless a caller asks
// JitCache::get_or_build for one. Two layers of caching:
//   1. in-process registry keyed by the canonical fingerprint of
//      (abi, compiler command, program, memory plan) — repeated asks
//      share one dlopen'd handle,
//   2. on-disk artifacts (<cache_dir>/cx_<digest>.c + .so): a second
//      process with the same fingerprint dlopens the persisted .so with
//      ZERO compiler invocations (JitStats::compiles stays 0, disk_hits
//      counts the reuse). Staleness is decided by source comparison: the
//      cache regenerates the C and only reuses the .so when the on-disk
//      source matches byte-for-byte, so a codegen change (or fingerprint
//      collision) can never resurrect a stale kernel.
//
// Safety posture (first release): the ILIR static verifier and the
// memory-plan verifier run on EVERY kernel build or disk reuse regardless
// of CORTEX_ILIR_VERIFY — a dlopen'd kernel executes whatever the pass
// pipeline emitted with no interpreter bounds checks, so it never runs
// unverified IR. The interpreter stays the differential oracle:
// CORTEX_JIT_CHECK=1 makes run_ilir execute both paths and require
// bit-identical buffers and barrier counts.
//
// Integrity: every published .so carries a sidecar (<lib>.sig) holding a
// digest of the shared object's bytes. The disk-reuse path recomputes the
// digest before dlopening; a truncated or corrupted artifact (or a
// missing sidecar — a crash between publish and sign) is *quarantined* —
// renamed aside for forensics, never deleted, never loaded — and the
// kernel is recompiled. A wrong answer can never come off disk: the
// source must match byte-for-byte AND the object must match its digest.
//
// Failure: get_or_build throws cortex::Error on any verification,
// toolchain, publish or load failure (JitStats::failures counts them). A
// failed build strands no file in the cache directory and records no
// state, so the next ask simply tries again. The cache has no fallback of
// its own: a caller without a kernel runs the interpreter, which is
// bit-identical by the oracle contract above.
//
// Fault-injection sites (support/fault_injection.hpp): jit.cc (toolchain
// exit), jit.dlopen, jit.disk.write, jit.disk.rename, cache.read
// (corrupt disk-reuse read). Each forces the exact production failure
// branch, so the quarantine and cleanup paths above are testable on
// demand.
//
// run_ilir runs a kernel exactly when IlirRunOptions::jit is set. Knobs
// (read per call, so tests can flip them):
//   CORTEX_JIT_CHECK      also interpret and compare bitwise
//   CORTEX_JIT_CACHE_DIR  artifact directory (default /tmp/cortex-jit-<uid>)
//   CORTEX_JIT_CC         compiler command (default "cc")

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/memory_plan.hpp"
#include "ilir/ilir.hpp"
#include "support/fingerprint.hpp"

namespace cortex::exec {

/// Cumulative build accounting (process-wide; see JitCache::stats).
struct JitStats {
  std::int64_t compiles = 0;     ///< toolchain invocations (cold builds)
  std::int64_t disk_hits = 0;    ///< persisted .so reused without compiling
  std::int64_t memory_hits = 0;  ///< in-process registry hits
  std::int64_t failures = 0;     ///< verify/compile/load failures
  /// On-disk artifacts renamed aside: integrity-digest mismatch, missing
  /// sidecar, stale source next to a published object, or a dlopen
  /// failure on reuse. Each quarantine is followed by a recompile.
  std::int64_t quarantined = 0;
  double compile_ns = 0.0;  ///< wall time inside the toolchain
};

/// One dlopen'd kernel; immutable once built, closed on destruction.
class JitKernel {
 public:
  /// The cortex-jit-abi 1 signature (ilir/codegen_c.hpp documents the
  /// argument tables).
  using Fn = void (*)(float* arena, const std::int64_t* slot_offsets,
                      float* const* params, const std::int32_t* const* lin,
                      const std::int64_t* scalars, std::int64_t* counters);

  ~JitKernel();
  JitKernel(const JitKernel&) = delete;
  JitKernel& operator=(const JitKernel&) = delete;

  Fn fn() const { return fn_; }
  /// Float buffers the kernel expects in params[], in table order.
  const std::vector<std::string>& params_order() const {
    return params_order_;
  }
  const std::string& symbol() const { return symbol_; }
  const std::string& library_path() const { return library_path_; }
  /// Built against a memory plan: run_ilir must supply the arena +
  /// resolved slot offsets of that plan.
  bool has_arena() const { return has_arena_; }
  /// Reused from a persisted artifact (no toolchain invocation).
  bool from_disk() const { return from_disk_; }

 private:
  friend class JitCache;
  JitKernel() = default;
  /// dlopens `lib` and resolves `symbol`; throws cortex::Error on either
  /// failure.
  void open(const std::string& lib, const std::string& symbol);

  void* handle_ = nullptr;
  Fn fn_ = nullptr;
  std::vector<std::string> params_order_;
  std::string symbol_;
  std::string library_path_;
  bool has_arena_ = false;
  bool from_disk_ = false;
};

using JitKernelPtr = std::shared_ptr<const JitKernel>;

/// Process-wide kernel registry + on-disk artifact store.
class JitCache {
 public:
  static JitCache& instance();

  /// Returns the kernel for (program, plan), building and persisting it
  /// if needed. Verification is forced (see header comment); throws
  /// cortex::Error on verification or toolchain failure. `plan_opts`
  /// carries the live-out set the plan was computed with so the plan
  /// verifier re-proves the exact plan.
  JitKernelPtr get_or_build(const ilir::Program& program,
                            const MemoryPlan* plan,
                            const MemoryPlanOptions& plan_opts = {});

  JitStats stats() const;
  void reset_stats();
  /// Drops the in-process registry (disk artifacts stay): the next
  /// get_or_build must take the disk path, which is how tests prove a
  /// "second process" reuses persisted artifacts with zero compiles.
  void clear_memory();
  /// Artifact directory currently in effect (created lazily on build).
  static std::string cache_dir();

 private:
  JitCache() = default;

  JitKernelPtr lookup_memory(const support::Fingerprint& key);
  /// Disk reuse or toolchain build of a verified program; throws on
  /// failure. Runs outside mu_ (compiles are slow).
  JitKernelPtr build_locked_out(const support::Fingerprint& key,
                                const ilir::Program& program,
                                const MemoryPlan* plan);

  mutable std::mutex mu_;
  std::unordered_map<support::Fingerprint, JitKernelPtr,
                     support::FingerprintHash>
      map_;
  JitStats stats_;
};

/// CORTEX_JIT_CHECK set, non-empty and != "0": run_ilir also interprets
/// and requires bitwise-identical results.
bool jit_check_enabled();
/// Compiler command: CORTEX_JIT_CC or "cc".
std::string jit_compiler();

}  // namespace cortex::exec
