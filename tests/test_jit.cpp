// JIT execution path (exec/jit.hpp): the zoo x schedule x batch-size
// differential battery (JIT'd kernels bit-identical to the interpreter on
// every buffer, with the static verifier forced on), kernel sharing
// through the in-process registry, on-disk artifact persistence (a
// "second process" — simulated by dropping the in-memory registry —
// reuses the .so with zero compiles), stale-source rebuilds,
// toolchain-failure surfacing, every JIT fault-injection site armed
// against JitCache::get_or_build, and the CORTEX_JIT_CHECK oracle mode.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/artifacts.hpp"
#include "exec/ilir_runner.hpp"
#include "exec/jit.hpp"
#include "exec/memory_plan.hpp"
#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"
#include "runtime/device.hpp"
#include "support/fault_injection.hpp"
#include "support/logging.hpp"

namespace cortex::exec {
namespace {

/// Guard: saves/restores one environment variable on scope exit.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    had_ = v != nullptr;
    if (had_) saved_ = v;
  }
  ~EnvGuard() {
    if (had_)
      setenv(name_.c_str(), saved_.c_str(), 1);
    else
      unsetenv(name_.c_str());
  }
  void set(const std::string& v) { setenv(name_.c_str(), v.c_str(), 1); }

 private:
  std::string name_;
  bool had_ = false;
  std::string saved_;
};

/// One private artifact directory for the whole test binary, so disk
/// counters are deterministic and parallel ctest jobs never share state.
const std::string& test_cache_dir() {
  static const std::string dir = [] {
    char tmpl[] = "/tmp/cortex-jit-test-XXXXXX";
    const char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    setenv("CORTEX_JIT_CACHE_DIR", d, 1);
    return std::string(d ? d : "/tmp/cortex-jit-test-fallback");
  }();
  return dir;
}

std::vector<models::ModelDef> zoo() {
  std::vector<models::ModelDef> defs;
  defs.push_back(models::make_treefc(16));
  defs.push_back(models::make_treefc_embed(16));
  defs.push_back(models::make_dagrnn(16));
  defs.push_back(models::make_treegru(16));
  defs.push_back(models::make_treegru_embed(16));
  defs.push_back(models::make_simple_treegru(16));
  defs.push_back(models::make_treelstm(16));
  defs.push_back(models::make_treelstm_embed(16));
  defs.push_back(models::make_mvrnn(8));
  defs.push_back(models::make_treernn(16));
  defs.push_back(models::make_treernn_fig1(16));
  defs.push_back(models::make_treernn_zeroleaf(16));
  defs.push_back(models::make_seq_lstm(16));
  defs.push_back(models::make_seq_gru(16));
  return defs;
}

std::vector<std::pair<std::string, ra::Schedule>> schedule_variants(
    bool dag_model) {
  std::vector<std::pair<std::string, ra::Schedule>> out;
  out.emplace_back("default", ra::Schedule{});
  out.emplace_back("unoptimized", ra::Schedule::unoptimized());
  out.emplace_back("cavs_comparable", ra::Schedule::cavs_comparable());
  {
    ra::Schedule s;
    s.dynamic_batching = false;
    out.emplace_back("no_dynamic_batching", s);
  }
  {
    ra::Schedule s;
    s.loop_peeling = false;
    out.emplace_back("no_peeling", s);
  }
  {
    ra::Schedule s;
    s.dense_intermediates = false;
    out.emplace_back("no_dense_indexing", s);
  }
  if (!dag_model) {
    ra::Schedule s;
    s.unroll_depth = 2;
    s.persistence = false;  // Appendix D
    out.emplace_back("unrolled", s);
  }
  return out;
}

linearizer::Linearized linearize_for(const models::ModelDef& def,
                                     const lowering::LoweredModel& lm,
                                     int batch, Rng& rng) {
  if (def.model->kind == linearizer::StructureKind::kDag) {
    std::vector<std::unique_ptr<ds::Dag>> dags;
    for (int b = 0; b < batch; ++b) dags.push_back(ds::make_grid_dag(4, 4, rng));
    return linearizer::linearize_dags(baselines::raw(dags), lm.lin_spec);
  }
  auto trees = ds::make_sst_like_batch(batch, rng);
  return linearizer::linearize_trees(baselines::raw(trees), lm.lin_spec);
}

void expect_runs_bit_identical(const IlirRun& jit, const IlirRun& interp,
                               const std::string& trace) {
  ASSERT_EQ(jit.barriers, interp.barriers) << trace;
  ASSERT_EQ(jit.buffers.size(), interp.buffers.size()) << trace;
  for (const auto& [name, tensor] : jit.buffers) {
    const Tensor& ref = interp.at(name);
    ASSERT_EQ(tensor.numel(), ref.numel()) << trace << " buffer " << name;
    EXPECT_EQ(std::memcmp(tensor.data(), ref.data(),
                          static_cast<std::size_t>(tensor.numel()) *
                              sizeof(float)),
              0)
        << trace << ": JIT diverged from interpreter in buffer " << name;
  }
}

/// Builds (or fetches) the kernel for compiled artifacts exactly as an
/// offline caller would: the optimized program plus its planned arena.
JitKernelPtr kernel_for(const CompiledArtifacts& a) {
  const MemoryPlanOptions mp_opts{{a.lowered->output}, {}};
  return JitCache::instance().get_or_build(
      *a.optimized, a.plan.ilir_memory.get(), mp_opts);
}

// -- the acceptance battery ---------------------------------------------------

TEST(JitDifferential, ZooTimesSchedulesTimesBatchesBitIdentical) {
  test_cache_dir();
  Rng rng(41);
  for (const models::ModelDef& def : zoo()) {
    if (!def.model) continue;
    const models::ModelParams params = models::init_params(def, rng);
    const bool dag = def.name == "DAG-RNN";
    for (const auto& [label, schedule] : schedule_variants(dag)) {
      SCOPED_TRACE(def.name + " / " + label);
      // Verification is forced inside get_or_build.
      const CompiledArtifacts a =
          compile_artifacts(def, schedule, runtime::DeviceSpec::v100_gpu());
      ASSERT_TRUE(a.optimized.has_value());
      const JitKernelPtr kernel = kernel_for(a);
      ASSERT_TRUE(kernel != nullptr);
      ASSERT_TRUE(kernel->fn() != nullptr);
      for (int batch : {1, 3}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        const linearizer::Linearized lin =
            linearize_for(def, *a.lowered, batch, rng);
        IlirRunOptions jit_opts;
        jit_opts.plan = a.plan.ilir_memory.get();
        jit_opts.jit = kernel.get();
        const IlirRun jit_run = run_ilir(*a.optimized, lin, params, jit_opts);
        ASSERT_TRUE(jit_run.ran_jit);
        IlirRunOptions interp_opts;
        interp_opts.plan = a.plan.ilir_memory.get();
        const IlirRun interp_run =
            run_ilir(*a.optimized, lin, params, interp_opts);
        expect_runs_bit_identical(jit_run, interp_run,
                                  def.name + " / " + label);
      }
    }
  }
}

TEST(JitDifferential, KernelWithoutMemoryPlanMatchesInterpreter) {
  test_cache_dir();
  Rng rng(43);
  const models::ModelDef def = models::make_treelstm(16);
  const models::ModelParams params = models::init_params(def, rng);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  // Build against no plan: every float buffer routes through params[].
  const JitKernelPtr kernel =
      JitCache::instance().get_or_build(lm.program, nullptr);
  ASSERT_TRUE(kernel != nullptr);
  EXPECT_FALSE(kernel->has_arena());
  const linearizer::Linearized lin = linearize_for(def, lm, 3, rng);
  IlirRunOptions jit_opts;
  jit_opts.jit = kernel.get();
  const IlirRun jit_run = run_ilir(lm.program, lin, params, jit_opts);
  const IlirRun interp_run = run_ilir(lm.program, lin, params);
  expect_runs_bit_identical(jit_run, interp_run, "no-plan kernel");
}

TEST(JitDifferential, CheckModeRunsBothPathsAndAgrees) {
  test_cache_dir();
  EnvGuard check_env("CORTEX_JIT_CHECK");
  check_env.set("1");
  Rng rng(47);
  const models::ModelDef def = models::make_treernn_fig1(16);
  const models::ModelParams params = models::init_params(def, rng);
  const CompiledArtifacts a =
      compile_artifacts(def, ra::Schedule{}, runtime::DeviceSpec::v100_gpu());
  const JitKernelPtr kernel = kernel_for(a);
  ASSERT_TRUE(kernel != nullptr);
  const linearizer::Linearized lin = linearize_for(def, *a.lowered, 3, rng);
  IlirRunOptions opts;
  opts.plan = a.plan.ilir_memory.get();
  opts.jit = kernel.get();
  const IlirRun run = run_ilir(*a.optimized, lin, params, opts);
  EXPECT_GT(run.barriers, 0);
  EXPECT_TRUE(run.ran_jit);
}

TEST(JitDifferential, PlanBuiltKernelWithoutPlannerThrows) {
  // A kernel bakes its memory plan's slot indices; with the planner off
  // there is no arena to hand it, and run_ilir refuses rather than
  // quietly interpreting (a set opts.jit always means the kernel runs).
  test_cache_dir();
  EnvGuard memplan_env("CORTEX_MEMPLAN");
  Rng rng(45);
  const models::ModelDef def = models::make_treernn_fig1(16);
  const models::ModelParams params = models::init_params(def, rng);
  const CompiledArtifacts a =
      compile_artifacts(def, ra::Schedule{}, runtime::DeviceSpec::v100_gpu());
  const JitKernelPtr kernel = kernel_for(a);
  ASSERT_TRUE(kernel->has_arena());
  const linearizer::Linearized lin = linearize_for(def, *a.lowered, 2, rng);
  IlirRunOptions opts;
  opts.plan = a.plan.ilir_memory.get();
  opts.jit = kernel.get();
  memplan_env.set("0");
  EXPECT_THROW(run_ilir(*a.optimized, lin, params, opts), cortex::Error);
}

// -- caching ------------------------------------------------------------------

TEST(JitCacheTest, RecompileSharesTheSameKernelHandle) {
  test_cache_dir();
  const models::ModelDef def = models::make_treegru(16);
  const CompiledArtifacts a1 =
      compile_artifacts(def, ra::Schedule{}, runtime::DeviceSpec::v100_gpu());
  const CompiledArtifacts a2 =
      compile_artifacts(def, ra::Schedule{}, runtime::DeviceSpec::v100_gpu());
  const JitKernelPtr k1 = kernel_for(a1);
  ASSERT_TRUE(k1 != nullptr);
  const JitStats before = JitCache::instance().stats();
  // Two independent compiles of one model produce programs with the same
  // fingerprint -> the registry returns the same dlopen'd kernel.
  EXPECT_EQ(kernel_for(a2).get(), k1.get());
  const JitStats after = JitCache::instance().stats();
  EXPECT_GE(after.memory_hits, before.memory_hits + 1);
}

TEST(JitCacheTest, DiskArtifactReusedWithZeroCompiles) {
  test_cache_dir();
  const models::ModelDef def = models::make_simple_treegru(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  const MemoryPlanOptions mp_opts{{lm.output}, {}};
  const MemoryPlan plan = plan_memory(lm.program, mp_opts);

  JitCache& cache = JitCache::instance();
  const JitKernelPtr first =
      cache.get_or_build(lm.program, &plan, mp_opts);
  ASSERT_TRUE(first != nullptr);

  // "Second process": drop the in-memory registry; the persisted .so must
  // satisfy the rebuild without invoking the toolchain.
  cache.clear_memory();
  const JitStats before = cache.stats();
  const JitKernelPtr second = cache.get_or_build(lm.program, &plan, mp_opts);
  const JitStats after = cache.stats();
  ASSERT_TRUE(second != nullptr);
  EXPECT_TRUE(second->from_disk());
  EXPECT_EQ(after.compiles, before.compiles);  // zero new compiles
  EXPECT_EQ(after.disk_hits, before.disk_hits + 1);
  // And the reloaded kernel still computes the same bytes.
  Rng rng(53);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = linearize_for(def, lm, 2, rng);
  IlirRunOptions jit_opts;
  jit_opts.plan = &plan;
  jit_opts.jit = second.get();
  const IlirRun jit_run = run_ilir(lm.program, lin, params, jit_opts);
  IlirRunOptions interp_opts;
  interp_opts.plan = &plan;
  const IlirRun interp_run = run_ilir(lm.program, lin, params, interp_opts);
  expect_runs_bit_identical(jit_run, interp_run, "disk-reloaded kernel");
}

TEST(JitCacheTest, StaleDiskSourceTriggersRebuild) {
  test_cache_dir();
  const models::ModelDef def = models::make_treefc(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});

  JitCache& cache = JitCache::instance();
  const JitKernelPtr first = cache.get_or_build(lm.program, nullptr);
  ASSERT_TRUE(first != nullptr);

  // Corrupt the persisted source: the cache must refuse the .so (source
  // comparison fails) and rebuild from scratch.
  {
    std::ofstream out(first->library_path().substr(
                          0, first->library_path().size() - 3) +
                          ".c",
                      std::ios::trunc);
    out << "/* stale */\n";
  }
  cache.clear_memory();
  const JitStats before = cache.stats();
  const JitKernelPtr second = cache.get_or_build(lm.program, nullptr);
  const JitStats after = cache.stats();
  ASSERT_TRUE(second != nullptr);
  EXPECT_FALSE(second->from_disk());
  EXPECT_EQ(after.compiles, before.compiles + 1);
}

TEST(JitCacheTest, ToolchainFailureSurfacesAsError) {
  test_cache_dir();
  EnvGuard cc_env("CORTEX_JIT_CC");
  cc_env.set("/bin/false");
  const models::ModelDef def = models::make_treernn(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  const JitStats before = JitCache::instance().stats();
  EXPECT_THROW(JitCache::instance().get_or_build(lm.program, nullptr),
               cortex::Error);
  const JitStats after = JitCache::instance().stats();
  EXPECT_EQ(after.failures, before.failures + 1);
}

TEST(JitCacheTest, CompileArtifactsBuildsNoKernel) {
  // Serving never runs a kernel, so compilation never asks for one: the
  // JitCache sees no lookup, build or failure from compile_artifacts.
  const models::ModelDef def = models::make_treernn(16);
  const JitStats before = JitCache::instance().stats();
  const CompiledArtifacts a =
      compile_artifacts(def, ra::Schedule{}, runtime::DeviceSpec::v100_gpu());
  EXPECT_TRUE(a.optimized.has_value());
  const JitStats after = JitCache::instance().stats();
  EXPECT_EQ(after.compiles, before.compiles);
  EXPECT_EQ(after.disk_hits, before.disk_hits);
  EXPECT_EQ(after.memory_hits, before.memory_hits);
  EXPECT_EQ(after.failures, before.failures);
}

// -- crash consistency: distrusted artifacts quarantine, never run -----------

/// A fresh private artifact directory for one test (the shared
/// test_cache_dir() would let other tests' artifacts interfere with
/// directory-content assertions).
std::string fresh_dir() {
  char tmpl[] = "/tmp/cortex-jit-crash-XXXXXX";
  const char* d = mkdtemp(tmpl);
  EXPECT_NE(d, nullptr);
  return d != nullptr ? d : "/tmp/cortex-jit-crash-fallback";
}

/// Runs the kernel and the interpreter over a small batch and requires
/// bit-identical buffers — the "zero wrong answers" check every recovery
/// test ends with.
void expect_kernel_correct(const models::ModelDef& def,
                           const lowering::LoweredModel& lm,
                           const JitKernelPtr& kernel, std::uint64_t seed) {
  Rng rng(seed);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = linearize_for(def, lm, 2, rng);
  IlirRunOptions jit_opts;
  jit_opts.jit = kernel.get();
  const IlirRun jit_run = run_ilir(lm.program, lin, params, jit_opts);
  const IlirRun interp_run = run_ilir(lm.program, lin, params);
  expect_runs_bit_identical(jit_run, interp_run, "recovered kernel");
}

std::size_t count_quarantined(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().filename().string().find(".quarantined.") !=
        std::string::npos)
      ++n;
  return n;
}

TEST(JitCrashConsistency, TruncatedSharedObjectQuarantinesAndRecompiles) {
  EnvGuard dir_env("CORTEX_JIT_CACHE_DIR");
  const std::string dir = fresh_dir();
  dir_env.set(dir);
  const models::ModelDef def = models::make_treefc(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});

  JitCache& cache = JitCache::instance();
  // Cold memory cache: a kernel left over from an earlier test (same
  // program, different artifact dir) would satisfy the build without
  // ever touching this test's private directory.
  cache.clear_memory();
  std::string lib;
  {
    const JitKernelPtr first = cache.get_or_build(lm.program, nullptr);
    ASSERT_TRUE(first != nullptr);
    lib = first->library_path();
  }
  // Drop every live handle before corrupting the file: truncating a
  // still-mapped .so SIGBUSes the old mapping, which is not the scenario
  // under test (corruption discovered on a fresh load after a restart).
  cache.clear_memory();

  // Simulate a torn write / disk corruption: truncate the published .so
  // to half its bytes (its sidecar digest no longer matches).
  const auto full = std::filesystem::file_size(lib);
  std::filesystem::resize_file(lib, full / 2);

  const JitStats before = cache.stats();
  const JitKernelPtr second = cache.get_or_build(lm.program, nullptr);
  const JitStats after = cache.stats();
  ASSERT_TRUE(second != nullptr);
  EXPECT_FALSE(second->from_disk());  // the corrupt artifact never loaded
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.quarantined, before.quarantined + 1);
  // Quarantine renames aside (forensics), never deletes.
  EXPECT_GE(count_quarantined(dir), 1u);
  expect_kernel_correct(def, lm, second, 59);
}

TEST(JitCrashConsistency, GarbageSourceWithMatchingNameQuarantines) {
  EnvGuard dir_env("CORTEX_JIT_CACHE_DIR");
  const std::string dir = fresh_dir();
  dir_env.set(dir);
  const models::ModelDef def = models::make_treegru(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});

  JitCache& cache = JitCache::instance();
  cache.clear_memory();  // force the build into this test's private dir
  const JitKernelPtr first = cache.get_or_build(lm.program, nullptr);
  ASSERT_TRUE(first != nullptr);
  const std::string lib = first->library_path();
  const std::string src = lib.substr(0, lib.size() - 3) + ".c";

  // Garbage .c under the correct digest name: the source comparison
  // fails, so the (intact!) .so next to it is still distrusted — renamed
  // aside, never dlopen'd — and the kernel recompiles.
  {
    std::ofstream out(src, std::ios::trunc);
    out << "int not_a_kernel;\n";
  }
  cache.clear_memory();
  const JitStats before = cache.stats();
  const JitKernelPtr second = cache.get_or_build(lm.program, nullptr);
  const JitStats after = cache.stats();
  ASSERT_TRUE(second != nullptr);
  EXPECT_FALSE(second->from_disk());
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.quarantined, before.quarantined + 1);
  EXPECT_GE(count_quarantined(dir), 1u);
  expect_kernel_correct(def, lm, second, 61);
}

TEST(JitCrashConsistency, MissingSidecarQuarantinesAndRecompiles) {
  EnvGuard dir_env("CORTEX_JIT_CACHE_DIR");
  const std::string dir = fresh_dir();
  dir_env.set(dir);
  const models::ModelDef def = models::make_simple_treegru(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});

  JitCache& cache = JitCache::instance();
  cache.clear_memory();  // force the build into this test's private dir
  const JitKernelPtr first = cache.get_or_build(lm.program, nullptr);
  ASSERT_TRUE(first != nullptr);

  // Simulate a crash between publishing the .so and persisting its
  // sidecar: the .so is intact but unsigned, and an unsigned artifact is
  // never trusted.
  std::filesystem::remove(first->library_path() + ".sig");
  cache.clear_memory();
  const JitStats before = cache.stats();
  const JitKernelPtr second = cache.get_or_build(lm.program, nullptr);
  const JitStats after = cache.stats();
  ASSERT_TRUE(second != nullptr);
  EXPECT_FALSE(second->from_disk());
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.quarantined, before.quarantined + 1);
  expect_kernel_correct(def, lm, second, 67);
}

TEST(JitCrashConsistency, FailedCompileLeavesNoStrandedFiles) {
  EnvGuard cc_env("CORTEX_JIT_CC");
  EnvGuard dir_env("CORTEX_JIT_CACHE_DIR");
  const std::string dir = fresh_dir();
  dir_env.set(dir);
  cc_env.set("/bin/false");
  const models::ModelDef def = models::make_treernn(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  EXPECT_THROW(JitCache::instance().get_or_build(lm.program, nullptr),
               cortex::Error);
  // A failed toolchain invocation must not strand the published source,
  // the half-built object, or the log in the cache directory.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++files;
    ADD_FAILURE() << "stranded file after failed compile: " << e.path();
  }
  EXPECT_EQ(files, 0u);
}

TEST(JitBackoffTest, SuccessAfterFailureClearsTheRecordAndServesKernels) {
  // A failed build leaves nothing behind that could block the next one:
  // once the toolchain recovers, the very next ask compiles and serves a
  // correct kernel, and the ask after that is a plain memory hit.
  // A private artifact dir + cold memory cache: an artifact left behind
  // by an earlier test would satisfy the ask before the armed jit.cc
  // site is ever consulted.
  EnvGuard dir_env("CORTEX_JIT_CACHE_DIR");
  dir_env.set(fresh_dir());
  struct FaultGuard {
    ~FaultGuard() { support::FaultInjector::instance().reset(); }
  } fault_guard;
  JitCache& cache = JitCache::instance();
  cache.clear_memory();
  const models::ModelDef def = models::make_treelstm(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});

  // Fail via the jit.cc fault site, NOT a different CORTEX_JIT_CC: the
  // compiler command is part of the kernel key, so swapping compilers
  // would put the failure and the recovery under different keys.
  support::FaultInjector::instance().configure("jit.cc=*");
  EXPECT_THROW(cache.get_or_build(lm.program, nullptr), cortex::Error);

  // Toolchain recovers: the next ask rebuilds and succeeds.
  support::FaultInjector::instance().reset();
  const JitStats before_rebuild = cache.stats();
  const JitKernelPtr ok = cache.get_or_build(lm.program, nullptr);
  ASSERT_TRUE(ok != nullptr);
  EXPECT_EQ(cache.stats().compiles, before_rebuild.compiles + 1);
  expect_kernel_correct(def, lm, ok, 71);

  const JitStats before = cache.stats();
  EXPECT_EQ(cache.get_or_build(lm.program, nullptr).get(), ok.get());
  EXPECT_EQ(cache.stats().memory_hits, before.memory_hits + 1);
}

// -- fault-injection sites ----------------------------------------------------

TEST(JitFaultSites, ArmedSiteThrowsOrRecompilesAndStrandsNoTempFile) {
  // Every JIT fault site armed in turn against a direct get_or_build in a
  // fresh artifact dir. A build-path site (toolchain, dlopen, publish)
  // must throw cortex::Error; cache.read sits on the disk-reuse path, so
  // it must quarantine the "corrupt" artifact and recompile instead.
  // Either way no *.tmp.* file may be left behind, and once the injector
  // is reset the next build must give a kernel bit-identical to the
  // interpreter.
  struct FaultGuard {
    ~FaultGuard() { support::FaultInjector::instance().reset(); }
  } fault_guard;
  EnvGuard dir_env("CORTEX_JIT_CACHE_DIR");
  const models::ModelDef def = models::make_treelstm(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  JitCache& cache = JitCache::instance();
  std::uint64_t seed = 73;
  for (const char* site : {"jit.cc", "jit.dlopen", "jit.disk.write",
                           "jit.disk.rename", "cache.read"}) {
    SCOPED_TRACE(site);
    const std::string dir = fresh_dir();
    dir_env.set(dir);
    // Cold memory registry: the armed site must sit on the executed path.
    cache.clear_memory();
    const bool reuse_site = std::string(site) == "cache.read";
    if (reuse_site) {
      // Publish an intact artifact first, then force the disk path.
      ASSERT_TRUE(cache.get_or_build(lm.program, nullptr) != nullptr);
      cache.clear_memory();
    }
    const JitStats before = cache.stats();
    support::FaultInjector::instance().configure(std::string(site) + "=*");
    if (reuse_site) {
      const JitKernelPtr k = cache.get_or_build(lm.program, nullptr);
      ASSERT_TRUE(k != nullptr);
      EXPECT_FALSE(k->from_disk());  // the distrusted artifact never loaded
      EXPECT_EQ(cache.stats().quarantined, before.quarantined + 1);
      EXPECT_EQ(cache.stats().compiles, before.compiles + 1);
    } else {
      EXPECT_THROW(cache.get_or_build(lm.program, nullptr), cortex::Error);
      EXPECT_EQ(cache.stats().failures, before.failures + 1);
    }
    EXPECT_GE(support::FaultInjector::instance().stats(site).fired, 1)
        << site << " never fired";
    for (const auto& e : std::filesystem::directory_iterator(dir))
      EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
          << "stranded temp file " << e.path();

    support::FaultInjector::instance().reset();
    cache.clear_memory();
    const JitKernelPtr recovered = cache.get_or_build(lm.program, nullptr);
    ASSERT_TRUE(recovered != nullptr);
    expect_kernel_correct(def, lm, recovered, seed++);
  }
}

}  // namespace
}  // namespace cortex::exec
