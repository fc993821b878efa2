// Kernel builds (exec/jit.hpp): the zoo x schedule x batch-size
// differential battery (JIT'd kernels bit-identical to the interpreter on
// every buffer, with the static verifier forced on), the refusal to run a
// kernel over any program or memory plan other than the one it was built
// from, the refusal to compile unverified IR, toolchain-failure
// surfacing, and both JIT fault-injection sites armed against
// build_kernel, which must throw and leave no build directory behind.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/artifacts.hpp"
#include "exec/ilir_runner.hpp"
#include "exec/jit.hpp"
#include "exec/memory_plan.hpp"
#include "ilir/verify.hpp"
#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"
#include "runtime/device.hpp"
#include "support/fault_injection.hpp"
#include "support/logging.hpp"

namespace cortex::exec {
namespace {

/// Disarms every fault site on scope exit, so a failed assertion cannot
/// leave a site armed for the next test.
struct FaultGuard {
  ~FaultGuard() { support::FaultInjector::instance().reset(); }
};

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

/// Builds the kernel for compiled ILIR exactly as an offline caller
/// would: the optimized program plus its planned arena.
JitKernelPtr kernel_for(const CompiledIlir& c) {
  const MemoryPlanOptions mp_opts{{c.lowered.output}, {}};
  return build_kernel(c.optimized, &c.memory, mp_opts);
}

/// Runs the kernel and the interpreter over a small batch and requires
/// bit-identical buffers.
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
  expect_runs_bit_identical(jit_run, interp_run, "kernel");
}

/// The build directory a build_kernel error names: both the compile and
/// the dlopen failure quote the path of the object inside it. Empty when
/// the message names none.
std::string build_dir_named_in(const std::string& what) {
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "cortex-jit-").string();
  const std::size_t at = what.find(prefix);
  if (at == std::string::npos) return {};
  return what.substr(at, what.find('/', at + prefix.size()) - at);
}

/// Builds `program` expecting a cortex::Error, and returns its message.
std::string build_error(const ilir::Program& program) {
  try {
    build_kernel(program, nullptr);
  } catch (const cortex::Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "build_kernel did not throw";
  return {};
}

// -- the acceptance battery ---------------------------------------------------

TEST(JitDifferential, ZooTimesSchedulesTimesBatchesBitIdentical) {
  Rng rng(41);
  for (const models::ModelDef& def : zoo()) {
    if (!def.model) continue;
    const models::ModelParams params = models::init_params(def, rng);
    const bool dag = def.name == "DAG-RNN";
    for (const auto& [label, schedule] : schedule_variants(dag)) {
      SCOPED_TRACE(def.name + " / " + label);
      // Verification is forced inside build_kernel.
      const CompiledIlir c = compile_ilir(*def.model, schedule);
      const JitKernelPtr kernel = kernel_for(c);
      ASSERT_TRUE(kernel != nullptr);
      ASSERT_TRUE(kernel->fn() != nullptr);
      for (int batch : {1, 3}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        const linearizer::Linearized lin =
            linearize_for(def, c.lowered, batch, rng);
        IlirRunOptions jit_opts;
        jit_opts.plan = &c.memory;
        jit_opts.jit = kernel.get();
        const IlirRun jit_run = run_ilir(c.optimized, lin, params, jit_opts);
        ASSERT_TRUE(jit_run.ran_jit);
        IlirRunOptions interp_opts;
        interp_opts.plan = &c.memory;
        const IlirRun interp_run =
            run_ilir(c.optimized, lin, params, interp_opts);
        expect_runs_bit_identical(jit_run, interp_run,
                                  def.name + " / " + label);
      }
    }
  }
}

TEST(JitDifferential, KernelWithoutMemoryPlanMatchesInterpreter) {
  Rng rng(43);
  const models::ModelDef def = models::make_treelstm(16);
  const models::ModelParams params = models::init_params(def, rng);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  // Build against no plan: every float buffer routes through params[].
  const JitKernelPtr kernel = build_kernel(lm.program, nullptr);
  ASSERT_TRUE(kernel != nullptr);
  EXPECT_FALSE(kernel->has_arena());
  const linearizer::Linearized lin = linearize_for(def, lm, 3, rng);
  IlirRunOptions jit_opts;
  jit_opts.jit = kernel.get();
  const IlirRun jit_run = run_ilir(lm.program, lin, params, jit_opts);
  const IlirRun interp_run = run_ilir(lm.program, lin, params);
  expect_runs_bit_identical(jit_run, interp_run, "no-plan kernel");
}

TEST(JitDifferential, PlanBuiltKernelWithoutPlannerThrows) {
  // A kernel bakes its memory plan's slot indices; handed any other plan
  // — here an empty one, the per-buffer reference with no slots at all —
  // run_ilir refuses rather than letting the kernel index slots that do
  // not exist (or quietly interpreting: a set opts.jit means the kernel
  // runs).
  Rng rng(45);
  const models::ModelDef def = models::make_treernn_fig1(16);
  const models::ModelParams params = models::init_params(def, rng);
  const CompiledIlir c = compile_ilir(*def.model, ra::Schedule{});
  const JitKernelPtr kernel = kernel_for(c);
  ASSERT_TRUE(kernel->has_arena());
  ASSERT_FALSE(c.memory.slots.empty());
  const linearizer::Linearized lin = linearize_for(def, c.lowered, 2, rng);
  const MemoryPlan no_slots;
  IlirRunOptions opts;
  opts.plan = &no_slots;
  opts.jit = kernel.get();
  EXPECT_THROW(run_ilir(c.optimized, lin, params, opts), cortex::Error);
  // The plan it was built against still runs it.
  opts.plan = &c.memory;
  EXPECT_TRUE(run_ilir(c.optimized, lin, params, opts).ran_jit);
}

TEST(JitDifferential, KernelRefusesAProgramItWasNotBuiltFrom) {
  // A kernel bakes its program's extents: a no-plan kernel built for
  // TreeLSTM h16, handed the h32 program's same-named buffers, would run
  // its h16 loops over them. run_ilir refuses; the h32 program still
  // interprets.
  Rng rng(47);
  const models::ModelDef def16 = models::make_treelstm(16);
  const models::ModelDef def32 = models::make_treelstm(32);
  const lowering::LoweredModel lm16 =
      lowering::lower(*def16.model, ra::Schedule{});
  const lowering::LoweredModel lm32 =
      lowering::lower(*def32.model, ra::Schedule{});
  const JitKernelPtr kernel = build_kernel(lm16.program, nullptr);
  const models::ModelParams params32 = models::init_params(def32, rng);
  const linearizer::Linearized lin = linearize_for(def32, lm32, 2, rng);
  IlirRunOptions opts;
  opts.jit = kernel.get();
  EXPECT_THROW(run_ilir(lm32.program, lin, params32, opts), cortex::Error);
  EXPECT_FALSE(run_ilir(lm32.program, lin, params32).ran_jit);
}

TEST(JitSafety, UnverifiedProgramNeverReachesTheToolchain) {
  // The off-by-one index mutation of the verifier's battery, applied to a
  // lowered zoo program: every store to the output reaches one past its
  // last column. build_kernel must reject it before invoking `cc`.
  FaultGuard fault_guard;
  const models::ModelDef def = models::make_treernn(16);
  lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  const std::string out = lm.output;
  lm.program.body = ilir::transform(
      lm.program.body, [&](const ilir::Stmt& s) -> ilir::Stmt {
        if (s->kind != ilir::StmtKind::kStore || s->buffer != out)
          return nullptr;
        std::vector<ra::Expr> idx = s->indices;
        idx.back() = ra::add(idx.back(), ra::imm(1));
        return ilir::make_store(out, idx, s->value);
      });
  ASSERT_TRUE(support::has_errors(ilir::verify(lm.program)));

  support::FaultInjector::instance().configure("jit.cc=*");
  const std::string what = build_error(lm.program);
  EXPECT_NE(what.find("ILIR verification failed after 'jit'"),
            std::string::npos)
      << what;
  EXPECT_EQ(support::FaultInjector::instance().stats("jit.cc").hits, 0);
}

TEST(JitCacheTest, ToolchainFailureSurfacesAsError) {
  FaultGuard fault_guard;
  const models::ModelDef def = models::make_treernn(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  support::FaultInjector::instance().configure("jit.cc=*");
  const std::string what = build_error(lm.program);
  EXPECT_NE(what.find("JIT compile failed"), std::string::npos) << what;
  EXPECT_EQ(support::FaultInjector::instance().stats("jit.cc").fired, 1);
}

TEST(JitCacheTest, CompileArtifactsBuildsNoKernel) {
  // Serving never runs a kernel, so compilation never builds one: with
  // the toolchain and loader sites armed, neither compile_artifacts nor
  // the offline compile_ilir reaches them.
  FaultGuard fault_guard;
  const models::ModelDef def = models::make_treernn(16);
  support::FaultInjector::instance().configure("jit.cc=*;jit.dlopen=*");
  const CompiledArtifacts a = compile_artifacts(def, ra::Schedule{});
  EXPECT_TRUE(a.lowered.has_value());
  EXPECT_FALSE(compile_ilir(*def.model, ra::Schedule{}).memory.slots.empty());
  EXPECT_EQ(support::FaultInjector::instance().stats("jit.cc").hits, 0);
  EXPECT_EQ(support::FaultInjector::instance().stats("jit.dlopen").hits, 0);
}

TEST(JitCrashConsistency, FailedCompileLeavesNoStrandedFiles) {
  // The build directory goes with everything in it whether the build
  // fails or succeeds; a loaded kernel keeps running from its mapping.
  FaultGuard fault_guard;
  const models::ModelDef def = models::make_treernn(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});

  support::FaultInjector::instance().configure("jit.cc=*");
  const std::string failed_dir = build_dir_named_in(build_error(lm.program));
  ASSERT_FALSE(failed_dir.empty());
  EXPECT_FALSE(std::filesystem::exists(failed_dir)) << failed_dir;

  support::FaultInjector::instance().reset();
  const JitKernelPtr kernel = build_kernel(lm.program, nullptr);
  const std::filesystem::path built_dir =
      std::filesystem::path(kernel->library_path()).parent_path();
  EXPECT_NE(built_dir.string(), failed_dir);
  EXPECT_FALSE(std::filesystem::exists(built_dir)) << built_dir;
  expect_kernel_correct(def, lm, kernel, 59);
}

TEST(JitBackoffTest, SuccessAfterFailureClearsTheRecordAndServesKernels) {
  // A failed build leaves nothing behind that could block the next one:
  // once the toolchain recovers, the very next build compiles a correct
  // kernel.
  FaultGuard fault_guard;
  const models::ModelDef def = models::make_treelstm(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  support::FaultInjector::instance().configure("jit.cc=*");
  EXPECT_THROW(build_kernel(lm.program, nullptr), cortex::Error);

  support::FaultInjector::instance().reset();
  const JitKernelPtr ok = build_kernel(lm.program, nullptr);
  ASSERT_TRUE(ok != nullptr);
  expect_kernel_correct(def, lm, ok, 71);
}

// -- fault-injection sites ----------------------------------------------------

TEST(JitFaultSites, ArmedSiteThrowsOrRecompilesAndStrandsNoTempFile) {
  // Both JIT fault sites armed in turn against a direct build_kernel: the
  // build must throw cortex::Error, the site must have fired, and the
  // build directory the error names must be gone. Once the injector is
  // reset the next build must give a kernel bit-identical to the
  // interpreter.
  FaultGuard fault_guard;
  const models::ModelDef def = models::make_treelstm(16);
  const lowering::LoweredModel lm = lowering::lower(*def.model, ra::Schedule{});
  std::uint64_t seed = 73;
  for (const char* site : {"jit.cc", "jit.dlopen"}) {
    SCOPED_TRACE(site);
    support::FaultInjector::instance().configure(std::string(site) + "=*");
    const std::string dir = build_dir_named_in(build_error(lm.program));
    EXPECT_GE(support::FaultInjector::instance().stats(site).fired, 1)
        << site << " never fired";
    ASSERT_FALSE(dir.empty());
    EXPECT_FALSE(std::filesystem::exists(dir)) << "stranded " << dir;

    support::FaultInjector::instance().reset();
    const JitKernelPtr recovered = build_kernel(lm.program, nullptr);
    ASSERT_TRUE(recovered != nullptr);
    expect_kernel_correct(def, lm, recovered, seed++);
  }
}

}  // namespace
}  // namespace cortex::exec
