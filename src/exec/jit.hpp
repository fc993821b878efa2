#pragma once
// Native execution of optimized ILIR programs, for tests and bench_jit:
// render the program as C (ilir/codegen_c.hpp), compile it with `cc` into
// a fresh directory under std::filesystem::temp_directory_path(), dlopen
// the shared object, and hand run_ilir a function pointer. This is an
// offline oracle, not a serving path: CortexEngine serves through the
// batched cell executor, which bench_jit measures an order of magnitude
// faster than the kernel on the Fig. 9 SeqLSTM / TreeLSTM / DAG-RNN
// configurations at batch {1, 8, 64}. Nothing builds a kernel unless a
// caller asks build_kernel for one, and nothing caches one: every call
// compiles afresh.
//
// Safety: the ILIR static verifier and the memory-plan verifier run on
// every build. A dlopen'd kernel executes
// whatever the pass pipeline emitted with no interpreter bounds checks,
// so it never runs unverified IR. The interpreter stays the differential
// oracle: the JitDifferential tests require bit-identical buffers and
// barrier counts across the model zoo, schedules and batch sizes.
//
// Failure: build_kernel throws cortex::Error on any verification,
// toolchain or load failure. It removes its build directory on success
// and on every failure path (a loaded kernel stays mapped after its file
// is gone), so no call leaves a file behind.
//
// Fault-injection sites (support/fault_injection.hpp): jit.cc (toolchain
// exit) and jit.dlopen, each forcing its real failure branch.
//
// run_ilir runs a kernel exactly when IlirRunOptions::jit is set, and only
// over the (program, plan) the kernel was built from.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/memory_plan.hpp"
#include "ilir/ilir.hpp"
#include "support/fingerprint.hpp"

namespace cortex::exec {

class JitKernel;
using JitKernelPtr = std::shared_ptr<const JitKernel>;

/// Verifies `program` (and `plan`, against the live-out set in
/// `plan_opts`), compiles it and loads the kernel. With a null `plan` the
/// kernel routes every float buffer through params[]. Throws cortex::Error
/// on any failure.
JitKernelPtr build_kernel(const ilir::Program& program, const MemoryPlan* plan,
                          const MemoryPlanOptions& plan_opts = {});

/// Identity of a kernel's input: the program plus the plan it was built
/// against (nullptr for none).
support::Fingerprint kernel_fingerprint(const ilir::Program& program,
                                        const MemoryPlan* plan);

/// One dlopen'd kernel; immutable once built, closed on destruction.
class JitKernel {
 public:
  /// The cortex-jit-abi 2 signature (ilir/codegen_c.hpp documents the
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
  /// Where the shared object was built; removed before build_kernel
  /// returns.
  const std::string& library_path() const { return library_path_; }
  /// Built against a memory plan: run_ilir must supply the arena +
  /// resolved slot offsets of that plan.
  bool has_arena() const { return has_arena_; }
  /// kernel_fingerprint of the (program, plan) it was built from: run_ilir
  /// refuses a run over any other, whose extents and slots are not the
  /// ones baked in.
  const support::Fingerprint& fingerprint() const { return fingerprint_; }

 private:
  friend JitKernelPtr build_kernel(const ilir::Program&, const MemoryPlan*,
                                   const MemoryPlanOptions&);
  JitKernel() = default;

  void* handle_ = nullptr;
  Fn fn_ = nullptr;
  std::vector<std::string> params_order_;
  std::string library_path_;
  bool has_arena_ = false;
  support::Fingerprint fingerprint_;
};

}  // namespace cortex::exec
