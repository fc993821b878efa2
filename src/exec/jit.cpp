#include "exec/jit.hpp"

#include <dlfcn.h>
#include <stdlib.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "ilir/codegen_c.hpp"
#include "ilir/verify.hpp"
#include "support/fault_injection.hpp"
#include "support/logging.hpp"

namespace cortex::exec {

namespace {

// Namespace-scope so the sites are registered — and enumerable by the
// fault-sweep battery — from load time on.
support::FaultSite g_fault_cc("jit.cc");
support::FaultSite g_fault_dlopen("jit.dlopen");

/// Flags every kernel is built with. -ffp-contract=off matches the
/// tree-wide flag the bit-identity contract depends on (a fused
/// multiply-add would change the interpreter/JIT comparison); -Werror on
/// generated code keeps the emitter honest.
constexpr const char* kCompileFlags =
    "-std=c11 -O2 -fPIC -shared -Wall -Wextra -Werror -ffp-contract=off";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A fresh mkdtemp directory, removed with everything in it on scope exit.
class BuildDir {
 public:
  BuildDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "cortex-jit-XXXXXX")
            .string();
    CORTEX_CHECK(::mkdtemp(tmpl.data()) != nullptr)
        << "mkdtemp(" << tmpl << ") failed: " << std::strerror(errno);
    path_ = tmpl;
  }
  ~BuildDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  BuildDir(const BuildDir&) = delete;
  BuildDir& operator=(const BuildDir&) = delete;

  std::string file(const char* name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace

support::Fingerprint kernel_fingerprint(const ilir::Program& program,
                                        const MemoryPlan* plan) {
  support::FingerprintBuilder fb;
  fb.tag('J');
  ilir::fingerprint(program, fb);
  if (plan != nullptr)
    fingerprint(*plan, fb);
  else
    fb.tag('0');
  return fb.finish();
}

JitKernelPtr build_kernel(const ilir::Program& program, const MemoryPlan* plan,
                          const MemoryPlanOptions& plan_opts) {
  // Verified again here: the kernel will execute with no interpreter
  // safety net (see header).
  ilir::verify_or_throw(program, "jit");
  if (plan != nullptr)
    verify_memory_plan_or_throw(program, *plan, "jit", plan_opts);

  auto kernel = std::shared_ptr<JitKernel>(new JitKernel());
  kernel->fingerprint_ = kernel_fingerprint(program, plan);
  kernel->has_arena_ = plan != nullptr;

  // Each kernel loads RTLD_LOCAL from its own object, so the default
  // symbol (the program's name) cannot clash with another kernel's.
  ilir::CodegenOptions opts;
  if (plan != nullptr)
    for (const BufferPlanEntry& e : plan->entries)
      opts.arena.push_back({e.buffer, e.slot});
  const ilir::CKernelSource src = ilir::codegen_c_kernel(program, opts);
  kernel->params_order_ = src.params_order;

  const BuildDir dir;
  const std::string src_path = dir.file("kernel.c");
  const std::string lib_path = dir.file("kernel.so");
  const std::string log_path = dir.file("cc.log");
  kernel->library_path_ = lib_path;
  {
    std::ofstream out(src_path, std::ios::binary);
    out << src.code;
    CORTEX_CHECK(out.good()) << "cannot write " << src_path;
  }
  const std::string cmd = std::string("cc ") + kCompileFlags + " -o '" +
                          lib_path + "' '" + src_path + "' -lm 2> '" +
                          log_path + "'";
  const int rc = g_fault_cc.fire() ? 1 : std::system(cmd.c_str());
  CORTEX_CHECK(rc == 0) << "JIT compile failed (exit " << rc << "): " << cmd
                        << "\n"
                        << read_file(log_path);

  void* handle = g_fault_dlopen.fire()
                     ? nullptr
                     : ::dlopen(lib_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* msg = ::dlerror();
    CORTEX_CHECK(false) << "dlopen(" << lib_path << ") failed: "
                        << (msg != nullptr ? msg : "fault-injected");
  }
  void* sym = ::dlsym(handle, src.symbol.c_str());
  if (sym == nullptr) {
    // One dlerror() call only: the first clears the error state, so a
    // second would return NULL and lose the real message.
    const char* msg = ::dlerror();
    const std::string err = msg != nullptr ? msg : "symbol not found";
    ::dlclose(handle);
    CORTEX_CHECK(false) << "dlsym(" << src.symbol << ") failed: " << err;
  }
  kernel->handle_ = handle;
  kernel->fn_ = reinterpret_cast<JitKernel::Fn>(sym);
  return kernel;
}

JitKernel::~JitKernel() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

}  // namespace cortex::exec
