#include "exec/jit.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ilir/codegen_c.hpp"
#include "ilir/verify.hpp"
#include "runtime/profiler.hpp"
#include "support/fault_injection.hpp"
#include "support/logging.hpp"

namespace cortex::exec {

namespace {

// Injection sites for every production-shaped failure in this file (see
// support/fault_injection.hpp for the arming spec). Namespace-scope so
// the sites are registered — and enumerable by the fault-sweep battery —
// from load time on.
support::FaultSite g_fault_cc("jit.cc");
support::FaultSite g_fault_dlopen("jit.dlopen");
support::FaultSite g_fault_disk_write("jit.disk.write");
support::FaultSite g_fault_disk_rename("jit.disk.rename");
support::FaultSite g_fault_cache_read("cache.read");

/// Flags every kernel is built with. -ffp-contract=off matches the
/// tree-wide flag the bit-identity contract depends on (a fused
/// multiply-add would change the interpreter/JIT comparison); -Werror on
/// generated code keeps the emitter honest.
constexpr const char* kCompileFlags =
    "-std=c11 -O2 -fPIC -shared -Wall -Wextra -Werror -ffp-contract=off";

std::string digest_hex(const support::Fingerprint& fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp.digest));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Integrity sidecar content for a published shared object: size plus a
/// digest of the object's bytes. Recomputed (over the actual on-disk
/// bytes) before every disk reuse; a truncated or bit-flipped .so can
/// never match.
std::string so_signature(const std::string& so_bytes) {
  support::FingerprintBuilder fb;
  fb.tag('S');
  fb.add(1);  // sidecar format version
  fb.add(so_bytes);
  return "cortex-jit-sig 1 " + std::to_string(so_bytes.size()) + " " +
         digest_hex(fb.finish()) + "\n";
}

/// Atomic publish: write to a pid-suffixed temp file, then rename(2) into
/// place, so concurrent processes building the same key can never observe
/// a half-written artifact. The temp is removed on every failure path —
/// a failed publish must not strand files in the cache dir.
void write_file_atomic(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  bool ok = !g_fault_disk_write.fire();
  if (ok) {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    ok = out.good();
    if (ok) {
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
      ok = out.good();
    }
  }
  if (!ok) {
    std::remove(tmp.c_str());
    CORTEX_CHECK(false) << "cannot write " << tmp;
  }
  if (g_fault_disk_rename.fire() ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    CORTEX_CHECK(false) << "rename " << tmp << " -> " << path << " failed";
  }
}

/// Renames a distrusted on-disk artifact aside (kept for forensics, never
/// loadable again — the cx_ prefix no longer matches) and drops its
/// sidecar. Falls back to removal if even the rename fails.
void quarantine_artifact(const std::string& lib_path,
                         const std::string& sig_path,
                         const std::string& reason) {
  static std::atomic<int> counter{0};
  const std::string aside = lib_path + ".quarantined." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(counter.fetch_add(1));
  if (std::rename(lib_path.c_str(), aside.c_str()) != 0)
    std::remove(lib_path.c_str());
  std::remove(sig_path.c_str());
  support::warn("quarantined JIT artifact " + lib_path + " (" + reason +
                "); recompiling");
}

support::Fingerprint kernel_key(const ilir::Program& program,
                                const MemoryPlan* plan,
                                const std::string& cc) {
  support::FingerprintBuilder fb;
  fb.tag('J');
  fb.add(1);  // cortex-jit-abi version
  fb.add(cc);
  fb.add(kCompileFlags);
  ilir::fingerprint(program, fb);
  if (plan != nullptr)
    fingerprint(*plan, fb);
  else
    fb.tag('0');
  return fb.finish();
}

}  // namespace

void JitKernel::open(const std::string& lib, const std::string& symbol) {
  void* handle =
      g_fault_dlopen.fire() ? nullptr : ::dlopen(lib.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* msg = ::dlerror();
    CORTEX_CHECK(false) << "dlopen(" << lib << ") failed: "
                        << (msg != nullptr ? msg : "fault-injected");
  }
  void* sym = ::dlsym(handle, symbol.c_str());
  if (sym == nullptr) {
    // One dlerror() call only: the first clears the error state, so a
    // second would return NULL and lose the real message.
    const char* msg = ::dlerror();
    const std::string err = msg != nullptr ? msg : "symbol not found";
    ::dlclose(handle);
    CORTEX_CHECK(false) << "dlsym(" << symbol << ") failed: " << err;
  }
  handle_ = handle;
  fn_ = reinterpret_cast<Fn>(sym);
  symbol_ = symbol;
  library_path_ = lib;
}

JitKernel::~JitKernel() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

JitCache& JitCache::instance() {
  static JitCache* cache = new JitCache();  // never destroyed, like
  return *cache;                            // PlanCache::instance()
}

std::string JitCache::cache_dir() {
  if (const char* dir = std::getenv("CORTEX_JIT_CACHE_DIR");
      dir != nullptr && *dir != '\0')
    return dir;
  return "/tmp/cortex-jit-" + std::to_string(::getuid());
}

JitKernelPtr JitCache::lookup_memory(const support::Fingerprint& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  ++stats_.memory_hits;
  return it->second;
}

JitKernelPtr JitCache::get_or_build(const ilir::Program& program,
                                    const MemoryPlan* plan,
                                    const MemoryPlanOptions& plan_opts) {
  const support::Fingerprint key = kernel_key(program, plan, jit_compiler());
  if (JitKernelPtr hit = lookup_memory(key)) return hit;
  JitKernelPtr built;
  try {
    // First sight of this kernel in this process: verification is forced
    // — regardless of CORTEX_ILIR_VERIFY — because the kernel will
    // execute with no interpreter safety net (see header).
    ilir::verify_or_throw(program, "jit");
    if (plan != nullptr)
      verify_memory_plan_or_throw(program, *plan, "jit", plan_opts);
    // Build outside the lock (compiles are slow; a rare duplicate build
    // of the same key is benign — identical artifacts, atomic
    // publication).
    built = build_locked_out(key, program, plan);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failures;
    throw;
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = map_.emplace(key, built);
  if (!inserted) {
    ++stats_.memory_hits;  // another thread won the race
    return it->second;
  }
  if (built->from_disk())
    ++stats_.disk_hits;
  else
    ++stats_.compiles;
  return built;
}

JitKernelPtr JitCache::build_locked_out(const support::Fingerprint& key,
                                        const ilir::Program& program,
                                        const MemoryPlan* plan) {
  const std::string hex = digest_hex(key);
  const std::string dir = cache_dir();
  std::filesystem::create_directories(dir);
  const std::string src_path = dir + "/cx_" + hex + ".c";
  const std::string lib_path = dir + "/cx_" + hex + ".so";
  const std::string sig_path = lib_path + ".sig";

  ilir::CodegenOptions opts;
  opts.symbol = "cortex_kernel_" + hex;
  if (plan != nullptr)
    for (const BufferPlanEntry& e : plan->entries)
      opts.arena.push_back({e.buffer, e.slot});
  const ilir::CKernelSource src = ilir::codegen_c_kernel(program, opts);

  auto kernel = std::shared_ptr<JitKernel>(new JitKernel());
  kernel->params_order_ = src.params_order;
  kernel->has_arena_ = plan != nullptr;
  if (plan != nullptr) kernel->plan_fingerprint_ = fingerprint(*plan);

  // Disk reuse. Trust requires all of: persisted source matching the
  // regenerated source byte-for-byte (fingerprint collisions and emitter
  // changes both fail this), a sidecar present, and the sidecar matching
  // a digest recomputed over the object's actual bytes (truncation and
  // corruption fail this). Anything else is quarantined — renamed aside,
  // never loaded — and the kernel is recompiled below.
  if (std::filesystem::exists(lib_path)) {
    bool quarantined = false;
    if (read_file(src_path) != src.code) {
      quarantine_artifact(lib_path, sig_path,
                          "persisted source is stale or corrupt");
      quarantined = true;
    } else {
      const std::string so_bytes = g_fault_cache_read.fire()
                                       ? std::string("fault-injected garbage")
                                       : read_file(lib_path);
      const std::string sig = read_file(sig_path);
      if (sig.empty() || sig != so_signature(so_bytes)) {
        quarantine_artifact(lib_path, sig_path,
                            sig.empty() ? "missing integrity sidecar"
                                        : "integrity digest mismatch");
        quarantined = true;
      } else {
        try {
          kernel->open(lib_path, src.symbol);
          kernel->from_disk_ = true;
          return kernel;
        } catch (const std::exception& e) {
          quarantine_artifact(lib_path, sig_path,
                              std::string("dlopen on reuse failed: ") +
                                  e.what());
          quarantined = true;
        }
      }
    }
    if (quarantined) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.quarantined;
    }
  }

  write_file_atomic(src_path, src.code);
  const std::string tmp_lib = lib_path + ".tmp." + std::to_string(::getpid());
  const std::string log_path = lib_path + ".log." + std::to_string(::getpid());
  const std::string cmd = jit_compiler() + " " + kCompileFlags + " -o '" +
                          tmp_lib + "' '" + src_path + "' -lm 2> '" +
                          log_path + "'";
  const std::int64_t t0 = runtime::now_ns();
  const int rc = g_fault_cc.fire() ? 1 : std::system(cmd.c_str());
  const double ns = static_cast<double>(runtime::now_ns() - t0);
  if (rc != 0) {
    const std::string log = read_file(log_path);
    // Leave nothing stranded: the half-built object, the log, and the
    // published source (useless without its object) all go.
    std::remove(tmp_lib.c_str());
    std::remove(log_path.c_str());
    std::remove(src_path.c_str());
    CORTEX_CHECK(false) << "JIT compile failed (exit " << rc << "): " << cmd
                        << "\n"
                        << log;
  }
  std::remove(log_path.c_str());
  // Sign the object we are about to publish (the temp's bytes ARE the
  // published bytes: rename moves, never rewrites), then publish, then
  // persist the sidecar. A crash between the renames leaves a .so with a
  // missing/stale sidecar — which the reuse path quarantines, never runs.
  const std::string signature = so_signature(read_file(tmp_lib));
  if (g_fault_disk_rename.fire() ||
      std::rename(tmp_lib.c_str(), lib_path.c_str()) != 0) {
    std::remove(tmp_lib.c_str());
    std::remove(src_path.c_str());
    CORTEX_CHECK(false) << "rename " << tmp_lib << " -> " << lib_path
                        << " failed";
  }
  write_file_atomic(sig_path, signature);

  kernel->open(lib_path, src.symbol);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.compile_ns += ns;
  }
  return kernel;
}

JitStats JitCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void JitCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = JitStats{};
}

void JitCache::clear_memory() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

std::string jit_compiler() {
  if (const char* cc = std::getenv("CORTEX_JIT_CC");
      cc != nullptr && *cc != '\0')
    return cc;
  return "cc";
}

}  // namespace cortex::exec
