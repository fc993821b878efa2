#pragma once
// Minimal error-reporting helpers: CHECK-style invariant macros that throw
// std::runtime_error with file/line context. We throw (rather than abort) so
// tests can assert that malformed inputs are rejected.

#include <sstream>
#include <stdexcept>
#include <string>

namespace cortex {

/// Exception thrown on violated invariants and malformed user input.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A failure that may succeed on retry (resource exhaustion, a racing
/// process, an injected transient fault) — as opposed to a deterministic
/// Error (malformed input, violated invariant), which retrying can only
/// repeat. The serving stack classifies on this split: EnginePool retries
/// transient shard failures a bounded number of times and BatchServer
/// retries transient dispatch failures before falling back to bisection,
/// while deterministic errors propagate immediately.
class TransientError : public Error {
 public:
  explicit TransientError(const std::string& what) : Error(what) {}
};

[[noreturn]] void fail(const char* file, int line, const std::string& msg);

namespace detail {
/// Stream-collects a message then throws on destruction-free path.
class FailStream {
 public:
  FailStream(const char* file, int line) : file_(file), line_(line) {}
  template <typename T>
  FailStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }
  [[noreturn]] void raise() { fail(file_, line_, os_.str()); }

 private:
  const char* file_;
  int line_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace cortex

namespace cortex::support {

/// Sink for non-fatal warnings (transient-failure retries): conditions
/// worth surfacing that must not throw. The
/// default handler writes "[cortex] warning: <msg>" to stderr.
using WarnHandler = void (*)(const std::string& msg);

/// Installs a warning handler and returns the previous one; nullptr
/// restores the default stderr handler. Thread-safe (atomic swap), but the
/// caller owns the usual test discipline of restoring what it replaced.
WarnHandler set_warn_handler(WarnHandler handler);

/// Reports a warning through the installed handler.
void warn(const std::string& msg);

}  // namespace cortex::support

/// CORTEX_CHECK(cond) << "message"; throws cortex::Error when cond is false.
#define CORTEX_CHECK(cond)                                             \
  if (cond) {                                                          \
  } else                                                               \
    ::cortex::detail::ThrowOnEnd{} &                                   \
        ::cortex::detail::FailStream(__FILE__, __LINE__)               \
            << "Check failed: " #cond " "

namespace cortex::detail {
/// Helper that triggers FailStream::raise at the end of the full expression.
struct ThrowOnEnd {
  [[noreturn]] friend void operator&(ThrowOnEnd, FailStream& fs) {
    fs.raise();
  }
  [[noreturn]] friend void operator&(ThrowOnEnd, FailStream&& fs) {
    fs.raise();
  }
};
}  // namespace cortex::detail
