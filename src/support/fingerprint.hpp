#pragma once
// Canonical structural fingerprints: a typed, order-sensitive byte
// encoding of a composite structure plus a 64-bit digest. The plan cache
// (exec/plan_cache.hpp) keys compiled artifacts on fingerprints of
// (ModelDef, Schedule); key equality compares the full byte string, so a
// digest collision can never alias two different keys.
//
// Each layer contributes fingerprint() overloads next to its own types:
//   ra::fingerprint(Expr / OpRef / Model / Schedule),
//   models::fingerprint(CellOp / CellProgram / ModelDef).
// Every append writes a leading type byte, and strings are
// length-prefixed, so adjacent fields can never re-associate ("ab" + "c"
// encodes differently from "a" + "bc").
//
// Fingerprinting is the whole cost of a warm engine construction, so the
// builder is kept inline and the digest is computed once, word-wise, in
// finish() (a byte-wise FNV loop is a serial multiply chain an order of
// magnitude slower — bench_plan_cache holds the line here).

#include <cstdint>
#include <cstring>
#include <string>

namespace cortex::support {

/// A finished fingerprint: canonical bytes + digest of those bytes.
struct Fingerprint {
  std::string bytes;
  std::uint64_t digest = 0;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.digest == b.digest && a.bytes == b.bytes;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }
};

/// Hash functor for unordered_map keys (the digest already mixes well).
struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const {
    return static_cast<std::size_t>(f.digest);
  }
};

/// Accumulates typed fields into the canonical byte string.
class FingerprintBuilder {
 public:
  FingerprintBuilder() { bytes_.reserve(4096); }

  /// Structural marker: open/close of a composite, enum discriminant.
  void tag(char c) { bytes_.push_back(c); }
  void add(bool v) {
    bytes_.push_back('b');
    bytes_.push_back(v ? 1 : 0);
  }
  void add(std::int64_t v) {
    bytes_.push_back('i');
    raw(&v, sizeof(v));
  }
  void add(double v) {
    // Bit pattern, not value: distinguishes -0.0 from 0.0 and is exact
    // for NaN payloads; equal values always encode equally for the specs
    // and schedules we fingerprint (nobody stores a NaN knob on purpose).
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    bytes_.push_back('d');
    raw(&bits, sizeof(bits));
  }
  void add(const std::string& s) {
    bytes_.push_back('s');
    const std::int64_t n = static_cast<std::int64_t>(s.size());
    raw(&n, sizeof(n));
    bytes_.append(s);
  }
  /// Without these, string literals would bind to the bool overload and
  /// narrower integers would be ambiguous.
  void add(const char* s) { add(std::string(s)); }
  void add(int v) { add(static_cast<std::int64_t>(v)); }

  /// Compact forms for the hot expression/operator walk (fingerprinting
  /// is the whole cost of a warm engine construction). Injective like the
  /// wide forms: distinct leading type bytes, length-prefixed payloads.
  /// Small unsigned value (enum discriminant, arity): 2 bytes total.
  void small(std::uint8_t v) {
    bytes_.push_back('u');
    bytes_.push_back(static_cast<char>(v));
  }
  /// Short string (identifier): 1-byte length prefix when it fits.
  void add_short(const std::string& s) {
    if (s.size() >= 0xff) {
      add(s);
      return;
    }
    bytes_.push_back('t');
    bytes_.push_back(static_cast<char>(s.size()));
    bytes_.append(s);
  }
  /// Count prefix: compact when small, wide (and distinct) otherwise.
  void count(std::size_t n) {
    if (n < 0xff)
      small(static_cast<std::uint8_t>(n));
    else
      add(static_cast<std::int64_t>(n));
  }

  Fingerprint finish() const;

 private:
  void raw(const void* p, std::size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
  }

  std::string bytes_;
};

}  // namespace cortex::support
