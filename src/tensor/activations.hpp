#pragma once
// Activation functions. The paper (§A.5) uses rational approximations of
// tanh and sigmoid so CPU SIMD units can be exploited; we provide both the
// exact libm versions (reference) and the rational approximations that
// Cortex-generated code uses. All frameworks in the evaluation are
// configured with the same variant so outputs stay bit-comparable.

#include <cstdint>
#include <cstring>

namespace cortex::kernels {

/// Exact tanh via libm.
float tanh_exact(float x);
/// Exact logistic sigmoid via libm.
float sigmoid_exact(float x);

/// `c ? a : b` as a bitwise blend. GCC does not if-convert a float
/// select under its default -ftrapping-math, so a loop through `?:` on
/// floats vectorizes only where mask registers exist (AVX-512); the
/// integer blend vectorizes at every width.
inline float select_bits(bool c, float a, float b) {
  std::uint32_t ab = 0;
  std::uint32_t bb = 0;
  std::memcpy(&ab, &a, sizeof ab);
  std::memcpy(&bb, &b, sizeof bb);
  const std::uint32_t m = 0u - static_cast<std::uint32_t>(c);
  const std::uint32_t r = (ab & m) | (bb & ~m);
  float out = 0.0f;
  std::memcpy(&out, &r, sizeof out);
  return out;
}

/// Rational (Padé-style) approximation of tanh; max abs error ~3e-5 on
/// [-5,5], clamped to ±1 outside. Inline and branch-free so loops over
/// panels (e.g. CompiledEltwise::eval_panel) vectorize through it on
/// every instruction set: the quotient is always computed (it may be
/// NaN outside [-5, 5]) and the clamp selects its bits away.
inline float tanh_rational(float x) {
  // Lambert-style continued-fraction expansion truncated at x^7 over x^6;
  // accurate to ~3e-5 on [-5, 5]. Outside that, tanh saturates.
  const float x2 = x * x;
  const float num = x * (135135.0f + x2 * (17325.0f + x2 * (378.0f + x2)));
  const float den =
      135135.0f + x2 * (62370.0f + x2 * (3150.0f + x2 * 28.0f));
  return select_bits(x > 5.0f, 1.0f,
                     select_bits(x < -5.0f, -1.0f, num / den));
}
/// Sigmoid derived from tanh_rational: 0.5 * (1 + tanh(x/2)).
inline float sigmoid_rational(float x) {
  return 0.5f * (1.0f + tanh_rational(0.5f * x));
}

/// out[i] = tanh(a[i]) using the rational approximation.
void tanh_vec(const float* a, float* out, std::int64_t n);

}  // namespace cortex::kernels
