#pragma once
// Activation functions. The paper (§A.5) uses rational approximations of
// tanh and sigmoid so CPU SIMD units can be exploited; we provide both the
// exact libm versions (reference) and the rational approximations that
// Cortex-generated code uses. All frameworks in the evaluation are
// configured with the same variant so outputs stay bit-comparable.

#include <cstdint>

namespace cortex::kernels {

/// Exact tanh via libm.
float tanh_exact(float x);
/// Exact logistic sigmoid via libm.
float sigmoid_exact(float x);

/// Rational (Padé-style) approximation of tanh; max abs error ~3e-5 on
/// [-5,5], clamped to ±1 outside. Inline so loops over panels (e.g.
/// CompiledEltwise::eval_panel) can vectorize through it: AVX-512 masks
/// the division the branches guard.
inline float tanh_rational(float x) {
  // Lambert-style continued-fraction expansion truncated at x^7 over x^6;
  // accurate to ~3e-5 on [-5, 5]. Outside that, tanh saturates.
  if (x > 5.0f) return 1.0f;
  if (x < -5.0f) return -1.0f;
  const float x2 = x * x;
  const float num = x * (135135.0f + x2 * (17325.0f + x2 * (378.0f + x2)));
  const float den =
      135135.0f + x2 * (62370.0f + x2 * (3150.0f + x2 * 28.0f));
  return num / den;
}
/// Sigmoid derived from tanh_rational: 0.5 * (1 + tanh(x/2)).
inline float sigmoid_rational(float x) {
  return 0.5f * (1.0f + tanh_rational(0.5f * x));
}

/// out[i] = tanh(a[i]) using the rational approximation.
void tanh_vec(const float* a, float* out, std::int64_t n);
/// out[i] = sigmoid(a[i]) using the rational approximation.
void sigmoid_vec(const float* a, float* out, std::int64_t n);
/// out[i] = max(a[i], 0).
void relu_vec(const float* a, float* out, std::int64_t n);

/// Enumeration of pointwise activations used by model definitions and IRs.
enum class Activation { kTanh, kSigmoid, kRelu, kIdentity };

/// Scalar application of an Activation (rational variants).
float apply_activation(Activation act, float x);
/// Vector application of an Activation (rational variants).
void apply_activation_vec(Activation act, const float* a, float* out,
                          std::int64_t n);

/// Printable name ("tanh", "sigmoid", ...).
const char* activation_name(Activation act);

}  // namespace cortex::kernels
