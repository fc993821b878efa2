#include "tensor/activations.hpp"

#include <algorithm>
#include <cmath>

#include "support/logging.hpp"

namespace cortex::kernels {

float tanh_exact(float x) { return std::tanh(x); }

float sigmoid_exact(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void tanh_vec(const float* a, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = tanh_rational(a[i]);
}

void sigmoid_vec(const float* a, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = sigmoid_rational(a[i]);
}

void relu_vec(const float* a, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

float apply_activation(Activation act, float x) {
  switch (act) {
    case Activation::kTanh:
      return tanh_rational(x);
    case Activation::kSigmoid:
      return sigmoid_rational(x);
    case Activation::kRelu:
      return x > 0.0f ? x : 0.0f;
    case Activation::kIdentity:
      return x;
  }
  CORTEX_CHECK(false) << "unknown activation";
  return 0.0f;
}

void apply_activation_vec(Activation act, const float* a, float* out,
                          std::int64_t n) {
  switch (act) {
    case Activation::kTanh:
      tanh_vec(a, out, n);
      return;
    case Activation::kSigmoid:
      sigmoid_vec(a, out, n);
      return;
    case Activation::kRelu:
      relu_vec(a, out, n);
      return;
    case Activation::kIdentity:
      std::copy(a, a + n, out);
      return;
  }
  CORTEX_CHECK(false) << "unknown activation";
}

const char* activation_name(Activation act) {
  switch (act) {
    case Activation::kTanh:
      return "tanh";
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kRelu:
      return "relu";
    case Activation::kIdentity:
      return "identity";
  }
  return "?";
}

}  // namespace cortex::kernels
