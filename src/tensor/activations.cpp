#include "tensor/activations.hpp"

#include <cmath>

namespace cortex::kernels {

float tanh_exact(float x) { return std::tanh(x); }

float sigmoid_exact(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void tanh_vec(const float* a, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = tanh_rational(a[i]);
}

}  // namespace cortex::kernels
