#include "fp16/simd_math.hpp"

float
rowSum(softrec::SimdBackend backend, const float *x, float *out,
       long n)
{
  const float m = softrec::maxSpan(backend, x, n);
  return softrec::expSpan(backend, x, m, out, n);
}
