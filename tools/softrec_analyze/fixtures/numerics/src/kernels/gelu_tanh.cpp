#include <cmath>

float
gelu(float x)
{
  return 0.5f * x * (1.0f + std::tanh(0.8f * x));
}
