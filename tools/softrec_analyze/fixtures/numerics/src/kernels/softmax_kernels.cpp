#include <cmath>

// Formerly allow-listed: a safe softmax in a kernel still may not
// call libm.
float
rowExp(float x, float m)
{
  return std::exp(x - m);
}
