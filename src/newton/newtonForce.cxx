#include "newtonForce.h"

#include <cmath>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define NEWTON_FORCE_AVX2 1
#endif

namespace newton
{

void ForceReference(const ForceArgs &a, std::size_t b, std::size_t e)
{
  const double *x = a.X, *y = a.Y, *z = a.Z;
  const double *sx = a.SX, *sy = a.SY, *sz = a.SZ, *sm = a.SM;
  double *ax = a.AX, *ay = a.AY, *az = a.AZ;
  const std::size_t nSrc = a.NSrc;
  const bool self = a.Self;
  const double g = a.G, eps2 = a.Eps2;

  for (std::size_t i = b; i < e; ++i)
  {
    double fx = 0.0, fy = 0.0, fz = 0.0;
    const double xi = x[i], yi = y[i], zi = z[i];
    for (std::size_t j = 0; j < nSrc; ++j)
    {
      if (self && j == i)
        continue;
      const double dx = sx[j] - xi;
      const double dy = sy[j] - yi;
      const double dz = sz[j] - zi;
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      const double s = g * sm[j] * inv;
      fx += s * dx;
      fy += s * dy;
      fz += s * dz;
    }
    ax[i] += fx;
    ay[i] += fy;
    az[i] += fz;
  }
}

#ifdef NEWTON_FORCE_AVX2
namespace
{

// AVX2 only: enabling FMA as well would let the compiler fuse the
// mul+add pairs, which rounds once instead of twice and breaks
// bit-exactness with ForceReference (the file is also built with
// -ffp-contract=off so no ISA flag can bring the fusion back).
__attribute__((target("avx2"))) void ForceAvx2(const ForceArgs &a,
                                               std::size_t b, std::size_t e)
{
  constexpr std::size_t W = 4; // targets per register
  const double *sx = a.SX, *sy = a.SY, *sz = a.SZ, *sm = a.SM;
  const std::size_t nSrc = a.NSrc;
  const bool self = a.Self;
  const double g = a.G;
  const __m256d eps2 = _mm256_set1_pd(a.Eps2);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);

  std::size_t i = b;
  for (; i + W <= e; i += W)
  {
    const __m256d xi = _mm256_loadu_pd(a.X + i);
    const __m256d yi = _mm256_loadu_pd(a.Y + i);
    const __m256d zi = _mm256_loadu_pd(a.Z + i);
    __m256d fx = _mm256_setzero_pd();
    __m256d fy = _mm256_setzero_pd();
    __m256d fz = _mm256_setzero_pd();
    for (std::size_t j = 0; j < nSrc; ++j)
    {
      // the scalar loop's expression, one target per lane, same order
      const __m256d dx = _mm256_sub_pd(_mm256_set1_pd(sx[j]), xi);
      const __m256d dy = _mm256_sub_pd(_mm256_set1_pd(sy[j]), yi);
      const __m256d dz = _mm256_sub_pd(_mm256_set1_pd(sz[j]), zi);
      const __m256d r2 = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx),
                                    _mm256_mul_pd(dy, dy)),
                      _mm256_mul_pd(dz, dz)),
        eps2);
      const __m256d inv =
        _mm256_div_pd(one, _mm256_mul_pd(r2, _mm256_sqrt_pd(r2)));
      __m256d s = _mm256_mul_pd(_mm256_set1_pd(g * sm[j]), inv);
      // the lane whose target is source j skips it: zero s before it
      // scales dx, so even the 0/0 of zero softening adds exactly +0
      if (self && j - i < W)
        s = _mm256_andnot_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            lane, _mm256_set1_epi64x(static_cast<long long>(j - i)))),
          s);
      fx = _mm256_add_pd(fx, _mm256_mul_pd(s, dx));
      fy = _mm256_add_pd(fy, _mm256_mul_pd(s, dy));
      fz = _mm256_add_pd(fz, _mm256_mul_pd(s, dz));
    }
    _mm256_storeu_pd(a.AX + i, _mm256_add_pd(_mm256_loadu_pd(a.AX + i), fx));
    _mm256_storeu_pd(a.AY + i, _mm256_add_pd(_mm256_loadu_pd(a.AY + i), fy));
    _mm256_storeu_pd(a.AZ + i, _mm256_add_pd(_mm256_loadu_pd(a.AZ + i), fz));
  }
  ForceReference(a, i, e);
}

bool HasAvx2()
{
  static const bool has = []
  {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
}

} // namespace
#endif

void Force(const ForceArgs &a, std::size_t b, std::size_t e)
{
#ifdef NEWTON_FORCE_AVX2
  if (HasAvx2())
  {
    ForceAvx2(a, b, e);
    return;
  }
#endif
  ForceReference(a, b, e);
}

const char *ForceIsa()
{
#ifdef NEWTON_FORCE_AVX2
  if (HasAvx2())
    return "avx2";
#endif
  return "scalar";
}

} // namespace newton
