#ifndef newtonForce_h
#define newtonForce_h

/// @file newtonForce.h
/// The Newton++ direct force sum over a range of target bodies.
///
/// ForceReference is the plain scalar loop: for each target i in [b, e)
/// it sums the softened attraction of every source j in order 0..nSrc-1
/// and adds the sum to the target's accumulator. Force produces the
/// same bits faster: on hosts with AVX2 it puts one *target* in each of
/// the four vector lanes and walks the sources in the same order, so
/// every lane performs exactly the scalar loop's IEEE operations (sub,
/// mul, add, sqrt, div are correctly rounded in either register file).
/// Nothing is reassociated and nothing is fused, so the result is
/// bit-identical to ForceReference on every host, for every range.

#include <cstddef>

namespace newton
{

/// One force evaluation: the targets (X, Y, Z) accumulate into
/// (AX, AY, AZ) the pull of NSrc sources (SX, SY, SZ, SM). With Self the
/// sources are the targets themselves and the i == j term is skipped.
struct ForceArgs
{
  const double *X = nullptr, *Y = nullptr, *Z = nullptr;
  double *AX = nullptr, *AY = nullptr, *AZ = nullptr;
  const double *SX = nullptr, *SY = nullptr, *SZ = nullptr, *SM = nullptr;
  std::size_t NSrc = 0;
  bool Self = false;
  double G = 1.0;
  double Eps2 = 0.0; ///< softening length squared
};

/// The scalar loop over targets [b, e).
void ForceReference(const ForceArgs &a, std::size_t b, std::size_t e);

/// Bit-identical to ForceReference; uses the widest kernel the CPU runs.
void Force(const ForceArgs &a, std::size_t b, std::size_t e);

/// The kernel Force dispatches to on this host: "avx2" or "scalar".
const char *ForceIsa();

} // namespace newton

#endif
