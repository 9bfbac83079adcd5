// AVX-512 instance of the lattice sweep (lattice_sweep.h; see
// binomial_batch.h for the bitwise-parity argument). This translation unit
// — and only this one — is compiled with -mavx512f -ffp-contract=off
// (src/finance/CMakeLists.txt); callers reach it strictly behind the
// cpu_simd_width() runtime check.
//
// -mavx512f also enables FMA, and GCC implements the AVX-512 arithmetic
// intrinsics as plain vector operators, so without -ffp-contract=off it
// would fuse discount * (p*Vu + q*Vd) into vfmadd and the lanes would no
// longer match the scalar pricer bit for bit.
#include "finance/binomial_batch.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>

#include "finance/lattice_sweep.h"
#else
#include "common/error.h"
#endif

namespace binopt::finance::detail {

#if defined(__x86_64__) || defined(_M_X64)

namespace {

struct Avx512Ops {
  static constexpr std::size_t kLanes = 8;
  using V = __m512d;

  static V load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V zero() { return _mm512_setzero_pd(); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  /// A plain vmaxpd: GCC folds the all-ones mask away. _mm512_max_pd is
  /// the same instruction, but its GCC 12 expansion reads
  /// _mm512_undefined_pd() and trips -Wuninitialized.
  static V max(V a, V b) { return _mm512_maskz_max_pd(0xFF, a, b); }
  static bool none_greater(V a, V b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ) == 0;
  }
};

}  // namespace

std::size_t sweep8_avx512(const LaneParams& lanes, std::size_t steps,
                          double* assets, double* values, double* out,
                          double* rows) {
  return lattice_sweep<Avx512Ops>(lanes, steps, assets, values, out, rows);
}

#else  // non-x86: the dispatcher never selects the vector kernel.

std::size_t sweep8_avx512(const LaneParams&, std::size_t, double*, double*,
                          double*, double*) {
  throw binopt::InvariantError("AVX-512 kernel called on a non-x86 build");
}

#endif

}  // namespace binopt::finance::detail
