// AVX2 instance of the lattice sweep (lattice_sweep.h; see binomial_batch.h
// for the bitwise-parity argument). This translation unit — and only this
// one — is compiled with -mavx2 -ffp-contract=off
// (src/finance/CMakeLists.txt); callers reach it strictly behind the
// cpu_simd_width() runtime check, so the library still runs on pre-AVX2
// hosts. No FMA and no fused intrinsics: every multiply and add rounds
// exactly where the scalar pricer rounds.
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

struct Avx2Ops {
  static constexpr std::size_t kLanes = 4;
  using V = __m256d;

  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V zero() { return _mm256_setzero_pd(); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V max(V a, V b) { return _mm256_max_pd(a, b); }
  static bool none_greater(V a, V b) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GT_OQ)) == 0;
  }
};

}  // namespace

std::size_t sweep4_avx2(const LaneParams& lanes, std::size_t steps,
                        double* assets, double* values, double* out,
                        double* rows) {
  return lattice_sweep<Avx2Ops>(lanes, steps, assets, values, out, rows);
}

#else  // non-x86: the dispatcher never selects the vector kernel.

std::size_t sweep4_avx2(const LaneParams&, std::size_t, double*, double*,
                        double*, double*) {
  throw binopt::InvariantError("AVX2 kernel called on a non-x86 build");
}

#endif

}  // namespace binopt::finance::detail
