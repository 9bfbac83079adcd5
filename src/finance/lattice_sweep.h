// One CRR lattice sweep over W option lanes, written once over a lane-ops
// struct and instantiated by each kernel TU: binomial_avx512.cpp (8 lanes),
// binomial_avx2.cpp (4) and binomial_batch.cpp (1, scalar). See
// binomial_batch.h for the bitwise-parity argument and DESIGN.md §2.6.
//
// Include this ONLY from a kernel TU. Everything here has internal linkage
// (anonymous namespace), so each TU keeps its own copy compiled for its own
// ISA. With external linkage the template instances would be one COMDAT
// symbol across TUs, and the linker could keep the AVX-512 copy for the
// AVX2 or scalar caller: SIGILL on an AVX2-only host.
//
// An Ops struct provides, per W-lane vector V: kLanes; load/store
// (unaligned); zero(); mul/add/sub; max with vmaxpd semantics
// (a > b ? a : b, so b on ties and whenever either is NaN).
#pragma once

#include <cstddef>
#include <cstring>

#include "finance/binomial_batch.h"

namespace binopt::finance::detail {
namespace {

/// Copies level t in {1, 2} (t+1 nodes of assets, then of values) into its
/// slot of the row capture: t = 2 at rows[0, 6W), t = 1 at rows[6W, 10W).
template <std::size_t W>
inline void capture_level(std::size_t t, const double* assets,
                          const double* values, double* rows) {
  const std::size_t doubles = (t + 1) * W;
  double* row = rows + (t == 2 ? 0 : 6 * W);
  std::memcpy(row, assets, doubles * sizeof(double));
  std::memcpy(row + doubles, values, doubles * sizeof(double));
}

/// Prices kLanes options through one sweep into out[0..kLanes). `assets`
/// and `values` are lane-interleaved scratch of kLanes*(steps+1) doubles;
/// a non-null `rows` (kFrontRowCount*kLanes doubles) receives the t = 2
/// and t = 1 rows, once per level, outside the node loop. Put lanes carry
/// negated assets (LaneParams), and so do their captured asset rows.
template <class Ops>
void lattice_sweep(const LaneParams& lanes, std::size_t steps, double* assets,
                   double* values, double* out, double* rows) {
  constexpr std::size_t W = Ops::kLanes;
  using V = typename Ops::V;
  const V up = Ops::load(lanes.up);
  const V prob_up = Ops::load(lanes.prob_up);
  const V prob_down = Ops::load(lanes.prob_down);
  const V discount = Ops::load(lanes.discount);
  const V exercise_strike = Ops::load(lanes.exercise_strike);

  // Leaves by iterated multiplication — the same multiply chain, in the
  // same order, as BinomialPricer::leaf_assets_iterative, one option per
  // lane — and their payoff max(s - K, 0) with the signed strike.
  {
    const V down = Ops::load(lanes.down);
    const V strike = Ops::load(lanes.strike);
    const V zero = Ops::zero();
    V s = Ops::load(lanes.spot);
    for (std::size_t i = 0; i < steps; ++i) s = Ops::mul(s, down);
    const V up2 = Ops::mul(up, up);
    for (std::size_t k = 0; k <= steps; ++k) {
      Ops::store(assets + W * k, s);
      Ops::store(values + W * k, Ops::max(Ops::sub(s, strike), zero));
      s = Ops::mul(s, up2);
    }
  }
  // With steps == 2 the leaf row IS the t = 2 level; the induction below
  // only visits t < steps.
  if (rows != nullptr && steps == 2) capture_level<W>(2, assets, values, rows);

  // Backward induction, seven ops per node and no lane selects. Order of
  // operations per lane matches the scalar rolling-array loop exactly:
  // asset roll-up first, then discount * (p*V_up + q*V_down) with the
  // products rounded before the add (no FMA), then the early-exercise max
  // against the exercise strike (+inf on European lanes, so the max
  // always returns the continuation there).
  for (std::size_t t = steps; t-- > 0;) {
    for (std::size_t k = 0; k <= t; ++k) {
      const V a = Ops::mul(Ops::load(assets + W * k), up);
      Ops::store(assets + W * k, a);
      const V continuation = Ops::mul(
          discount,
          Ops::add(Ops::mul(prob_up, Ops::load(values + W * (k + 1))),
                   Ops::mul(prob_down, Ops::load(values + W * k))));
      Ops::store(values + W * k,
                 Ops::max(Ops::sub(a, exercise_strike), continuation));
    }
    if (rows != nullptr && (t == 2 || t == 1)) {
      capture_level<W>(t, assets, values, rows);
    }
  }
  Ops::store(out, Ops::load(values));
}

}  // namespace
}  // namespace binopt::finance::detail
