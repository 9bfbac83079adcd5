// Vectorized batch front-end for the CRR reference pricer (DESIGN.md §2.6).
//
// The paper's Xeon X5450 baseline — and the service's degrade-to-cpu
// route — ran the backward induction one option at a time in scalar
// double. This pricer processes eight options per instruction with
// AVX-512 (four with AVX2): the lattice loop is identical, but each
// arithmetic op acts on a lane per option (structure-of-arrays,
// lane-interleaved scratch), so the per-option operation SEQUENCE is
// exactly the scalar pricer's.
//
// Bitwise parity, not just tolerance: vmulpd/vaddpd/vsubpd/vmaxpd are the
// same correctly-rounded IEEE-754 operations as their scalar SSE2
// counterparts, and the kernels never fuse a multiply into an add (both
// ISA TUs are built with -ffp-contract=off; baseline x86-64 has no FMA).
// One node loop serves every lane shape without a lane select: put lanes
// run the lattice on negated spot and strike (negation is exact and
// round-to-nearest is sign-symmetric, so s - K on them IS K - s), and
// each lane's exercise strike is its signed K when American and +inf when
// European, so max(a - Kx, continuation) is the early-exercise max or the
// continuation itself. Every price is therefore bit-identical to
// BinomialPricer::price (asserted by tests/finance/test_binomial_batch.cpp),
// which is what lets the PricingService keep its bit-exact parity gates
// while the CPU backend runs 8-wide.
//
// The same sweep can record the lattice's t in {1, 2} rows, so fronts_into
// computes a whole book's delta/gamma/theta fronts from the traversal that
// prices it, bit-identical to the scalar lattice_front_greeks.
//
// In a lane group of only calls or only puts, the sweep skips the nodes
// every reachable leaf of which pays +0 in every lane: their value is
// provably the +0 the row already holds, so they only roll their asset up
// (nodes_skipped() counts them).
//
// An American call with no dividend and r > 0 whose lattice passes a
// rounding-margin guard (early_exercise_never_wins) never exercises in FP
// either, so it gets the European +inf exercise strike, and a group of
// only such lanes and European ones runs a four-op node loop, the
// continuation alone, with the same bits (DESIGN.md §2.6). At 8 and 4
// lanes that loop advances two levels per pass over the row, each node
// still from the same two children in the same op order.
//
// Dispatch is resolved at runtime: AVX-512F -> 8 lanes, else AVX2 -> 4
// lanes, else scalar. BINOPT_SIMD=off (or 0, scalar) forces scalar, and
// set_simd_override forces a width. The scalar path is the same sweep with
// one lane and reused scratch, so no width allocates in steady state.
#pragma once

#include <cstddef>
#include <vector>

#include "finance/binomial.h"
#include "finance/greeks.h"
#include "finance/option.h"

namespace binopt::finance {

namespace detail {

/// Widest lane group any kernel prices at once.
inline constexpr std::size_t kMaxLanes = 8;

/// Per-lane constants for one lane group (structure of arrays; a W-lane
/// kernel reads the first W entries). Put lanes hold -spot and -strike.
/// `exercise_strike` is the signed strike on American lanes and +inf on
/// European ones and on American calls early_exercise_never_wins admits;
/// a group whose every lane holds +inf runs the four-op loop. `dt` is not
/// read by the kernels, only by the front formulas.
struct alignas(64) LaneParams {
  double dt[kMaxLanes];
  double spot[kMaxLanes];
  double strike[kMaxLanes];
  double exercise_strike[kMaxLanes];
  double up[kMaxLanes];
  double down[kMaxLanes];
  double prob_up[kMaxLanes];
  double prob_down[kMaxLanes];
  double discount[kMaxLanes];
};

/// One lattice node of lane-interleaved scratch: a 64-byte-aligned row of
/// kMaxLanes doubles, so an 8-lane load or store touches one cache line.
struct alignas(64) LaneRow {
  double lane[kMaxLanes];
};

/// Row capture of one W-lane sweep: 10 node rows of W lane-interleaved
/// doubles, in FrontRows order (asset2[3], value2[3], asset1[2],
/// value1[2]), so a one-lane capture IS a FrontRows.
inline constexpr std::size_t kFrontRowCount = 10;

/// The vector kernels (binomial_avx512.cpp, binomial_avx2.cpp — each the
/// only TU built with its ISA flags): one lattice sweep over 8 or 4
/// options. `assets`/`values` are lane-interleaved scratch of
/// W*(steps+1) doubles; `rows` is null or kFrontRowCount*W doubles.
/// Returns the node rows the sweep skipped as provably +0. Never call one
/// the CPU lacks (see BatchPricer::cpu_simd_width).
std::size_t sweep8_avx512(const LaneParams& lanes, std::size_t steps,
                          double* assets, double* values, double* out,
                          double* rows);
std::size_t sweep4_avx2(const LaneParams& lanes, std::size_t steps,
                        double* assets, double* values, double* out,
                        double* rows);

/// The exercise-free guard of DESIGN.md §2.6: true when `spec` is a call
/// with no dividend and r > 0 whose lattice at `steps` steps (per-step
/// `discount`, computed leaf assets `bottom` at k = 0 and `top` at
/// k = steps) keeps every asset normal and finite and satisfies
/// K*(1 - disc) > 24 * steps * 2^-53 * (top + K). On such a lane the
/// sweep's max(a - K, c) returns c at every node, so an American lane may
/// carry exercise_strike = +inf bit for bit.
bool early_exercise_never_wins(const OptionSpec& spec, double discount,
                               std::size_t steps, double bottom, double top);

}  // namespace detail

class BatchPricer {
public:
  explicit BatchPricer(std::size_t steps,
                       ParamConvention convention =
                           ParamConvention::kStandardCrr);

  [[nodiscard]] std::size_t steps() const { return steps_; }

  /// Prices specs[0..n) into out[0..n); every price is bit-identical to
  /// BinomialPricer(steps).price(specs[i]). Groups of simd_width() lanes
  /// first, then (8-lane dispatch) one 4-lane group if at least 4 remain,
  /// then scalar. A group none of whose lanes can exercise early (European
  /// lanes and admitted American calls) runs the four-op loop, any other
  /// the seven-op one. Scratch is reused across calls, so steady-state
  /// invocations perform no heap allocation.
  void price_into(const OptionSpec* specs, std::size_t n, double* out);

  /// Lattice fronts of specs[0..n) into out[0..n), grouped and looped
  /// like price_into; every field is bit-identical to
  /// lattice_front_greeks(specs[i], steps()) (for the standard CRR
  /// convention). Needs steps() >= 2; allocates nothing.
  void fronts_into(const OptionSpec* specs, std::size_t n, LatticeFront* out);

  /// Node updates skipped since construction: nodes every reachable leaf
  /// of which pays +0, whose value the sweep leaves at +0 instead of
  /// recomputing it (DESIGN.md §2.6). A skipped row of a W-lane group
  /// counts W: one node update per option.
  [[nodiscard]] std::size_t nodes_skipped() const { return nodes_skipped_; }

  /// Widest kernel the running CPU supports: 8 (AVX-512F), 4 (AVX2)
  /// or 1 (scalar).
  [[nodiscard]] static std::size_t cpu_simd_width();
  /// Lanes price_into will use: set_simd_override's forced width if set,
  /// else 1 when BINOPT_SIMD is off, 0 or scalar, else cpu_simd_width().
  /// Throws PreconditionError naming BINOPT_SIMD on any other non-empty
  /// value, forced width or not (the constructor calls it, so a bad value
  /// stops a pricer from being built). Re-read per call.
  [[nodiscard]] static std::size_t simd_width();
  /// simd_width() > 1.
  [[nodiscard]] static bool simd_enabled();
  /// Test/bench hook: -1 = automatic (env + CPU), 0 = force scalar,
  /// 4 or 8 = force that width (throws PreconditionError if the CPU lacks
  /// it).
  static void set_simd_override(int lanes);

private:
  void sweep(const detail::LaneParams& lanes, std::size_t width, double* out,
             double* rows);

  std::size_t steps_;
  ParamConvention convention_;
  std::vector<detail::LaneRow> lane_assets_;  ///< steps+1 rows, interleaved
  std::vector<detail::LaneRow> lane_values_;
  std::size_t nodes_skipped_ = 0;
};

}  // namespace binopt::finance
