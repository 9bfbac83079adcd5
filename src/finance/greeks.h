// Binomial Greeks — first/second-order sensitivities from the lattice.
//
// Not part of the paper's headline experiments, but a standard companion
// of any production binomial pricer (the trader use case consumes vega for
// quoting and delta for hedging), and a good numerical stress of the tree.
//
// The computation is split into three reusable pieces so that every pricing
// path — the direct CPU function here, the accelerator batch pipeline, and
// the service-side GreeksService (DESIGN.md §2.9) — produces bit-identical
// sensitivities from bit-identical leg prices:
//
//   lattice_front_greeks   price/delta/gamma/theta from the interior tree
//                          nodes at t in {0, 1, 2} (no re-pricing), with
//                          O(steps) memory instead of BinomialTree's
//                          O(steps^2) — arithmetic identical to
//                          BinomialPricer::price_from_leaves
//   GreeksBumpSet          the four vega/rho re-pricing legs plus the
//                          divisors that reassemble the finite differences;
//                          construction clamps bumps that would leave the
//                          lattice's arbitrage-free region to one-sided
//                          differences with the matching divisor
//   assemble_greeks        front + bump-leg prices -> Greeks
//
// binomial_greeks composes the three with a scalar BinomialPricer.
// BatchPricer::fronts_into (binomial_batch.h) computes many fronts at once
// from the vectorised sweep; lattice_front_greeks stays the scalar
// reference it is tested against.
#pragma once

#include <cstddef>

#include "finance/binomial.h"
#include "finance/option.h"

namespace binopt::finance {

/// First- and second-order sensitivities of the option value.
struct Greeks {
  double price = 0.0;
  double delta = 0.0;  ///< dV/dS
  double gamma = 0.0;  ///< d2V/dS2
  double theta = 0.0;  ///< dV/dt (per year, negative decay convention)
  double vega = 0.0;   ///< dV/dSigma
  double rho = 0.0;    ///< dV/dr
};

/// Interior-node sensitivities read off the first three lattice levels.
/// Theta follows the per-year negative-decay convention documented on
/// Greeks::theta: the recombined middle node at t = 2*dt has the asset
/// back at spot, so (V(2dt, S0) - V(0, S0)) / (2*dt) is pure time decay.
struct LatticeFront {
  double price = 0.0;
  double delta = 0.0;
  double gamma = 0.0;
  double theta = 0.0;
};

namespace detail {

/// The interior nodes a front is read off: the t = 2 and t = 1 levels of
/// one backward induction, k ascending.
struct FrontRows {
  double asset2[3];
  double value2[3];
  double asset1[2];
  double value1[2];
};

/// Delta, gamma and theta from a sweep's price and t in {1, 2} rows. The
/// one implementation of these formulas: lattice_front_greeks and
/// BatchPricer::fronts_into both end here, so their fronts agree bit for
/// bit whenever their rows do.
[[nodiscard]] LatticeFront front_from_rows(double price, const FrontRows& rows,
                                           double dt);

}  // namespace detail

/// Backward induction that keeps only rolling value/asset rows, recording
/// the t in {0, 1, 2} levels. Node-for-node the same arithmetic as
/// BinomialPricer::price_from_leaves, so the returned price is bit-identical
/// to BinomialPricer::price (and to the accelerator/service paths built on
/// it) — without the O(steps^2) BinomialTree allocation, which matters when
/// a service prices thousands of Greeks requests.
[[nodiscard]] LatticeFront lattice_front_greeks(const OptionSpec& spec,
                                                std::size_t steps);

/// The four re-pricing legs behind vega and rho, with underflow-safe
/// clamping:
///
///   vega  central bump unless vol - vol_bump would fall to (or below) the
///         lattice's arbitrage-free floor (LatticeParams::min_volatility;
///         beyond it p leaves (0,1) and pricing throws) — then the down
///         leg stays the UNBUMPED spec and the divisor shrinks to the
///         one-sided width, i.e. a forward difference
///   rho   central bump unless shifting the rate moves |r - q|*sqrt(dt)
///         past the spec's volatility in one direction (crossing r = 0
///         with a tiny vol is the classic case) — the infeasible leg
///         stays unbumped (forward/backward difference); if neither
///         direction is feasible at full width the bump halves until one
///         is (bounded, deterministic)
///
/// The divisors are always computed from the legs actually priced, so a
/// clamped difference never divides by the nominal 2*bump.
struct GreeksBumpSet {
  OptionSpec vega_up;
  OptionSpec vega_down;  ///< == the unbumped spec when vega_one_sided
  OptionSpec rho_up;     ///< == the unbumped spec when rho backward
  OptionSpec rho_down;   ///< == the unbumped spec when rho forward
  double vega_divisor = 0.0;  ///< vega_up.vol - vega_down.vol
  double rho_divisor = 0.0;   ///< rho_up.rate - rho_down.rate
  bool vega_one_sided = false;
  bool rho_one_sided = false;

  /// Expands one spec. Throws PreconditionError on invalid inputs or when
  /// no feasible rate bump exists even after halving.
  [[nodiscard]] static GreeksBumpSet from(const OptionSpec& spec,
                                          std::size_t steps,
                                          double vol_bump = 1e-4,
                                          double rate_bump = 1e-4);
};

/// Reassembles the finite differences from the four leg prices. All four
/// prices must come from the SAME pricing path (scalar pricer, one
/// accelerator target, or the service on one target) — a one-sided leg's
/// price is the base spec's price on that path, so mixing paths would
/// contaminate the difference with cross-path rounding.
[[nodiscard]] Greeks assemble_greeks(const LatticeFront& front,
                                     const GreeksBumpSet& set,
                                     double vega_up_price,
                                     double vega_down_price,
                                     double rho_up_price,
                                     double rho_down_price);

/// Compute Greeks with a binomial lattice. Delta/gamma/theta come from the
/// interior tree nodes (no re-pricing); vega and rho use central bumps,
/// degrading to one-sided differences near the lattice's feasibility
/// boundary (see GreeksBumpSet).
Greeks binomial_greeks(const OptionSpec& spec, std::size_t steps,
                       double vol_bump = 1e-4, double rate_bump = 1e-4);

}  // namespace binopt::finance
