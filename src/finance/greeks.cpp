#include "finance/greeks.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace binopt::finance {

LatticeFront lattice_front_greeks(const OptionSpec& spec, std::size_t steps) {
  spec.validate();
  BINOPT_REQUIRE(steps >= 2, "Greeks need at least 2 lattice steps");
  const LatticeParams lp = LatticeParams::from(spec, steps);

  detail::FrontRows rows{};

  // Leaf rows, same arithmetic as BinomialPricer::leaf_assets_iterative
  // (all-down leaf, then multiply by u^2 — no pow). With steps == 2 the
  // leaf row IS the time-2 level, so record it here — the induction loop
  // below only visits t < steps.
  std::vector<double> assets(steps + 1);
  std::vector<double> values(steps + 1);
  {
    double s = spec.spot;
    for (std::size_t i = 0; i < steps; ++i) s *= lp.down;
    const double up2 = lp.up * lp.up;
    for (std::size_t k = 0; k <= steps; ++k) {
      assets[k] = s;
      values[k] = spec.payoff(s);
      if (steps == 2) {
        rows.value2[k] = values[k];
        rows.asset2[k] = s;
      }
      s *= up2;
    }
  }

  // Rolling backward induction, operation-for-operation the same as
  // BinomialPricer::price_from_leaves — including its asset recurrence
  // S(t,k) = S(t+1,k) * u, which rounds differently from recomputing the
  // row from spot. Matching it exactly is what makes the returned price
  // (and therefore a GreeksQuote's price field) bit-identical to
  // BinomialPricer::price and to every accelerator/service path built on
  // it. In-place ascending-k updates read only values[k] and values[k+1]
  // from row t+1 before overwriting values[k], so one row suffices.
  const bool american = spec.style == ExerciseStyle::kAmerican;
  for (std::size_t t = steps; t-- > 0;) {
    for (std::size_t k = 0; k <= t; ++k) {
      assets[k] = assets[k] * lp.up;
      const double continuation =
          lp.discount * (lp.prob_up * values[k + 1] + lp.prob_down * values[k]);
      values[k] = american ? std::max(spec.payoff(assets[k]), continuation)
                           : continuation;
      if (t == 2) {
        rows.value2[k] = values[k];
        rows.asset2[k] = assets[k];
      } else if (t == 1) {
        rows.value1[k] = values[k];
        rows.asset1[k] = assets[k];
      }
    }
  }

  return detail::front_from_rows(values[0], rows, lp.dt);
}

namespace detail {

LatticeFront front_from_rows(double price, const FrontRows& rows, double dt) {
  LatticeFront front;
  front.price = price;

  // Delta from the two time-1 nodes.
  front.delta = (rows.value1[1] - rows.value1[0]) /
                (rows.asset1[1] - rows.asset1[0]);

  // Gamma from the three time-2 nodes.
  const double delta_up = (rows.value2[2] - rows.value2[1]) /
                          (rows.asset2[2] - rows.asset2[1]);
  const double delta_dn = (rows.value2[1] - rows.value2[0]) /
                          (rows.asset2[1] - rows.asset2[0]);
  front.gamma =
      (delta_up - delta_dn) / (0.5 * (rows.asset2[2] - rows.asset2[0]));

  // Theta from the recombined middle node two steps ahead (asset price
  // back at S0 there, so the value change is pure time decay).
  front.theta = (rows.value2[1] - front.price) / (2.0 * dt);
  return front;
}

}  // namespace detail

GreeksBumpSet GreeksBumpSet::from(const OptionSpec& spec, std::size_t steps,
                                  double vol_bump, double rate_bump) {
  spec.validate();
  BINOPT_REQUIRE(steps >= 2, "Greeks need at least 2 lattice steps");
  BINOPT_REQUIRE(vol_bump > 0.0 && rate_bump > 0.0, "bumps must be positive");

  GreeksBumpSet set;
  set.vega_up = set.vega_down = set.rho_up = set.rho_down = spec;

  // Vega: the up leg is always feasible (raising vol only widens the
  // arbitrage-free region); the down leg must stay strictly above the
  // lattice floor or pricing it would throw.
  set.vega_up.volatility = spec.volatility + vol_bump;
  const double vol_down = spec.volatility - vol_bump;
  if (vol_down > LatticeParams::min_volatility(spec, steps)) {
    set.vega_down.volatility = vol_down;
  } else {
    set.vega_one_sided = true;  // forward difference off the unbumped spec
  }
  set.vega_divisor = set.vega_up.volatility - set.vega_down.volatility;

  // Rho: a rate shift moves the feasibility bound |r - q| * sqrt(dt)
  // itself, so either direction can become infeasible when the spec's vol
  // sits near the floor (crossing r = 0 against a dividend yield is the
  // classic case). Keep whichever legs survive; if neither does, halve
  // the bump until one direction fits (40 halvings spans ~12 orders of
  // magnitude — failing that, the spec itself sits on the boundary).
  const auto rate_feasible = [&](double rate) {
    OptionSpec probe = spec;
    probe.rate = rate;
    return spec.volatility > LatticeParams::min_volatility(probe, steps);
  };
  double bump = rate_bump;
  bool up_ok = rate_feasible(spec.rate + bump);
  bool down_ok = rate_feasible(spec.rate - bump);
  for (int i = 0; i < 40 && !up_ok && !down_ok; ++i) {
    bump *= 0.5;
    up_ok = rate_feasible(spec.rate + bump);
    down_ok = rate_feasible(spec.rate - bump);
  }
  BINOPT_REQUIRE(up_ok || down_ok,
                 "no feasible rate bump for rho: volatility ", spec.volatility,
                 " sits at the lattice's arbitrage-free boundary");
  if (up_ok) set.rho_up.rate = spec.rate + bump;
  if (down_ok) set.rho_down.rate = spec.rate - bump;
  set.rho_one_sided = !(up_ok && down_ok);
  set.rho_divisor = set.rho_up.rate - set.rho_down.rate;
  return set;
}

Greeks assemble_greeks(const LatticeFront& front, const GreeksBumpSet& set,
                       double vega_up_price, double vega_down_price,
                       double rho_up_price, double rho_down_price) {
  Greeks g;
  g.price = front.price;
  g.delta = front.delta;
  g.gamma = front.gamma;
  g.theta = front.theta;
  g.vega = (vega_up_price - vega_down_price) / set.vega_divisor;
  g.rho = (rho_up_price - rho_down_price) / set.rho_divisor;
  return g;
}

Greeks binomial_greeks(const OptionSpec& spec, std::size_t steps,
                       double vol_bump, double rate_bump) {
  const LatticeFront front = lattice_front_greeks(spec, steps);
  const GreeksBumpSet set =
      GreeksBumpSet::from(spec, steps, vol_bump, rate_bump);
  const BinomialPricer pricer(steps);
  return assemble_greeks(front, set, pricer.price(set.vega_up),
                         pricer.price(set.vega_down),
                         pricer.price(set.rho_up),
                         pricer.price(set.rho_down));
}

}  // namespace binopt::finance
