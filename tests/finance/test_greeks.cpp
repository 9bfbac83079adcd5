#include "finance/greeks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "finance/binomial_batch.h"
#include "finance/black_scholes.h"

namespace binopt::finance {
namespace {

OptionSpec euro_call() {
  OptionSpec spec;
  spec.spot = 100.0;
  spec.strike = 100.0;
  spec.rate = 0.05;
  spec.volatility = 0.20;
  spec.maturity = 1.0;
  spec.type = OptionType::kCall;
  spec.style = ExerciseStyle::kEuropean;
  return spec;
}

TEST(Greeks, EuropeanCallDeltaMatchesBlackScholes) {
  const OptionSpec spec = euro_call();
  const Greeks g = binomial_greeks(spec, 2048);
  const double bs_delta = norm_cdf(black_scholes_d1(spec));
  EXPECT_NEAR(g.delta, bs_delta, 5e-3);
}

TEST(Greeks, EuropeanVegaMatchesBlackScholes) {
  const OptionSpec spec = euro_call();
  const Greeks g = binomial_greeks(spec, 1024);
  EXPECT_NEAR(g.vega, black_scholes_vega(spec), 0.05);
}

TEST(Greeks, CallDeltaInUnitInterval) {
  OptionSpec spec = euro_call();
  spec.style = ExerciseStyle::kAmerican;
  for (double k : {60.0, 100.0, 150.0}) {
    spec.strike = k;
    const Greeks g = binomial_greeks(spec, 256);
    EXPECT_GE(g.delta, 0.0) << "strike " << k;
    EXPECT_LE(g.delta, 1.0) << "strike " << k;
  }
}

TEST(Greeks, PutDeltaNegative) {
  OptionSpec spec = euro_call();
  spec.type = OptionType::kPut;
  spec.style = ExerciseStyle::kAmerican;
  const Greeks g = binomial_greeks(spec, 256);
  EXPECT_LT(g.delta, 0.0);
  EXPECT_GE(g.delta, -1.0);
}

TEST(Greeks, GammaPositive) {
  const Greeks g = binomial_greeks(euro_call(), 512);
  EXPECT_GT(g.gamma, 0.0);
}

TEST(Greeks, ThetaNegativeForAtmCall) {
  const Greeks g = binomial_greeks(euro_call(), 512);
  EXPECT_LT(g.theta, 0.0);
}

TEST(Greeks, RhoPositiveForCallNegativeForPut) {
  OptionSpec spec = euro_call();
  EXPECT_GT(binomial_greeks(spec, 256).rho, 0.0);
  spec.type = OptionType::kPut;
  EXPECT_LT(binomial_greeks(spec, 256).rho, 0.0);
}

TEST(Greeks, PriceFieldMatchesPricer) {
  const OptionSpec spec = euro_call();
  EXPECT_NEAR(binomial_greeks(spec, 256).price,
              BinomialPricer(256).price(spec), 1e-12);
}

TEST(Greeks, RejectsTinyTrees) {
  EXPECT_THROW((void)binomial_greeks(euro_call(), 1), PreconditionError);
}

// ---------------------------------------------------------------------------
// Decomposition: binomial_greeks must be exactly the composition of its
// three published pieces — the contract GreeksService relies on for
// cross-path bitwise parity.

TEST(Greeks, ComposesFromFrontBumpSetAndAssembly) {
  const OptionSpec spec = euro_call();
  constexpr std::size_t kSteps = 256;
  const Greeks direct = binomial_greeks(spec, kSteps);

  const LatticeFront front = lattice_front_greeks(spec, kSteps);
  const GreeksBumpSet set = GreeksBumpSet::from(spec, kSteps);
  const BinomialPricer pricer(kSteps);
  const Greeks composed = assemble_greeks(
      front, set, pricer.price(set.vega_up), pricer.price(set.vega_down),
      pricer.price(set.rho_up), pricer.price(set.rho_down));

  EXPECT_EQ(direct.price, composed.price);  // bitwise, all six
  EXPECT_EQ(direct.delta, composed.delta);
  EXPECT_EQ(direct.gamma, composed.gamma);
  EXPECT_EQ(direct.theta, composed.theta);
  EXPECT_EQ(direct.vega, composed.vega);
  EXPECT_EQ(direct.rho, composed.rho);
}

TEST(Greeks, LatticeFrontMatchesPricerBitwise) {
  // The rolling-row induction must reproduce BinomialPricer::price
  // bit-for-bit, including the steps == 2 edge where the recorded time-2
  // level is the leaf row itself.
  for (const std::size_t steps : {std::size_t{2}, std::size_t{3},
                                  std::size_t{64}, std::size_t{257}}) {
    OptionSpec spec = euro_call();
    spec.style = ExerciseStyle::kAmerican;
    spec.type = OptionType::kPut;
    EXPECT_EQ(lattice_front_greeks(spec, steps).price,
              BinomialPricer(steps).price(spec))
        << "steps " << steps;
  }
}

// BatchPricer::fronts_into refuses the same tiny trees as
// lattice_front_greeks; its bitwise parity with it at every kernel width
// is tested beside the other widths in test_binomial_batch.cpp.
TEST(FrontsInto, RejectsTinyTreesAndHandlesEmptyBooks) {
  BatchPricer one_step(1);
  const OptionSpec spec = euro_call();
  LatticeFront front;
  EXPECT_THROW(one_step.fronts_into(&spec, 1, &front), PreconditionError);
  BatchPricer pricer(8);
  pricer.fronts_into(nullptr, 0, nullptr);  // no-op, must not crash
}

// ---------------------------------------------------------------------------
// Bump-underflow regression (the bug this PR fixes): at sigma = 5e-5 the
// old code clamped the down-vol leg to max(vol - bump, 1e-6) — an invalid
// lattice (pricing throws) — and still divided the difference by the
// nominal 2*bump, silently halving one-sided vegas that did survive.

TEST(GreeksBumps, TinyVolZeroRateDegradesVegaToForwardDifference) {
  OptionSpec spec = euro_call();
  spec.rate = 0.0;
  spec.volatility = 5e-5;  // default bump 1e-4 would shoot past zero
  constexpr std::size_t kSteps = 64;

  const GreeksBumpSet set = GreeksBumpSet::from(spec, kSteps);
  EXPECT_TRUE(set.vega_one_sided);
  // The down leg IS the unbumped spec; the divisor is the one-sided width.
  EXPECT_EQ(set.vega_down.volatility, spec.volatility);
  EXPECT_EQ(set.vega_divisor, set.vega_up.volatility - spec.volatility);
  EXPECT_GT(set.vega_divisor, 0.0);

  const Greeks g = binomial_greeks(spec, kSteps);
  EXPECT_TRUE(std::isfinite(g.vega));
  EXPECT_TRUE(std::isfinite(g.rho));
  // Forward-difference check against the legs themselves: the clamped
  // divisor must be the width actually priced, not the nominal 2*bump.
  const BinomialPricer pricer(kSteps);
  const double expected = (pricer.price(set.vega_up) - pricer.price(spec)) /
                          set.vega_divisor;
  EXPECT_EQ(g.vega, expected);
}

TEST(GreeksBumps, CentralVegaKeptWhenBothLegsFeasible) {
  const GreeksBumpSet set = GreeksBumpSet::from(euro_call(), 64);
  EXPECT_FALSE(set.vega_one_sided);
  EXPECT_FALSE(set.rho_one_sided);
  EXPECT_EQ(set.vega_up.volatility, euro_call().volatility + 1e-4);
  EXPECT_EQ(set.vega_down.volatility, euro_call().volatility - 1e-4);
  EXPECT_EQ(set.vega_divisor,
            set.vega_up.volatility - set.vega_down.volatility);
}

TEST(GreeksBumps, RhoClampsTheInfeasibleDirection) {
  // r = 1e-4, vol = 8e-5, steps = 4 (sqrt(dt) = 0.5): bumping the rate UP
  // to 2e-4 pushes the feasibility floor (|r|*sqrt(dt)*1.02 ~ 1.02e-4)
  // past the vol, while bumping DOWN to 0 is fine — a backward difference.
  OptionSpec spec = euro_call();
  spec.rate = 1e-4;
  spec.volatility = 8e-5;
  const GreeksBumpSet set = GreeksBumpSet::from(spec, 4);
  EXPECT_TRUE(set.rho_one_sided);
  EXPECT_EQ(set.rho_up.rate, spec.rate);  // up leg stays unbumped
  EXPECT_EQ(set.rho_down.rate, spec.rate - 1e-4);
  EXPECT_EQ(set.rho_divisor, set.rho_up.rate - set.rho_down.rate);

  const Greeks g = binomial_greeks(spec, 4);
  EXPECT_TRUE(std::isfinite(g.rho));
}

TEST(GreeksBumps, RhoHalvesBumpWhenNeitherDirectionFeasible) {
  // r = 0, vol = 5e-5, steps = 4: at the full 1e-4 width BOTH shifted
  // rates put the floor (1e-4*0.5*1.02 = 5.1e-5) above the vol; one
  // halving brings both back inside. The result is a narrower central
  // difference, never a throw.
  OptionSpec spec = euro_call();
  spec.rate = 0.0;
  spec.volatility = 5e-5;
  const GreeksBumpSet set = GreeksBumpSet::from(spec, 4);
  EXPECT_FALSE(set.rho_one_sided);
  EXPECT_LT(set.rho_divisor, 2e-4);
  EXPECT_GT(set.rho_divisor, 0.0);
  EXPECT_EQ(set.rho_up.rate - spec.rate, spec.rate - set.rho_down.rate);
  EXPECT_TRUE(std::isfinite(binomial_greeks(spec, 4).rho));
}

TEST(GreeksBumps, RejectsNonPositiveBumps) {
  EXPECT_THROW((void)GreeksBumpSet::from(euro_call(), 64, 0.0, 1e-4),
               PreconditionError);
  EXPECT_THROW((void)GreeksBumpSet::from(euro_call(), 64, 1e-4, -1e-4),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Theta sign/units pin (satellite 3): the interior-node theta must agree
// with an honest central finite difference in MATURITY, -(P(T+h) -
// P(T-h)) / (2h), in sign, units (per year) and magnitude, for every
// style x type combination.

TEST(GreeksTheta, MatchesMaturityFiniteDifferenceAllStyles) {
  constexpr std::size_t kSteps = 512;
  constexpr double kBump = 1e-3;
  const BinomialPricer pricer(kSteps);
  for (const ExerciseStyle style :
       {ExerciseStyle::kEuropean, ExerciseStyle::kAmerican}) {
    for (const OptionType type : {OptionType::kCall, OptionType::kPut}) {
      OptionSpec spec = euro_call();
      spec.style = style;
      spec.type = type;
      const Greeks g = binomial_greeks(spec, kSteps);

      OptionSpec longer = spec;
      longer.maturity = spec.maturity + kBump;
      OptionSpec shorter = spec;
      shorter.maturity = spec.maturity - kBump;
      const double fd_theta =
          -(pricer.price(longer) - pricer.price(shorter)) / (2.0 * kBump);

      EXPECT_NEAR(g.theta, fd_theta,
                  std::max(0.05 * std::abs(fd_theta), 0.05))
          << "style " << static_cast<int>(style) << " type "
          << static_cast<int>(type);
      if (type == OptionType::kCall) {
        EXPECT_LT(g.theta, 0.0);  // ATM call decays
      }
    }
  }
}

}  // namespace
}  // namespace binopt::finance
