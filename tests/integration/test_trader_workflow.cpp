// End-to-end trader workflow (the paper's Section I use case, extended):
// synthesise market chains at three expiries, invert each into an implied
// -vol curve through the accelerated batched pricer, assemble the curves
// into a surface, query it, and compute desk Greeks — everything through
// the public APIs, on the simulated FPGA accelerator.
#include <gtest/gtest.h>

#include <cmath>

#include "core/service/greeks_service.h"
#include "core/service/pricing_service.h"
#include "core/vol_curve_pipeline.h"
#include "finance/vol_curve.h"
#include "finance/vol_surface.h"

namespace binopt {
namespace {

TEST(TraderWorkflow, ChainsToCurvesToSurfaceToGreeks) {
  const std::size_t steps = 32;   // functional-simulation friendly
  const std::size_t quotes_per_chain = 9;

  finance::OptionSpec base;
  base.spot = 100.0;
  base.rate = 0.03;
  base.type = finance::OptionType::kCall;
  base.style = finance::ExerciseStyle::kAmerican;

  finance::SmileModel smile;
  smile.base_vol = 0.20;
  smile.skew = -0.05;
  smile.smile = 0.06;

  // --- 1. One curve per expiry through the accelerated pipeline ---------
  const std::vector<double> expiries{0.5, 1.0, 2.0};
  std::vector<double> strikes;
  std::vector<double> surface_vols;

  for (double expiry : expiries) {
    finance::OptionSpec chain_base = base;
    chain_base.maturity = expiry;
    const auto quotes = finance::synthesize_chain(
        chain_base, smile, quotes_per_chain, 0.9, 1.1, steps);

    core::VolCurvePipeline::Config config;
    config.target = core::Target::kGpuKernelB;  // exact double path
    config.steps = steps;
    core::VolCurvePipeline pipeline(chain_base, config);
    const core::CurveResult curve = pipeline.solve(quotes);

    if (strikes.empty()) {
      for (const auto& p : curve.curve) strikes.push_back(p.strike);
    }
    for (const auto& point : curve.curve) {
      ASSERT_TRUE(point.converged)
          << "T=" << expiry << " K=" << point.strike;
      surface_vols.push_back(point.implied_vol);
    }
    EXPECT_GT(curve.total_pricings, quotes.size());
  }

  // NOTE: strikes differ slightly per expiry (they ladder off the
  // forward); for the surface we use the first chain's ladder — the
  // later chains' strikes are within the grid hull, which is all
  // bilinear interpolation needs.
  ASSERT_EQ(surface_vols.size(), expiries.size() * strikes.size());

  // --- 2. Surface assembly + sanity ---------------------------------------
  const finance::VolSurface surface(expiries, strikes, surface_vols);
  EXPECT_EQ(surface.calendar_arbitrage_violations(), 0u);

  // Interpolated mid-surface point is close to the generating smile.
  const double t_mid = 0.75;
  const double k_mid = 100.0;
  const double forward = base.spot * std::exp(base.rate * t_mid);
  EXPECT_NEAR(surface.interpolate(t_mid, k_mid),
              smile.vol_at(k_mid, forward), 2e-2);

  // --- 3. Desk Greeks on the 1y chain through the accelerator -------------
  std::vector<finance::OptionSpec> book;
  for (double k : strikes) {
    finance::OptionSpec spec = base;
    spec.maturity = 1.0;
    spec.strike = k;
    spec.volatility = surface.interpolate(1.0, k);
    book.push_back(spec);
  }
  core::ServiceConfig service_config;
  service_config.targets = {core::Target::kGpuKernelB};
  service_config.steps = steps;
  core::PricingService service(service_config);
  core::GreeksService greeks(service);
  const std::vector<core::GreeksQuote> g = greeks.greeks_batch_blocking(book);
  ASSERT_EQ(g.size(), book.size());
  for (const core::GreeksQuote& quote : g) {
    EXPECT_GT(quote.greeks.price, 0.0);
    EXPECT_GE(quote.greeks.delta, -1e-9);
    EXPECT_LE(quote.greeks.delta, 1.0 + 1e-9);
    EXPECT_GT(quote.greeks.vega, 0.0);
  }
  // Deltas fall across the strike ladder (calls).
  EXPECT_GT(g.front().greeks.delta, g.back().greeks.delta);
}

TEST(TraderWorkflow, FpgaTargetDeliversTheSameCurveWithinOperatorError) {
  // The same chain solved on the exact GPU path and on the FPGA path
  // (defective pow): the recovered vols must agree to the 1e-3 class.
  const std::size_t steps = 32;
  finance::OptionSpec base;
  base.spot = 100.0;
  base.rate = 0.03;
  base.maturity = 1.0;
  base.type = finance::OptionType::kCall;
  base.style = finance::ExerciseStyle::kAmerican;
  const auto quotes =
      finance::synthesize_chain(base, finance::SmileModel{}, 7, 0.92, 1.08,
                                steps);

  auto solve_with = [&](core::Target target) {
    core::VolCurvePipeline::Config config;
    config.target = target;
    config.steps = steps;
    core::VolCurvePipeline pipeline(base, config);
    return pipeline.solve(quotes);
  };
  const auto gpu = solve_with(core::Target::kGpuKernelB);
  const auto fpga = solve_with(core::Target::kFpgaKernelB);
  ASSERT_EQ(gpu.curve.size(), fpga.curve.size());
  for (std::size_t i = 0; i < gpu.curve.size(); ++i) {
    EXPECT_NEAR(gpu.curve[i].implied_vol, fpga.curve[i].implied_vol, 5e-3)
        << "strike " << gpu.curve[i].strike;
  }
}

}  // namespace
}  // namespace binopt
