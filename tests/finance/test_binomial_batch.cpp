// BatchPricer parity: every kernel width — 8-lane AVX-512, 4-lane AVX2 and
// scalar — must produce prices BIT-IDENTICAL to the scalar BinomialPricer,
// and Greeks fronts bit-identical to lattice_front_greeks, across option
// types, exercise styles, lattice depths, and every batch tail the group
// dispatch can leave. Also covers the runtime dispatch knobs
// (set_simd_override, BINOPT_SIMD env), and the exercise-free guard that
// lets a group of calls with no dividend run the four-op loop (a census of
// extreme specs against an independent scalar loop). Widths the host CPU
// lacks are skipped.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "finance/binomial.h"
#include "finance/binomial_batch.h"
#include "finance/greeks.h"
#include "finance/workload.h"

namespace binopt::finance {
namespace {

constexpr std::size_t kSteps = 64;

/// Restores the automatic dispatch mode when a test returns.
struct OverrideGuard {
  ~OverrideGuard() { BatchPricer::set_simd_override(-1); }
};

/// Saves BINOPT_SIMD, then restores it when a test returns, so tests that
/// set it (or assert automatic dispatch with it cleared) leave the
/// environment a CI job chose untouched.
class SimdEnvGuard {
public:
  SimdEnvGuard() {
    if (const char* env = std::getenv("BINOPT_SIMD")) saved_ = env;
  }
  ~SimdEnvGuard() {
    if (saved_) {
      setenv("BINOPT_SIMD", saved_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv("BINOPT_SIMD");
    }
  }
  SimdEnvGuard(const SimdEnvGuard&) = delete;
  SimdEnvGuard& operator=(const SimdEnvGuard&) = delete;

private:
  std::optional<std::string> saved_;
};

std::vector<OptionSpec> mixed_batch(std::size_t count) {
  // Calls and puts, American and European, varied moneyness/vol/rate.
  WorkloadConfig config;
  std::vector<OptionSpec> specs = make_random_batch(count, /*seed=*/1234, config);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].type = (i % 2 == 0) ? OptionType::kCall : OptionType::kPut;
    specs[i].style =
        (i % 3 == 0) ? ExerciseStyle::kEuropean : ExerciseStyle::kAmerican;
  }
  return specs;
}

/// Specs on the lattice's numeric edges at `steps` steps, each in every
/// call/put x American/European shape:
///  * strikes equal, bit for bit, to a leaf's and to an interior node's
///    asset, built with the reference's own multiply chain, so the payoff
///    difference is exactly zero there;
///  * sigma 10, T 81: at 64 steps (p ~ 1.3e-5) the top leaf overflows to
///    +inf and the bottom one underflows to a subnormal.
std::vector<OptionSpec> edge_batch(std::size_t steps) {
  OptionSpec base;
  base.volatility = 0.3;
  const std::vector<double> leaves =
      BinomialPricer(steps).leaf_assets_iterative(base);
  const double up = LatticeParams::from(base, steps).up;
  // Node (t, k) is leaf k rolled up steps - t times, as in the induction.
  const std::size_t t = steps / 2;
  double interior = leaves[t / 2];
  for (std::size_t i = t; i < steps; ++i) interior *= up;

  OptionSpec at_leaf = base;
  at_leaf.strike = leaves[steps / 2 + 1];
  OptionSpec at_interior = base;
  at_interior.strike = interior;
  OptionSpec extreme = base;
  extreme.volatility = 10.0;
  extreme.maturity = 81.0;
  if (steps == 64) {  // the inputs really reach the edges
    const std::vector<double> edges =
        BinomialPricer(steps).leaf_assets_iterative(extreme);
    EXPECT_TRUE(std::isinf(edges.back()));
    EXPECT_EQ(std::fpclassify(edges.front()), FP_SUBNORMAL);
  }

  std::vector<OptionSpec> specs;
  for (OptionSpec spec : {at_leaf, at_interior, extreme}) {
    for (const OptionType type : {OptionType::kCall, OptionType::kPut}) {
      for (const ExerciseStyle style :
           {ExerciseStyle::kAmerican, ExerciseStyle::kEuropean}) {
        spec.type = type;
        spec.style = style;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

/// mixed_batch(count) followed by edge_batch(steps).
std::vector<OptionSpec> mixed_and_edge_batch(std::size_t count,
                                             std::size_t steps) {
  std::vector<OptionSpec> specs = mixed_batch(count);
  const std::vector<OptionSpec> edges = edge_batch(steps);
  specs.insert(specs.end(), edges.begin(), edges.end());
  return specs;
}

/// Books whose lane groups are all calls or all puts at every width, so
/// the sweep's zero region applies: the paper's 2000-call strike curve,
/// its all-put mirror as American puts (seven-op loop) and as European
/// puts (four-op loop, region at the top), and random all-call and all-put
/// books (American and European alternating). Each is a multiple of 8
/// long.
std::vector<std::vector<OptionSpec>> homogeneous_books() {
  std::vector<std::vector<OptionSpec>> books;
  books.push_back(make_curve_batch());
  for (const ExerciseStyle style :
       {ExerciseStyle::kAmerican, ExerciseStyle::kEuropean}) {
    books.push_back(make_curve_batch());
    for (OptionSpec& spec : books.back()) {
      spec.type = OptionType::kPut;
      spec.style = style;
    }
  }
  for (const OptionType type : {OptionType::kCall, OptionType::kPut}) {
    WorkloadConfig config;
    config.type = type;
    books.push_back(make_random_batch(64, /*seed=*/77, config));
    for (std::size_t i = 0; i < books.back().size(); i += 2) {
      books.back()[i].style = ExerciseStyle::kEuropean;
    }
  }
  return books;
}

/// The smallest volatility LatticeParams::from accepts at `steps` steps
/// for `spec` (rate and dividend 0): below it exp(sigma * sqrt(dt))
/// rounds to 1 and the risk-neutral probability is 0/0.
double smallest_volatility(OptionSpec spec, std::size_t steps) {
  const auto accepted = [&](double sigma) {
    spec.volatility = sigma;
    try {
      (void)LatticeParams::from(spec, steps);
      return true;
    } catch (const PreconditionError&) {
      return false;
    }
  };
  const double root_dt = std::sqrt(spec.maturity / static_cast<double>(steps));
  double lo = std::ldexp(1.0, -54) / root_dt;  // exp rounds to 1: refused
  double hi = std::ldexp(1.0, -51) / root_dt;
  EXPECT_FALSE(accepted(lo));
  EXPECT_TRUE(accepted(hi));
  while (std::nextafter(lo, hi) != hi) {
    const double mid = lo + (hi - lo) / 2;
    (accepted(mid) ? hi : lo) = mid;
  }
  return hi;
}

/// One edge of the zero region at `steps` steps, as a book of 8 `type`
/// options (American and European alternating), so every lane group at
/// every width is one of it.
struct RegionEdge {
  const char* name;
  std::vector<OptionSpec> book;
  bool has_region;  ///< some node every reachable leaf of which pays +0
};

std::vector<RegionEdge> region_edges(std::size_t steps, OptionType type) {
  OptionSpec base;
  base.volatility = 0.3;
  base.type = type;
  // The strike IS the asset of the region's edge leaf, so that leaf pays
  // max(K - K, 0) = +0 and the region ends on it: its top leaf for calls,
  // its bottom one for puts.
  OptionSpec at_edge = base;
  at_edge.strike = BinomialPricer(steps).leaf_assets_iterative(base)[steps / 2];
  // sigma*sqrt(dt) as small as validate() allows: u is 1 + 2^-52, so
  // every asset lies within a few hundred ulps of the strike.
  OptionSpec tiny_step = base;
  tiny_step.rate = 0.0;
  tiny_step.volatility = smallest_volatility(tiny_step, steps);
  EXPECT_EQ(LatticeParams::from(tiny_step, steps).up,
            std::nextafter(1.0, 2.0));
  // Every leaf pays +0: the whole tree is the region.
  OptionSpec deep_otm = base;
  deep_otm.volatility = 0.1;
  deep_otm.maturity = 0.25;
  deep_otm.strike = type == OptionType::kCall ? 1000.0 : 1.0;
  // No leaf pays +0: no region.
  OptionSpec deep_itm = base;
  deep_itm.strike = type == OptionType::kCall ? 1e-3 : 1e6;

  std::vector<RegionEdge> edges = {{"strike at the edge leaf", {}, true},
                                   {"smallest sigma*sqrt(dt)", {}, true},
                                   {"deep OTM, all zero", {}, true},
                                   {"deep ITM, no zero leaf", {}, false}};
  const OptionSpec specs[] = {at_edge, tiny_step, deep_otm, deep_itm};
  for (std::size_t e = 0; e < edges.size(); ++e) {
    for (std::size_t i = 0; i < 8; ++i) {
      OptionSpec spec = specs[e];
      spec.style = i % 2 == 0 ? ExerciseStyle::kAmerican
                              : ExerciseStyle::kEuropean;
      edges[e].book.push_back(spec);
    }
  }
  return edges;
}

std::uint64_t bits(double x) {
  std::uint64_t out = 0;
  std::memcpy(&out, &x, sizeof out);
  return out;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << "spec " << i << ": batch=" << got[i] << " scalar=" << want[i];
  }
}

std::vector<LatticeFront> front_reference(const std::vector<OptionSpec>& specs,
                                          std::size_t steps) {
  std::vector<LatticeFront> out;
  out.reserve(specs.size());
  for (const OptionSpec& spec : specs) {
    out.push_back(lattice_front_greeks(spec, steps));
  }
  return out;
}

/// All four fields of got[i] and want[i] for every i < got.size(), bit
/// for bit (so +-0 and NaN payloads count).
void expect_fronts_bitwise(const std::vector<LatticeFront>& got,
                           const std::vector<LatticeFront>& want) {
  ASSERT_LE(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "spec " << i);
    ASSERT_EQ(bits(got[i].price), bits(want[i].price));
    ASSERT_EQ(bits(got[i].delta), bits(want[i].delta));
    ASSERT_EQ(bits(got[i].gamma), bits(want[i].gamma));
    ASSERT_EQ(bits(got[i].theta), bits(want[i].theta));
  }
}

std::vector<double> scalar_reference(const std::vector<OptionSpec>& specs,
                                     std::size_t steps = kSteps) {
  const BinomialPricer pricer(steps);
  std::vector<double> out;
  out.reserve(specs.size());
  for (const OptionSpec& spec : specs) out.push_back(pricer.price(spec));
  return out;
}

std::vector<double> batch_prices(const std::vector<OptionSpec>& specs,
                                 std::size_t steps = kSteps) {
  BatchPricer batch(steps);
  std::vector<double> got(specs.size());
  batch.price_into(specs.data(), specs.size(), got.data());
  return got;
}

/// Nodes (t < steps) at which the FP early-exercise max picks exercise
/// over the continuation: an independent scalar copy of the rolling loop,
/// with the reference's leaf chain and its order of operations.
std::size_t exercise_wins(const OptionSpec& spec, std::size_t steps) {
  const LatticeParams lp = LatticeParams::from(spec, steps);
  std::vector<double> assets =
      BinomialPricer(steps).leaf_assets_iterative(spec);
  std::vector<double> values(steps + 1);
  for (std::size_t k = 0; k <= steps; ++k) values[k] = spec.payoff(assets[k]);
  std::size_t wins = 0;
  for (std::size_t t = steps; t-- > 0;) {
    for (std::size_t k = 0; k <= t; ++k) {
      assets[k] *= lp.up;
      const double continuation =
          lp.discount * (lp.prob_up * values[k + 1] + lp.prob_down * values[k]);
      const double exercise = spec.type == OptionType::kCall
                                  ? assets[k] - spec.strike
                                  : spec.strike - assets[k];
      if (exercise > continuation) ++wins;
      values[k] = exercise > continuation ? exercise : continuation;
    }
  }
  return wins;
}

/// The exercise-free guard on `spec` at `steps` steps, fed the
/// reference's own leaf chain.
bool admitted(const OptionSpec& spec, std::size_t steps) {
  const std::vector<double> leaves =
      BinomialPricer(steps).leaf_assets_iterative(spec);
  return detail::early_exercise_never_wins(
      spec, LatticeParams::from(spec, steps).discount, steps, leaves.front(),
      leaves.back());
}

/// 21 random American calls with no dividend: 16 + 4 + 1 at 8 lanes, so
/// the prefix of 16 is whole groups and the full book leaves a 4-lane and
/// a scalar tail (5 * 4 + 1 at 4 lanes).
std::vector<OptionSpec> american_calls() {
  return make_random_batch(21, /*seed=*/5);
}

/// American lanes on which the FP max really does pick exercise at 64 and
/// 128 steps, each for a reason the guard refuses.
struct RefusedLane {
  const char* name;
  OptionSpec spec;
};

std::vector<RefusedLane> refused_lanes() {
  OptionSpec deep_itm_dividend;
  deep_itm_dividend.strike = 20.0;
  deep_itm_dividend.dividend = 0.1;
  // All leaves in the money and no discounting: the continuation ties
  // s - K in exact arithmetic, and rounding breaks the tie both ways.
  OptionSpec zero_rate;
  zero_rate.strike = 1.0;
  zero_rate.rate = 0.0;
  zero_rate.volatility = 0.3;
  // r > 0, but K*(1 - disc) is far below the rounding of s - K.
  OptionSpec tiny_rate = zero_rate;
  tiny_rate.rate = 1e-12;
  OptionSpec put;
  put.strike = 140.0;
  put.type = OptionType::kPut;
  return {{"deep-ITM call, q > 0", deep_itm_dividend},
          {"call, r = 0", zero_rate},
          {"call, r = 1e-12", tiny_rate},
          {"American put", put}};
}

TEST(BatchPricer, ScalarPathMatchesBinomialPricerBitwise) {
  OverrideGuard guard;
  BatchPricer::set_simd_override(0);  // force the scalar fallback
  const auto specs = mixed_batch(97);
  expect_bitwise_equal(batch_prices(specs), scalar_reference(specs));
}

TEST(BatchPricer, Avx2PathMatchesBinomialPricerBitwise) {
  if (BatchPricer::cpu_simd_width() < 4) {
    GTEST_SKIP() << "host CPU has no AVX2";
  }
  OverrideGuard guard;
  BatchPricer::set_simd_override(4);  // force the 4-lane kernel
  // 203 = 50 full 4-lane groups + a 3-option tail.
  const auto specs = mixed_batch(203);
  expect_bitwise_equal(batch_prices(specs), scalar_reference(specs));
}

TEST(BatchPricer, Avx2MatchesScalarOnCuratedEdgeCases) {
  if (BatchPricer::cpu_simd_width() < 4) {
    GTEST_SKIP() << "host CPU has no AVX2";
  }
  OverrideGuard guard;
  const auto specs = make_smoke_batch();  // deep ITM/OTM, ATM, maturities
  BatchPricer::set_simd_override(0);
  const std::vector<double> scalar = batch_prices(specs);
  // The AVX-512 kernel too, where the CPU has it.
  for (const int lanes : {4, 8}) {
    if (static_cast<std::size_t>(lanes) > BatchPricer::cpu_simd_width()) break;
    BatchPricer::set_simd_override(lanes);
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    expect_bitwise_equal(batch_prices(specs), scalar);
  }
}

TEST(BatchPricer, CurveBatchMatchesPriceBatchBitwise) {
  // Whatever dispatch mode the host resolves to, the paper's canonical
  // 2000-option volatility-curve batch must reproduce price_batch exactly.
  const auto specs = make_curve_batch(500);
  const BinomialPricer reference(kSteps);
  expect_bitwise_equal(batch_prices(specs), reference.price_batch(specs));
}

TEST(BatchPricer, OverrideHookControlsDispatch) {
  OverrideGuard guard;
  SimdEnvGuard env;
  ASSERT_EQ(unsetenv("BINOPT_SIMD"), 0);  // automatic means the CPU decides
  const std::size_t cpu = BatchPricer::cpu_simd_width();
  BatchPricer::set_simd_override(0);
  EXPECT_EQ(BatchPricer::simd_width(), 1u);
  EXPECT_FALSE(BatchPricer::simd_enabled());
  for (const int lanes : {4, 8}) {
    if (static_cast<std::size_t>(lanes) <= cpu) {
      BatchPricer::set_simd_override(lanes);
      EXPECT_EQ(BatchPricer::simd_width(), static_cast<std::size_t>(lanes));
      EXPECT_TRUE(BatchPricer::simd_enabled());
    } else {
      // Forcing a width the CPU lacks is refused up front.
      EXPECT_THROW(BatchPricer::set_simd_override(lanes), PreconditionError);
    }
  }
  for (const int bad : {-2, 1, 2, 16}) {
    EXPECT_THROW(BatchPricer::set_simd_override(bad), PreconditionError)
        << bad;
  }
  BatchPricer::set_simd_override(-1);
  EXPECT_EQ(BatchPricer::simd_width(), cpu);
  EXPECT_EQ(BatchPricer::simd_enabled(), cpu > 1);
}

TEST(BatchPricer, EnvKnobDisablesSimd) {
  OverrideGuard guard;
  SimdEnvGuard env;
  BatchPricer::set_simd_override(-1);
  for (const char* off : {"off", "0", "scalar"}) {
    ASSERT_EQ(setenv("BINOPT_SIMD", off, /*overwrite=*/1), 0);
    EXPECT_EQ(BatchPricer::simd_width(), 1u) << off;
    EXPECT_FALSE(BatchPricer::simd_enabled()) << off;
  }
  // And pricing still works (scalar fallback) with the knob set.
  ASSERT_EQ(setenv("BINOPT_SIMD", "off", 1), 0);
  const auto specs = mixed_batch(9);
  expect_bitwise_equal(batch_prices(specs), scalar_reference(specs));
}

TEST(BatchPricer, EnvKnobRejectsUnknownValues) {
  OverrideGuard guard;
  SimdEnvGuard env;
  BatchPricer::set_simd_override(-1);
  for (const char* bad : {"avx2", "avx512", "on", "OFF", "4"}) {
    ASSERT_EQ(setenv("BINOPT_SIMD", bad, 1), 0);
    try {
      (void)BatchPricer::simd_width();
      ADD_FAILURE() << "BINOPT_SIMD=" << bad << " was accepted";
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("BINOPT_SIMD"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
    // A bad value stops a pricer from being built, forced width or not.
    EXPECT_THROW(BatchPricer{kSteps}, PreconditionError) << bad;
    BatchPricer::set_simd_override(0);
    EXPECT_THROW((void)BatchPricer::simd_width(), PreconditionError) << bad;
    BatchPricer::set_simd_override(-1);
  }
  // An empty value means unset: automatic dispatch.
  ASSERT_EQ(setenv("BINOPT_SIMD", "", 1), 0);
  EXPECT_EQ(BatchPricer::simd_width(), BatchPricer::cpu_simd_width());
}

TEST(BatchPricer, HandlesEmptyAndSingleOptionBatches) {
  BatchPricer batch(kSteps);
  batch.price_into(nullptr, 0, nullptr);  // no-op, must not crash
  const auto specs = mixed_batch(1);
  double price = 0.0;
  batch.price_into(specs.data(), 1, &price);
  const BinomialPricer reference(kSteps);
  EXPECT_EQ(price, reference.price(specs[0]));
}

TEST(BatchPricer, ReusedPricerStaysBitExactAcrossCalls) {
  // Scratch reuse across calls of different sizes must not leak state
  // between batches.
  BatchPricer batch(kSteps);
  const auto first = mixed_batch(16);
  const auto second = mixed_batch(7);
  std::vector<double> out1(first.size());
  std::vector<double> out2(second.size());
  batch.price_into(first.data(), first.size(), out1.data());
  batch.price_into(second.data(), second.size(), out2.data());
  expect_bitwise_equal(out1, scalar_reference(first));
  expect_bitwise_equal(out2, scalar_reference(second));
}

TEST(BatchPricer, ZeroRegionEndsWhereItsEdgeNodeWouldExercise) {
  // load_lanes never builds these lanes: American calls whose exercise
  // strike (50) lies below their payoff strike (100), so nodes whose
  // leaves all pay +0 still exercise. The skip must not rest on lanes
  // being well formed; the edge check sees the edge node exercise and
  // computes the level in full. The reference is the same calls in a
  // group that one put lane makes mixed, which has no region.
  constexpr std::size_t steps = 64;
  OptionSpec spec;
  const LatticeParams lp = LatticeParams::from(spec, steps);
  for (const std::size_t width : {4u, 8u}) {
    if (width > BatchPricer::cpu_simd_width()) break;
    SCOPED_TRACE(testing::Message() << width << " lanes");
    detail::LaneParams calls{};
    for (std::size_t lane = 0; lane < width; ++lane) {
      calls.dt[lane] = lp.dt;
      calls.spot[lane] = spec.spot;
      calls.strike[lane] = spec.strike;
      calls.exercise_strike[lane] = spec.strike;
      calls.up[lane] = lp.up;
      calls.down[lane] = lp.down;
      calls.prob_up[lane] = lp.prob_up;
      calls.prob_down[lane] = lp.prob_down;
      calls.discount[lane] = lp.discount;
    }
    const auto sweep = [&](const detail::LaneParams& lanes, double* out) {
      std::vector<double> assets(width * (steps + 1));
      std::vector<double> values(width * (steps + 1));
      return width == 8 ? detail::sweep8_avx512(lanes, steps, assets.data(),
                                                values.data(), out, nullptr)
                        : detail::sweep4_avx2(lanes, steps, assets.data(),
                                              values.data(), out, nullptr);
    };
    double out[detail::kMaxLanes] = {};
    // Well-formed lanes: the region is skipped.
    EXPECT_GT(sweep(calls, out), 0u);
    for (std::size_t lane = 0; lane < width; ++lane) {
      calls.exercise_strike[lane] = 50.0;
    }
    detail::LaneParams mixed = calls;
    mixed.spot[width - 1] = -spec.spot;
    mixed.strike[width - 1] = -spec.strike;
    mixed.exercise_strike[width - 1] = -spec.strike;
    double want[detail::kMaxLanes] = {};
    EXPECT_EQ(sweep(mixed, want), 0u);
    (void)sweep(calls, out);
    for (std::size_t lane = 0; lane + 1 < width; ++lane) {
      EXPECT_EQ(bits(out[lane]), bits(want[lane])) << "lane " << lane;
      EXPECT_GT(out[lane], 0.0) << "lane " << lane;
    }
  }
}

TEST(BatchPricer, GuardCensusNeverAdmitsAnExerciseWin) {
  // Seeded extreme specs: sigma 0.005-5, T 0.01-50, K 1e-3-1e3 x spot and
  // r 1e-14-0.5, all log-uniform, at 2-1024 steps. On every lane the guard
  // admits, the independent loop must find no node where the FP max picks
  // exercise. The census is not vacuous: it admits some lanes, and some
  // of those it refuses do exercise.
  SplitMix64 rng(2026);
  const auto log_uniform = [&](double lo, double hi) {
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
  };
  std::size_t specs = 0;
  std::size_t admitted_lanes = 0;
  std::size_t refused_exercising = 0;
  while (specs < 10000) {
    OptionSpec spec;
    spec.volatility = log_uniform(0.005, 5.0);
    spec.maturity = log_uniform(0.01, 50.0);
    spec.strike = spec.spot * log_uniform(1e-3, 1e3);
    spec.rate = log_uniform(1e-14, 0.5);
    const auto steps = static_cast<std::size_t>(log_uniform(2.0, 1024.0));
    try {
      (void)LatticeParams::from(spec, steps);
    } catch (const PreconditionError&) {
      continue;  // p outside (0, 1): no lattice to price
    }
    ++specs;
    const std::size_t wins = exercise_wins(spec, steps);
    if (admitted(spec, steps)) {
      ++admitted_lanes;
      ASSERT_EQ(wins, 0u) << "sigma " << spec.volatility << ", T "
                          << spec.maturity << ", K " << spec.strike << ", r "
                          << spec.rate << ", steps " << steps;
    } else if (wins > 0) {
      ++refused_exercising;
    }
  }
  EXPECT_GT(admitted_lanes, specs / 2);
  EXPECT_GT(refused_exercising, 0u);

  // The workloads the four-op loop is for: every lane admitted.
  for (const std::size_t steps : {64u, 128u, 256u}) {
    SCOPED_TRACE(testing::Message() << "steps " << steps);
    for (const OptionSpec& spec : make_curve_batch(2000)) {
      ASSERT_TRUE(admitted(spec, steps)) << "curve strike " << spec.strike;
    }
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      for (const OptionSpec& spec : make_random_batch(256, seed)) {
        ASSERT_TRUE(admitted(spec, steps)) << "random seed " << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Every forced width against the scalar BinomialPricer. The parameter is
// the set_simd_override lane count (0 = scalar).

/// Depths for the four-op loop's two-level passes: odd level counts leave
/// a one-level remainder (5, 7, 127); 4 and 5 end a pass at the capture
/// level t = 2, and 64 and 256 run zero regions that empty inside a pass.
constexpr std::size_t kPassSteps[] = {2, 3, 4, 5, 7, 64, 127, 128, 256};

class BatchPricerWidth : public ::testing::TestWithParam<int> {
protected:
  void SetUp() override {
    if (static_cast<std::size_t>(GetParam()) > BatchPricer::cpu_simd_width()) {
      GTEST_SKIP() << "host CPU has no " << GetParam() << "-lane kernel";
    }
    BatchPricer::set_simd_override(GetParam());
  }
  void TearDown() override { BatchPricer::set_simd_override(-1); }
};

TEST_P(BatchPricerWidth, EveryDepthAndTailMatchesBinomialPricerBitwise) {
  // 17 random specs + 12 edge specs = 29 = three 8-lane groups + 4 + 1;
  // every prefix n = 1..29 exercises each 8 / 4 / scalar split the group
  // dispatch can produce.
  for (const std::size_t steps : {2u, 3u, 64u, 128u, 256u}) {
    const auto specs = mixed_and_edge_batch(17, steps);
    const std::vector<double> want = scalar_reference(specs, steps);
    BatchPricer batch(steps);
    for (std::size_t n = 1; n <= specs.size(); ++n) {
      std::vector<double> got(n);
      batch.price_into(specs.data(), n, got.data());
      SCOPED_TRACE(testing::Message() << "steps " << steps << ", n " << n);
      expect_bitwise_equal(got, {want.begin(), want.begin() + n});
    }
  }
}

TEST_P(BatchPricerWidth, FrontsMatchLatticeFrontGreeksBitwise) {
  // 21 random specs + 12 edge specs = 33 = 8 + 8 + 8 + 8 + 1; the prefixes
  // n = 1..33 cover every split of the group dispatch, and steps 2 and 3
  // the leaf-row and first-level captures.
  for (const std::size_t steps : {2u, 3u, 64u, 128u}) {
    const auto specs = mixed_and_edge_batch(21, steps);
    const std::vector<LatticeFront> want = front_reference(specs, steps);
    BatchPricer batch(steps);
    for (std::size_t n = 1; n <= specs.size(); ++n) {
      std::vector<LatticeFront> got(n);
      batch.fronts_into(specs.data(), n, got.data());
      SCOPED_TRACE(testing::Message() << "steps " << steps << ", n " << n);
      expect_fronts_bitwise(got, want);
    }
  }
}

TEST_P(BatchPricerWidth, HomogeneousBooksSkipZeroNodesBitwise) {
  // Whole groups of calls or of puts carry a zero region; skipping it
  // must leave every price and front bit-identical. n = size - 3 leaves a
  // 4-lane and a scalar tail at 8 lanes.
  const auto books = homogeneous_books();
  for (const std::size_t steps : kPassSteps) {
    for (std::size_t b = 0; b < books.size(); ++b) {
      const std::vector<OptionSpec>& book = books[b];
      const std::vector<double> want = scalar_reference(book, steps);
      // Fronts at the cheaper depths only.
      const std::vector<LatticeFront> fronts_want =
          steps == 256 ? std::vector<LatticeFront>{}
                       : front_reference(book, steps);
      for (const std::size_t n : {book.size(), book.size() - 3}) {
        SCOPED_TRACE(testing::Message()
                     << "steps " << steps << ", book " << b << ", n " << n);
        BatchPricer batch(steps);
        std::vector<double> got(n);
        batch.price_into(book.data(), n, got.data());
        expect_bitwise_equal(got, {want.begin(), want.begin() + n});
        // Under 64 steps too few leaves for all 8 random lanes to share a
        // zero leaf.
        if (steps >= 64) {
          EXPECT_GT(batch.nodes_skipped(), 0u);
        }
        if (fronts_want.empty()) continue;
        std::vector<LatticeFront> fronts(n);
        batch.fronts_into(book.data(), n, fronts.data());
        expect_fronts_bitwise(fronts, fronts_want);
      }
    }
  }
}

TEST_P(BatchPricerWidth, ZeroRegionEdgesMatchBitwise) {
  // Each edge of the region as its own book, so the skip count shows
  // whether the sweep found a region: one wherever a leaf pays +0, none in
  // a deep-ITM tree.
  for (const std::size_t steps : {2u, 3u, 64u, 256u}) {
    for (const OptionType type : {OptionType::kCall, OptionType::kPut}) {
      for (const RegionEdge& edge : region_edges(steps, type)) {
        SCOPED_TRACE(testing::Message() << "steps " << steps << ", "
                                        << to_string(type) << ", "
                                        << edge.name);
        BatchPricer batch(steps);
        std::vector<double> got(edge.book.size());
        batch.price_into(edge.book.data(), edge.book.size(), got.data());
        expect_bitwise_equal(got, scalar_reference(edge.book, steps));
        if (steps >= 64) {
          EXPECT_EQ(batch.nodes_skipped() > 0, edge.has_region);
        }
        std::vector<LatticeFront> fronts(edge.book.size());
        batch.fronts_into(edge.book.data(), edge.book.size(), fronts.data());
        expect_fronts_bitwise(fronts, front_reference(edge.book, steps));
      }
    }
  }
}

TEST_P(BatchPricerWidth, AdmittedAmericanCallsMatchBitwise) {
  // Every lane passes the guard, so each group runs the four-op loop;
  // prices and fronts must still be the seven-op reference's bits.
  const std::vector<OptionSpec> book = american_calls();
  for (const std::size_t steps : kPassSteps) {
    for (const OptionSpec& spec : book) ASSERT_TRUE(admitted(spec, steps));
    const std::vector<double> want = scalar_reference(book, steps);
    const std::vector<LatticeFront> fronts_want = front_reference(book, steps);
    for (const std::size_t n : {std::size_t{16}, book.size()}) {
      SCOPED_TRACE(testing::Message() << "steps " << steps << ", n " << n);
      BatchPricer batch(steps);
      std::vector<double> got(n);
      batch.price_into(book.data(), n, got.data());
      expect_bitwise_equal(got, {want.begin(), want.begin() + n});
      std::vector<LatticeFront> fronts(n);
      batch.fronts_into(book.data(), n, fronts.data());
      expect_fronts_bitwise(fronts, fronts_want);
    }
  }
}

TEST_P(BatchPricerWidth, AllEuropeanGroupsMatchBitwise) {
  // Calls and puts alternating, all European: every exercise strike is
  // +inf, so every group runs the four-op loop.
  std::vector<OptionSpec> book = mixed_batch(21);
  for (OptionSpec& spec : book) spec.style = ExerciseStyle::kEuropean;
  for (const std::size_t steps : kPassSteps) {
    SCOPED_TRACE(testing::Message() << "steps " << steps);
    BatchPricer batch(steps);
    std::vector<double> got(book.size());
    batch.price_into(book.data(), book.size(), got.data());
    expect_bitwise_equal(got, scalar_reference(book, steps));
    std::vector<LatticeFront> fronts(book.size());
    batch.fronts_into(book.data(), book.size(), fronts.data());
    expect_fronts_bitwise(fronts, front_reference(book, steps));
  }
}

TEST_P(BatchPricerWidth, RefusedLanesKeepTheExerciseMaxBitwise) {
  // Each refused lane at three places in a book of admitted calls: in a
  // full group, in the 4-lane tail and as the scalar tail, so every
  // group it joins must run the seven-op loop.
  for (const RefusedLane& refused : refused_lanes()) {
    for (const std::size_t steps : {64u, 128u}) {
      SCOPED_TRACE(testing::Message() << refused.name << ", steps " << steps);
      ASSERT_FALSE(admitted(refused.spec, steps));
      ASSERT_GT(exercise_wins(refused.spec, steps), 0u);
      std::vector<OptionSpec> book = american_calls();
      for (const std::size_t at : {3u, 17u, 20u}) book[at] = refused.spec;
      BatchPricer batch(steps);
      std::vector<double> got(book.size());
      batch.price_into(book.data(), book.size(), got.data());
      expect_bitwise_equal(got, scalar_reference(book, steps));
      std::vector<LatticeFront> fronts(book.size());
      batch.fronts_into(book.data(), book.size(), fronts.data());
      expect_fronts_bitwise(fronts, front_reference(book, steps));
    }
  }
}

TEST(BatchPricer, MixedLaneGroupsSkipNothing) {
  // Calls and puts alternate, so every 4- and 8-lane group is mixed and
  // has no zero region, even where each lane's own tree is all zero. (A
  // one-lane group is never mixed.)
  std::vector<OptionSpec> specs = mixed_batch(16);
  const auto calls = region_edges(64, OptionType::kCall);
  const auto puts = region_edges(64, OptionType::kPut);
  for (std::size_t e = 0; e < calls.size(); ++e) {
    for (std::size_t i = 0; i < 8; i += 2) {
      specs.push_back(calls[e].book[i]);
      specs.push_back(puts[e].book[i + 1]);
    }
  }
  const std::vector<double> want = scalar_reference(specs, 64);
  OverrideGuard guard;
  for (const int lanes : {4, 8}) {
    if (static_cast<std::size_t>(lanes) > BatchPricer::cpu_simd_width()) break;
    BatchPricer::set_simd_override(lanes);
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    BatchPricer batch(64);
    std::vector<double> got(specs.size());
    batch.price_into(specs.data(), specs.size(), got.data());
    expect_bitwise_equal(got, want);
    std::vector<LatticeFront> fronts(specs.size());
    batch.fronts_into(specs.data(), specs.size(), fronts.data());
    expect_fronts_bitwise(fronts, front_reference(specs, 64));
    EXPECT_EQ(batch.nodes_skipped(), 0u);
  }
}

TEST(BatchPricer, IdenticalLanesSkipTheSameNodesAtEveryWidth) {
  // Eight copies of one OTM American call: every group shares each lane's
  // own zero region, so a skipped row of W lanes is W skipped nodes and
  // the count is the same at every width, one or two levels per pass.
  OptionSpec spec;
  spec.strike = 120.0;
  spec.style = ExerciseStyle::kAmerican;
  const std::vector<OptionSpec> book(8, spec);
  OverrideGuard guard;
  for (const std::size_t steps : {65u, 256u}) {
    SCOPED_TRACE(testing::Message() << "steps " << steps);
    ASSERT_TRUE(admitted(spec, steps));
    const std::vector<double> want = scalar_reference(book, steps);
    std::size_t scalar_skipped = 0;
    for (const int lanes : {0, 4, 8}) {
      if (static_cast<std::size_t>(lanes) > BatchPricer::cpu_simd_width()) {
        break;
      }
      BatchPricer::set_simd_override(lanes);
      SCOPED_TRACE(testing::Message() << lanes << " lanes");
      BatchPricer batch(steps);
      std::vector<double> got(book.size());
      batch.price_into(book.data(), book.size(), got.data());
      expect_bitwise_equal(got, want);
      if (lanes == 0) {
        scalar_skipped = batch.nodes_skipped();
        EXPECT_GT(scalar_skipped, 0u);
      }
      EXPECT_EQ(batch.nodes_skipped(), scalar_skipped);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchPricerWidth, ::testing::Values(0, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("Scalar")
                                      : std::string("Lanes") +
                                            std::to_string(info.param);
                         });

}  // namespace
}  // namespace binopt::finance
