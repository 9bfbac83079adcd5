// GreeksService suite (DESIGN.md §2.9): service-path sensitivities and
// scenario sweeps on top of the batched PricingService.
//
// The invariants pinned here:
//
//   1. PARITY: on the CPU-reference target, every service-assembled Greeks
//      is bitwise identical to direct finance::binomial_greeks — the
//      lattice front, the bump set, the assembly arithmetic AND the four
//      leg prices are all shared or bit-reproducible.
//   2. NO ALIASING: a bumped leg never replays an unbumped cache entry,
//      even when the bump is below the cache key's 1e-9 quantization grid
//      (the regression this PR's cache-tag widening fixes).
//   3. CONSERVATION: a scenario sweep's legs all resolve exactly once —
//      ServiceStats balance with the GreeksService's own leg counters,
//      fault plans included (test_core runs under the TSan CI job).
//   4. EPOCH CACHING: re-sweeping an unchanged surface re-prices nothing;
//      bumping the epoch invalidates every leg at once.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/service/greeks_service.h"
#include "core/service/pricing_service.h"
#include "finance/binomial_batch.h"
#include "finance/greeks.h"
#include "finance/workload.h"
#include "ocl/faults/fault_plan.h"

namespace binopt::core {
namespace {

using namespace std::chrono_literals;
using ocl::faults::parse_fault_plan;

constexpr std::size_t kSteps = 64;

finance::OptionSpec atm_call() {
  finance::OptionSpec spec;
  spec.spot = 100.0;
  spec.strike = 100.0;
  spec.rate = 0.05;
  spec.volatility = 0.20;
  spec.maturity = 1.0;
  spec.type = finance::OptionType::kCall;
  spec.style = finance::ExerciseStyle::kAmerican;
  return spec;
}

ServiceConfig cpu_config(std::size_t cache_capacity = 0) {
  ServiceConfig config;
  config.targets = {Target::kCpuReference};
  config.steps = kSteps;
  config.linger = 0us;
  config.cache_capacity = cache_capacity;
  return config;
}

void expect_greeks_bitwise(const finance::Greeks& got,
                           const finance::Greeks& want) {
  EXPECT_EQ(got.price, want.price);
  EXPECT_EQ(got.delta, want.delta);
  EXPECT_EQ(got.gamma, want.gamma);
  EXPECT_EQ(got.theta, want.theta);
  EXPECT_EQ(got.vega, want.vega);
  EXPECT_EQ(got.rho, want.rho);
}

// ---------------------------------------------------------------------------
// Cache-tag arithmetic.

TEST(GreeksCacheTags, KindsAndEpochsAreDisjoint) {
  EXPECT_EQ(make_cache_tag(QuoteTagKind::kPlain), 0u);  // plain quotes
  EXPECT_NE(make_cache_tag(QuoteTagKind::kVegaUp),
            make_cache_tag(QuoteTagKind::kVegaDown));
  EXPECT_NE(make_cache_tag(QuoteTagKind::kRhoUp),
            make_cache_tag(QuoteTagKind::kRhoDown));
  // Sweep epochs occupy their own namespaces above the 3 kind bits.
  EXPECT_NE(make_cache_tag(QuoteTagKind::kSweepLeg, 0),
            make_cache_tag(QuoteTagKind::kSweepLeg, 1));
  EXPECT_NE(make_cache_tag(QuoteTagKind::kSweepLeg, 7),
            make_cache_tag(QuoteTagKind::kVegaUp, 7));
  // Epoch wraps at 2^29, not before.
  EXPECT_EQ(make_cache_tag(QuoteTagKind::kSweepLeg, 1ull << 29),
            make_cache_tag(QuoteTagKind::kSweepLeg, 0));
  EXPECT_NE(make_cache_tag(QuoteTagKind::kSweepLeg, (1ull << 29) - 1),
            make_cache_tag(QuoteTagKind::kSweepLeg, 0));
}

// ---------------------------------------------------------------------------
// Parity: service-path Greeks == direct binomial_greeks, bitwise, on the
// CPU-reference target.

TEST(GreeksService, BitwiseParityWithDirectGreeks) {
  PricingService service(cpu_config());
  GreeksService greeks(service);
  const finance::OptionSpec spec = atm_call();

  const GreeksQuote quote = greeks.greeks_blocking(spec);
  expect_greeks_bitwise(quote.greeks, finance::binomial_greeks(spec, kSteps));
  EXPECT_FALSE(quote.vega_one_sided);
  EXPECT_FALSE(quote.rho_one_sided);
  // Honest per-leg attribution: all four legs priced on the configured
  // backend, nothing degraded, nothing from a cold cache.
  for (const Quote* leg :
       {&quote.vega_up, &quote.vega_down, &quote.rho_up, &quote.rho_down}) {
    EXPECT_EQ(leg->target, Target::kCpuReference);
    EXPECT_FALSE(leg->from_cache);
    EXPECT_FALSE(leg->degraded);
  }
}

TEST(GreeksService, BatchParityAcrossACurve) {
  // 21 = 8 + 8 + 4 + 1: the batched fronts take every group width and a
  // scalar tail. Every kernel width the CPU has must give the same bits,
  // so each forced width gets a fresh service (no cached legs).
  const auto book = finance::make_curve_batch(21);
  const std::size_t cpu = finance::BatchPricer::cpu_simd_width();
  struct OverrideReset {
    ~OverrideReset() { finance::BatchPricer::set_simd_override(-1); }
  } reset;
  for (const int lanes : {0, 4, 8}) {
    if (static_cast<std::size_t>(lanes) > cpu) continue;
    SCOPED_TRACE(testing::Message() << "forced lanes " << lanes);
    finance::BatchPricer::set_simd_override(lanes);
    PricingService service(cpu_config());
    GreeksService greeks(service);
    const std::vector<GreeksQuote> quotes = greeks.greeks_batch_blocking(book);
    ASSERT_EQ(quotes.size(), book.size());
    for (std::size_t i = 0; i < book.size(); ++i) {
      expect_greeks_bitwise(quotes[i].greeks,
                            finance::binomial_greeks(book[i], kSteps));
    }
    const GreeksServiceStats stats = greeks.stats();
    EXPECT_EQ(stats.greeks_requests, book.size());
    EXPECT_EQ(stats.greeks_legs, 4 * book.size());
  }
}

// ---------------------------------------------------------------------------
// Shape of a Greeks book priced end to end through the service pipeline.

TEST(GreeksPipeline, CallDeltasDecreaseAcrossTheStrikeLadder) {
  PricingService service(cpu_config());
  GreeksService greeks(service);
  const auto book = finance::make_curve_batch(15);
  const std::vector<GreeksQuote> quotes = greeks.greeks_batch_blocking(book);
  ASSERT_EQ(quotes.size(), book.size());
  for (std::size_t i = 1; i < book.size(); ++i) {
    EXPECT_LT(quotes[i].greeks.delta, quotes[i - 1].greeks.delta + 1e-6)
        << "strike index " << i;
  }
  for (const GreeksQuote& quote : quotes) {
    EXPECT_GE(quote.greeks.delta, -1e-9);
    EXPECT_LE(quote.greeks.delta, 1.0 + 1e-9);
    EXPECT_GT(quote.greeks.vega, 0.0);
  }
}

TEST(GreeksPipeline, GammaPositiveNearTheMoney) {
  ServiceConfig config = cpu_config();
  config.steps = 128;
  PricingService service(config);
  GreeksService greeks(service);
  const auto book = finance::make_curve_batch(5);  // strikes 60..140
  const std::vector<GreeksQuote> quotes = greeks.greeks_batch_blocking(book);
  ASSERT_EQ(quotes.size(), book.size());
  EXPECT_GT(quotes[2].greeks.gamma, 0.0);  // the ATM point
}

TEST(GreeksService, OneSidedVegaSurvivesTheServicePath) {
  // The bump-underflow regression, end to end: sigma = 5e-5 at r = 0
  // degrades vega to a forward difference; the service must agree with
  // the direct path bit for bit, flags included.
  PricingService service(cpu_config());
  GreeksService greeks(service);
  finance::OptionSpec spec = atm_call();
  spec.rate = 0.0;
  spec.volatility = 5e-5;

  const GreeksQuote quote = greeks.greeks_blocking(spec);
  EXPECT_TRUE(quote.vega_one_sided);
  EXPECT_TRUE(std::isfinite(quote.greeks.vega));
  expect_greeks_bitwise(quote.greeks, finance::binomial_greeks(spec, kSteps));
}

// ---------------------------------------------------------------------------
// No aliasing: a sub-quantization bump must never replay the plain cache
// entry (without the tag widening, vega here collapses to exactly 0).

TEST(GreeksService, SubGridBumpDoesNotAliasThePlainCacheEntry) {
  PricingService service(cpu_config(/*cache_capacity=*/256));
  GreeksService::Config config;
  config.vol_bump = 4e-10;  // below the cache key's 1e-9 grid
  config.rate_bump = 4e-10;
  GreeksService greeks(service, config);
  const finance::OptionSpec spec = atm_call();

  // Seed the plain entry first — the aliasing victim.
  const Quote plain = service.submit(spec).get();

  const GreeksQuote quote = greeks.greeks_blocking(spec);
  // Un-tagged keys would hit `plain` for every leg: up == down == plain
  // price, vega == rho == 0 exactly. The tags keep the legs distinct.
  EXPECT_NE(quote.greeks.vega, 0.0);
  EXPECT_NE(quote.greeks.rho, 0.0);
  EXPECT_NE(quote.vega_up.price, quote.vega_down.price);
  // And the finite differences still converge to the wide-bump truth.
  const finance::Greeks reference = finance::binomial_greeks(spec, kSteps);
  EXPECT_NEAR(quote.greeks.vega, reference.vega,
              0.01 * std::abs(reference.vega));
  EXPECT_NEAR(quote.greeks.rho, reference.rho, 0.01 * std::abs(reference.rho));

  // The plain entry is untouched: a repeat plain quote replays it.
  const Quote replay = service.submit(spec).get();
  EXPECT_EQ(replay.price, plain.price);
  EXPECT_TRUE(replay.from_cache);
}

TEST(GreeksService, CachedReplayIsBitIdentical) {
  PricingService service(cpu_config(/*cache_capacity=*/256));
  GreeksService greeks(service);
  const finance::OptionSpec spec = atm_call();

  const GreeksQuote cold = greeks.greeks_blocking(spec);
  const GreeksQuote warm = greeks.greeks_blocking(spec);
  expect_greeks_bitwise(warm.greeks, cold.greeks);
  // The four legs all replayed from cache the second time.
  EXPECT_TRUE(warm.vega_up.from_cache);
  EXPECT_TRUE(warm.vega_down.from_cache);
  EXPECT_TRUE(warm.rho_up.from_cache);
  EXPECT_TRUE(warm.rho_down.from_cache);
}

// ---------------------------------------------------------------------------
// Scenario sweeps: aggregation, conservation, epoch caching.

SweepRequest small_sweep(std::uint64_t epoch = 0) {
  SweepRequest request;
  request.book = finance::make_curve_batch(4);
  request.grid.spot_factors = {1.0, 0.9, 1.1};
  request.grid.vol_shifts = {0.0, 0.02};
  request.grid.rate_shifts = {0.0, 5e-4};
  request.epoch = epoch;
  return request;
}

TEST(GreeksSweep, AggregatesPnlAcrossTheGrid) {
  PricingService service(cpu_config());
  GreeksService greeks(service);
  const SweepRequest request = small_sweep();
  const std::size_t scenarios = request.grid.scenario_count();

  const SweepReport report = greeks.sweep_blocking(request);
  EXPECT_EQ(report.scenarios, scenarios);
  EXPECT_EQ(report.legs, scenarios * request.book.size());
  ASSERT_EQ(report.scenario_pnl.size(), scenarios);
  EXPECT_EQ(report.pnl.count(), scenarios);
  EXPECT_GT(report.book_value, 0.0);

  // Scenario 0 is the identity shock (factor 1, shifts 0): its legs are
  // the book itself, priced on the same deterministic target, so its P&L
  // is exactly zero — no tolerance.
  EXPECT_EQ(report.scenario_pnl[0], 0.0);
  // A 10% spot drop must lose money on a book of calls; VaR orders hold.
  EXPECT_LT(report.pnl.min(), 0.0);
  EXPECT_GE(report.var99, report.var95);
  EXPECT_GE(report.expected_shortfall95, report.var95);
  EXPECT_GT(report.loss_ticks.count(), 0u);
}

TEST(GreeksSweep, UnchangedEpochRepricesNothing) {
  PricingService service(cpu_config(/*cache_capacity=*/1024));
  GreeksService greeks(service);

  const SweepReport cold = greeks.sweep_blocking(small_sweep(/*epoch=*/7));
  EXPECT_GT(cold.options_priced, 0u);

  // Same surface, same epoch: every leg (base book included) replays.
  const SweepReport warm = greeks.sweep_blocking(small_sweep(/*epoch=*/7));
  EXPECT_EQ(warm.options_priced, 0u);
  EXPECT_EQ(warm.cache_hits,
            warm.legs + small_sweep().book.size());  // shocked + base legs
  EXPECT_EQ(warm.book_value, cold.book_value);
  EXPECT_EQ(warm.scenario_pnl, cold.scenario_pnl);

  // New epoch: the surface moved; every key misses and everything
  // re-prices without any cache walking.
  const SweepReport moved = greeks.sweep_blocking(small_sweep(/*epoch=*/8));
  EXPECT_GT(moved.options_priced, 0u);
}

TEST(GreeksSweep, ConservationUnderChaos) {
  // Transient launch faults on the FPGA kernel-B worker: retries may
  // re-order work but every sweep leg must still resolve exactly once and
  // the identity scenario must still come out at exactly zero P&L.
  ServiceConfig config;
  config.targets = {Target::kFpgaKernelB};
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  config.retry.max_attempts = 10;
  config.retry.base_backoff = 100us;
  config.retry.max_backoff = 2000us;
  config.worker_fault_plans.push_back(parse_fault_plan("transient@1x2"));
  PricingService service(std::move(config));
  GreeksService greeks(service);

  const SweepRequest request = small_sweep();
  const std::size_t total_legs =
      request.grid.scenario_count() * request.book.size() +
      request.book.size();

  const service::ServiceStats before = service.stats();
  const SweepReport report = greeks.sweep_blocking(request);
  const service::ServiceStats delta = service.stats().minus(before);

  // Conservation: every admitted leg completed, nothing lost, nothing
  // failed or double-counted — and the fault plan actually fired.
  EXPECT_EQ(delta.requests_submitted, total_legs);
  EXPECT_EQ(delta.requests_completed, total_legs);
  EXPECT_EQ(delta.requests_failed, 0u);
  EXPECT_EQ(delta.requests_timed_out, 0u);
  EXPECT_GE(delta.retries, 2u);
  EXPECT_EQ(report.scenario_pnl[0], 0.0);  // parity under faults

  // The GreeksService's own books balance against the service's.
  EXPECT_EQ(greeks.stats().sweep_legs, total_legs);
  EXPECT_EQ(greeks.stats().sweeps, 1u);
}

TEST(GreeksService, LegCountersBalanceServiceAdmissions) {
  PricingService service(cpu_config());
  GreeksService greeks(service);

  const service::ServiceStats before = service.stats();
  (void)greeks.greeks_batch_blocking(finance::make_curve_batch(6));
  (void)greeks.sweep_blocking(small_sweep());
  const service::ServiceStats delta = service.stats().minus(before);

  const GreeksServiceStats mine = greeks.stats();
  EXPECT_EQ(mine.greeks_requests, 6u);
  EXPECT_EQ(mine.greeks_legs, 24u);
  EXPECT_EQ(mine.sweeps, 1u);
  EXPECT_EQ(mine.sweep_scenarios, small_sweep().grid.scenario_count());
  // Every submission this layer generated — and only those — reached the
  // service: greeks legs + sweep legs == admitted requests.
  EXPECT_EQ(mine.greeks_legs + mine.sweep_legs, delta.requests_submitted);
  EXPECT_EQ(delta.requests_completed, delta.requests_submitted);
}

TEST(GreeksService, LegCountersBalanceAShedBook) {
  // A stalled worker holds one realtime blocker; with a queue of 8 and
  // watermark 0.5, kNormal admission sheds at occupancy 6. A two-option
  // book's 8 legs: the first 6 are admitted, the seventh sheds and the
  // eighth is refused with it. Only the 6 the service took are counted.
  ServiceConfig config;
  config.targets = {Target::kFpgaKernelB};
  config.steps = kSteps;
  config.max_batch = 1;
  config.linger = 0us;
  config.queue_capacity = 8;
  config.overload.shed_watermark = 0.5;
  config.worker_fault_plans.push_back(parse_fault_plan("stall@1,ms=300"));
  PricingService service(std::move(config));
  GreeksService greeks(service);
  const auto batch = finance::make_curve_batch(3);
  auto blocker = service.submit(batch[0], kNoTimeout, 0, Priority::kRealtime);
  while (service.queued_requests() != 0) std::this_thread::sleep_for(100us);

  try {
    (void)greeks.greeks_batch_blocking({batch[1], batch[2]});
    FAIL() << "the seventh kNormal leg must shed at occupancy 6";
  } catch (const ServiceOverloadError& error) {
    EXPECT_EQ(error.occupancy(), 6u);
    EXPECT_EQ(error.threshold(), 6u);
  }
  EXPECT_GT(blocker.get().price, 0.0);

  // The call returned after its admitted legs settled, so the counters
  // are complete: 6 legs plus the blocker reached the service.
  const service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, 7u);
  EXPECT_EQ(stats.requests_completed, 7u);
  EXPECT_EQ(stats.requests_shed_normal, 1u);
  EXPECT_EQ(greeks.stats().greeks_requests, 2u);
  EXPECT_EQ(greeks.stats().greeks_legs, stats.requests_submitted - 1);
}

// ---------------------------------------------------------------------------
// One stack sink per book: admission, settle-before-return, and failures.

TEST(GreeksService, EmptyBookReturnsEmptyAndAdmitsNothing) {
  PricingService service(cpu_config());
  GreeksService greeks(service);
  EXPECT_TRUE(greeks.greeks_batch_blocking({}).empty());
  EXPECT_EQ(service.stats().requests_submitted, 0u);
  EXPECT_EQ(greeks.stats().greeks_requests, 0u);
  EXPECT_EQ(greeks.stats().greeks_legs, 0u);
}

TEST(GreeksService, InvalidSpecThrowsBeforeAnyLegIsAdmitted) {
  PricingService service(cpu_config());
  GreeksService greeks(service);
  std::vector<finance::OptionSpec> book = finance::make_curve_batch(6);
  book.back().volatility = -0.2;
  EXPECT_THROW((void)greeks.greeks_batch_blocking(book), PreconditionError);
  // Not even the valid options' legs reached the service.
  EXPECT_EQ(service.stats().requests_submitted, 0u);
  EXPECT_EQ(greeks.stats().greeks_legs, 0u);

  // The service is untouched: the valid prefix prices normally.
  book.pop_back();
  const std::vector<GreeksQuote> quotes = greeks.greeks_batch_blocking(book);
  ASSERT_EQ(quotes.size(), book.size());
  EXPECT_EQ(service.stats().requests_submitted, 4 * book.size());
}

TEST(GreeksService, ExhaustedRetriesThrowOnlyAfterEveryLegSettled) {
  // Kernel B launches one NDRange per service batch, so "transient@1"
  // fails exactly the first batch of legs; with one attempt and no
  // degradation those legs fail while the book's later batches price.
  ServiceConfig config;
  config.targets = {Target::kFpgaKernelB};
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  config.retry.max_attempts = 1;
  config.degrade_to_cpu = false;
  config.worker_fault_plans.push_back(parse_fault_plan("transient@1"));
  PricingService service(std::move(config));
  GreeksService greeks(service);
  const auto book = finance::make_curve_batch(12);  // 48 legs, 3 batches

  EXPECT_THROW((void)greeks.greeks_batch_blocking(book),
               ocl::faults::TransientDeviceError);
  // The throw came only after every leg settled: the service's books
  // already balance, with the failed batch and the priced rest.
  const service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, 4 * book.size());
  EXPECT_EQ(stats.requests_completed + stats.requests_failed +
                stats.requests_timed_out,
            stats.requests_submitted);
  EXPECT_GE(stats.requests_failed, 1u);
  EXPECT_GE(stats.requests_completed, 1u);

  // The fault was one-shot: a second book on the same service succeeds,
  // bit for bit.
  const std::vector<GreeksQuote> quotes = greeks.greeks_batch_blocking(book);
  const std::vector<finance::Greeks> want =
      direct_greeks(book, Target::kFpgaKernelB, kSteps);
  ASSERT_EQ(quotes.size(), book.size());
  for (std::size_t i = 0; i < book.size(); ++i) {
    expect_greeks_bitwise(quotes[i].greeks, want[i]);
  }
}

TEST(GreeksService, ThrowingOverlapStepIsRethrownAfterEveryElementSettled) {
  // The first launch stalls for 100 ms, so every element is still in
  // flight when the overlap step throws. The call must still wait for
  // all of them (the workers write into the caller's stack sink) before
  // it rethrows the step's exception.
  constexpr auto kStall = 100ms;
  ServiceConfig config;
  config.targets = {Target::kFpgaKernelB};
  config.steps = kSteps;
  config.linger = 0us;
  config.worker_fault_plans.push_back(parse_fault_plan("stall@1,ms=100"));
  PricingService service(std::move(config));
  const auto book = finance::make_curve_batch(8);
  const std::vector<std::uint32_t> tags(
      book.size(), make_cache_tag(QuoteTagKind::kVegaUp));
  std::vector<Quote> out(book.size());

  const auto start = std::chrono::steady_clock::now();
  std::size_t admitted = 0;
  EXPECT_THROW(service.price_book_blocking(
                   book.data(), tags.data(), book.size(), out.data(),
                   [&](std::size_t taken) {
                     admitted = taken;
                     throw std::runtime_error("overlap");
                   }),
               std::runtime_error);
  EXPECT_GE(std::chrono::steady_clock::now() - start, kStall);
  EXPECT_EQ(admitted, book.size());
  const service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, book.size());
  EXPECT_EQ(stats.requests_completed, book.size());
  PricingAccelerator direct({Target::kFpgaKernelB, kSteps,
                             /*compute_rmse=*/false});
  const std::vector<double> want = direct.run(book).prices;
  for (std::size_t i = 0; i < book.size(); ++i) {
    EXPECT_EQ(out[i].price, want[i]) << "element " << i;
  }
}

TEST(GreeksSweep, RejectsDegenerateRequests) {
  PricingService service(cpu_config());
  GreeksService greeks(service);
  SweepRequest empty_book;
  empty_book.grid.spot_factors = {1.0};
  EXPECT_THROW((void)greeks.sweep_blocking(empty_book), PreconditionError);

  SweepRequest empty_axis = small_sweep();
  empty_axis.grid.vol_shifts.clear();
  EXPECT_THROW((void)greeks.sweep_blocking(empty_axis), PreconditionError);
}

}  // namespace
}  // namespace binopt::core
