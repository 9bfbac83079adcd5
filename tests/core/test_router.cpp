// FleetRouter suite (DESIGN.md §2.8): the energy/latency-aware claim rule
// that replaces naive work stealing with per-chunk cost prediction off
// the paper's platform/energy models, continuously corrected by a
// measured-vs-predicted feedback loop.
//
//   1. UNIT: policy parsing/validation, the exact affine decomposition of
//      modelled_batch_seconds, deterministic claims under both policies,
//      in-flight weighting, routable masking, and EWMA feedback
//      convergence after an injected slowdown.
//   2. SERVICE: routed traffic stays bit-identical to the unrouted
//      service (single-target parity), the router organically starves a
//      stalled backend before its circuit trips, and chaos-grade fault
//      plans keep parity with honest routed/misrouted attribution.
//
// test_core runs under the CI ThreadSanitizer job, so the service-level
// scenarios also race-check collection-time placement (claim decisions,
// deferral waits, quarantine failover) against concurrent submitters.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/accelerator.h"
#include "core/service/pricing_service.h"
#include "core/service/router.h"
#include "finance/workload.h"
#include "ocl/faults/fault_plan.h"

namespace binopt::core::service {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kSteps = 64;

RouterConfig latency_config() {
  RouterConfig config;
  config.policy = RouterPolicy::kLatency;
  return config;
}

/// The backends that, free right now, would claim a chunk of n options.
std::vector<std::size_t> claimants(const FleetRouter& router, std::size_t n) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < router.backend_count(); ++i) {
    if (router.should_claim(i, n)) out.push_back(i);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Policy parsing and config validation.

TEST(RouterPolicy, ParsesAndRoundTrips) {
  EXPECT_EQ(parse_router_policy("off"), RouterPolicy::kOff);
  EXPECT_EQ(parse_router_policy("latency"), RouterPolicy::kLatency);
  EXPECT_EQ(parse_router_policy("energy"), RouterPolicy::kEnergyBudget);
  for (const RouterPolicy policy :
       {RouterPolicy::kOff, RouterPolicy::kLatency,
        RouterPolicy::kEnergyBudget}) {
    EXPECT_EQ(parse_router_policy(to_string(policy)), policy);
  }
  EXPECT_THROW((void)parse_router_policy("fastest"), PreconditionError);
  EXPECT_THROW((void)parse_router_policy(""), PreconditionError);
}

TEST(RouterPolicy, EnvKnobSelectsThePolicy) {
  ::setenv("BINOPT_SERVICE_ROUTER", "energy", 1);
  EXPECT_EQ(router_policy_from_env(), RouterPolicy::kEnergyBudget);
  ::setenv("BINOPT_SERVICE_ROUTER", "banana", 1);
  EXPECT_THROW((void)router_policy_from_env(), PreconditionError);
  ::unsetenv("BINOPT_SERVICE_ROUTER");
  EXPECT_EQ(router_policy_from_env(), RouterPolicy::kOff);
}

TEST(RouterPolicy, ConfigValidationRejectsNonsense) {
  RouterConfig config = latency_config();
  config.feedback_alpha = 0.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config = latency_config();
  config.feedback_alpha = 1.5;
  EXPECT_THROW(config.validate(), PreconditionError);
  config = latency_config();
  config.watts_budget = -1.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config = latency_config();
  config.min_correction = 10.0;
  config.max_correction = 1.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  EXPECT_NO_THROW(latency_config().validate());
}

// ---------------------------------------------------------------------------
// Cost model: the router's affine fit is the model, exactly.

TEST(FleetRouter, AffineFitReproducesTheModelExactly) {
  const std::vector<Target> fleet = {Target::kCpuReference,
                                     Target::kGpuKernelB,
                                     Target::kFpgaKernelB};
  const FleetRouter router(fleet, kSteps, latency_config());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{17},
                                std::size_t{257}, std::size_t{1024}}) {
      const double modelled =
          PricingAccelerator::modelled_batch_seconds(fleet[i], kSteps, n);
      // The models are affine in n, so fitting at two points must
      // reproduce them everywhere (tiny FP tolerance for the re-derived
      // slope/intercept arithmetic).
      EXPECT_NEAR(router.predicted_batch_seconds(i, n), modelled,
                  1e-9 * modelled + 1e-15)
          << to_string(fleet[i]) << " n=" << n;
    }
  }
}

TEST(FleetRouter, LatencyPolicyPicksTheModelledFastestBackend) {
  const std::vector<Target> fleet = {Target::kCpuReference,
                                     Target::kGpuKernelB,
                                     Target::kFpgaKernelB};
  const FleetRouter router(fleet, kSteps, latency_config());
  std::size_t fastest = 0;
  double best = PricingAccelerator::modelled_batch_seconds(fleet[0], kSteps, 64);
  for (std::size_t i = 1; i < fleet.size(); ++i) {
    const double t =
        PricingAccelerator::modelled_batch_seconds(fleet[i], kSteps, 64);
    if (t < best) {
      best = t;
      fastest = i;
    }
  }
  // Idle fleet, corrections at 1.0: placement is the argmin of the model.
  EXPECT_EQ(claimants(router, 64), std::vector<std::size_t>{fastest});
}

TEST(FleetRouter, QueueDepthShiftsPlacementOffTheFastestBackend) {
  const std::vector<Target> fleet = {Target::kCpuReference,
                                     Target::kGpuKernelB,
                                     Target::kFpgaKernelB};
  FleetRouter router(fleet, kSteps, latency_config());
  const std::vector<std::size_t> first = claimants(router, 64);
  ASSERT_EQ(first.size(), 1u);
  // Pile in-flight work onto the preferred backend until the corrected
  // estimate makes somebody else cheaper (join-shortest-queue).
  router.set_in_flight(first[0], 1u << 22);
  const std::vector<std::size_t> second = claimants(router, 64);
  EXPECT_FALSE(second.empty());
  EXPECT_NE(second, first);
  // Settling the batch restores the original placement.
  router.set_in_flight(first[0], 0);
  EXPECT_EQ(claimants(router, 64), first);
}

TEST(FleetRouter, UnroutableBackendsAreSkippedUntilNoneRemain) {
  const std::vector<Target> fleet = {Target::kCpuReference,
                                     Target::kCpuReference};
  FleetRouter router(fleet, kSteps, latency_config());
  // Backend 1 measures 4x slower, so it normally defers to backend 0.
  const auto four_x_ns = static_cast<std::uint64_t>(
      router.predicted_batch_seconds(1, 1) * 4.0 * 1e9);
  for (int i = 0; i < 32; ++i) router.record_measurement(1, 1, four_x_ns);
  EXPECT_EQ(claimants(router, 1), std::vector<std::size_t>{0});
  router.set_routable(0, false);
  EXPECT_TRUE(router.should_claim(1, 1));
  // Whole fleet down: claim anyway (the probe path drains it) instead of
  // stranding the queue.
  router.set_routable(1, false);
  EXPECT_FALSE(claimants(router, 1).empty());
  router.set_routable(0, true);
  EXPECT_EQ(claimants(router, 1), std::vector<std::size_t>{0});
}

TEST(FleetRouter, EnergyPolicyPicksTheMostFrugalBackendUnderBudget) {
  const std::vector<Target> fleet = {Target::kCpuReference,
                                     Target::kGpuKernelB,
                                     Target::kFpgaKernelB};
  RouterConfig config;
  config.policy = RouterPolicy::kEnergyBudget;
  const FleetRouter unbudgeted(fleet, kSteps, config);

  // Modelled J/option per backend, straight from the paper's models.
  std::vector<double> jpo;
  for (const Target t : fleet) {
    jpo.push_back(PricingAccelerator::modelled_power_watts(t) /
                  PricingAccelerator::modelled_options_per_second(t, kSteps));
  }
  std::size_t frugal = 0;
  for (std::size_t i = 1; i < fleet.size(); ++i) {
    if (jpo[i] < jpo[frugal]) frugal = i;
  }
  EXPECT_EQ(claimants(unbudgeted, 64), std::vector<std::size_t>{frugal});
  // The paper's headline: the FPGA kernel is the energy-efficient target.
  EXPECT_EQ(fleet[frugal], Target::kFpgaKernelB);

  // A watts budget below every backend must degrade gracefully to the
  // frugal pick, not leave batches unroutable.
  config.watts_budget = 1e-3;
  const FleetRouter impossible(fleet, kSteps, config);
  EXPECT_EQ(claimants(impossible, 64), std::vector<std::size_t>{frugal});
}

TEST(FleetRouter, FeedbackConvergesOnAnInjectedFourXSlowdown) {
  const std::vector<Target> fleet = {Target::kCpuReference};
  FleetRouter router(fleet, kSteps, latency_config());
  ASSERT_DOUBLE_EQ(router.correction(0), 1.0);

  // Report every launch as exactly 4x the model's prediction. The EWMA
  // must converge to a 4x correction (alpha 0.35 closes the gap fast).
  constexpr std::size_t kBatch = 32;
  const auto four_x_ns = static_cast<std::uint64_t>(
      router.predicted_batch_seconds(0, kBatch) * 4.0 * 1e9);
  for (int i = 0; i < 32; ++i) {
    const double ratio = router.record_measurement(0, kBatch, four_x_ns);
    EXPECT_NEAR(ratio, 4.0, 0.05);
  }
  EXPECT_NEAR(router.correction(0), 4.0, 0.05);
  // And the corrected estimate now reflects the slowdown.
  EXPECT_NEAR(router.corrected_queue_seconds(0, kBatch),
              router.predicted_batch_seconds(0, kBatch) * 4.0,
              router.predicted_batch_seconds(0, kBatch) * 0.2);
}

TEST(FleetRouter, FeedbackClampsGarbageMeasurements) {
  RouterConfig config = latency_config();
  config.max_correction = 100.0;
  config.min_correction = 0.1;
  FleetRouter router({Target::kCpuReference}, kSteps, config);
  // An absurd measurement saturates at the clamp instead of exploding.
  for (int i = 0; i < 64; ++i) {
    router.record_measurement(0, 1, ~std::uint64_t{0} / 2);
  }
  EXPECT_LE(router.correction(0), 100.0);
  // A zero measurement saturates at the floor instead of hitting 0 (a
  // zero correction would make every queue look free).
  for (int i = 0; i < 64; ++i) router.record_measurement(0, 1, 0);
  EXPECT_GE(router.correction(0), 0.1);
}

// ---------------------------------------------------------------------------
// Service integration.

std::vector<double> direct_prices(const std::vector<finance::OptionSpec>& batch,
                                  Target target) {
  PricingAccelerator direct({target, kSteps, /*compute_rmse=*/false});
  return direct.run(batch).prices;
}

/// Wall milliseconds of one warm direct launch of `n` options on `target`:
/// the slowest of three after a warm-up launch. Sanitizer and debug
/// builds run a launch tens of times slower than an optimised one, so a
/// test that needs one backend to be clearly slower sizes its stall from
/// this instead of from a fixed figure.
std::uint64_t warm_launch_ms(Target target, std::size_t n) {
  const auto batch = finance::make_curve_batch(n);
  PricingAccelerator::Config config;
  config.target = target;
  config.steps = kSteps;
  config.compute_rmse = false;
  PricingAccelerator direct(std::move(config));
  (void)direct.run(batch);
  std::chrono::steady_clock::duration slowest{};
  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    (void)direct.run(batch);
    slowest = std::max(slowest, std::chrono::steady_clock::now() - start);
  }
  return static_cast<std::uint64_t>(
      std::chrono::ceil<std::chrono::milliseconds>(slowest).count());
}

TEST(RoutedService, SingleTargetRoutingIsBitIdenticalToUnrouted) {
  const auto batch = finance::make_curve_batch(96);
  ServiceConfig config;
  config.targets.assign(2, Target::kCpuReference);
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  config.cache_capacity = 0;

  PricingService plain(config);
  const std::vector<double> unrouted = plain.submit_batch(batch).get();

  config.router.policy = RouterPolicy::kLatency;
  PricingService routed(config);
  const std::vector<double> via_router = routed.submit_batch(batch).get();
  EXPECT_EQ(via_router, unrouted);  // bitwise: routing moves work, not math

  const auto stats = routed.stats();
  EXPECT_EQ(stats.requests_routed, batch.size());
  EXPECT_EQ(stats.requests_completed, batch.size());
  EXPECT_GT(stats.predicted_vs_measured.count(), 0u);
  // Quotes report both the placement and the pricing backend.
  const Quote quote = routed.submit(batch.front()).get();
  EXPECT_EQ(quote.target, Target::kCpuReference);
  EXPECT_EQ(quote.routed_target, Target::kCpuReference);
}

TEST(RoutedService, FeedbackStarvesAStalledBackendBeforeItsCircuitTrips) {
  // Two identical backends; worker 1 stalls on EVERY launch (the stall
  // succeeds — health never trips, the circuit stays closed). The
  // router's measured-vs-predicted feedback is the only mechanism that
  // can notice, and it must shift the traffic share toward worker 0. The
  // stall is at least 5 ms and at least four warm launches, so worker 1
  // is clearly the slower backend in every build type.
  ServiceConfig config;
  config.targets.assign(2, Target::kFpgaKernelB);
  config.steps = kSteps;
  config.max_batch = 8;
  config.linger = 0us;
  config.cache_capacity = 0;
  config.router.policy = RouterPolicy::kLatency;
  config.worker_fault_plans.resize(2);
  const std::uint64_t stall_ms =
      std::max<std::uint64_t>(5, 4 * warm_launch_ms(Target::kFpgaKernelB, 8));
  config.worker_fault_plans[1] = ocl::faults::parse_fault_plan(
      "stall@1x100000,ms=" + std::to_string(stall_ms));

  const auto batch = finance::make_curve_batch(160);
  const std::vector<double> expected =
      direct_prices(batch, Target::kFpgaKernelB);

  // Waves of 16 with a barrier between them: placements in wave k see the
  // measured/predicted corrections learned from waves < k. (A single
  // up-front blast would be placed entirely on pre-feedback estimates.)
  PricingService service(config);
  constexpr std::size_t kWave = 16;
  for (std::size_t base = 0; base < batch.size(); base += kWave) {
    std::vector<std::future<Quote>> futures;
    futures.reserve(kWave);
    for (std::size_t i = base; i < base + kWave; ++i) {
      futures.push_back(service.submit(batch[i]));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().price, expected[base + i]);  // parity
    }
  }

  const auto stats = service.stats();
  ASSERT_EQ(stats.served_by_backend.size(), 2u);
  // The healthy backend ends up with the strict majority of the traffic —
  // organic starvation of the slow worker, no quarantine involved.
  EXPECT_GT(stats.served_by_backend[0], stats.served_by_backend[1]);
  EXPECT_EQ(stats.quarantines_entered, 0u);
  EXPECT_GT(stats.predicted_vs_measured.count(), 0u);
  EXPECT_EQ(stats.requests_completed, batch.size());
}

TEST(RoutedService, ChaosFaultsKeepParityAndHonestAttribution) {
  // Chaos with the router on: worker 0 loses its device on launch 1 and
  // worker 1 hiccups transiently — every price must still be bitwise
  // identical, and requests collected by a worker other than the routed
  // one must be counted as misrouted (failover/probe traffic).
  ServiceConfig config;
  config.targets.assign(2, Target::kFpgaKernelB);
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  config.cache_capacity = 0;
  config.retry.max_attempts = 10;
  config.retry.base_backoff = 100us;
  config.retry.max_backoff = 2000us;
  config.health.probe_backoff = 1000us;
  config.health.max_probe_backoff = 8000us;
  config.health.probe_successes = 2;
  config.router.policy = RouterPolicy::kLatency;
  config.worker_fault_plans = {
      ocl::faults::parse_fault_plan("device-lost@1"),
      ocl::faults::parse_fault_plan("transient@2x2")};

  const auto batch = finance::make_curve_batch(64);
  const std::vector<double> expected =
      direct_prices(batch, Target::kFpgaKernelB);

  PricingService service(config);
  EXPECT_EQ(service.submit_batch(batch).get(), expected);

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_completed, batch.size());
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.requests_routed, batch.size());
  if (stats.failovers > 0) {
    // Failed-over work was collected off its routed backend.
    EXPECT_GT(stats.requests_misrouted, 0u);
  }
}

TEST(RoutedService, EnergyPolicyRoutesToTheFrugalBackendWithParity) {
  // Mixed fleet under the energy policy: all steady traffic must land on
  // the modelled-frugal backend (the FPGA kernel) and stay bit-identical
  // to that backend's direct run.
  ServiceConfig config;
  config.targets = {Target::kCpuReference, Target::kFpgaKernelB};
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  config.cache_capacity = 0;
  config.router.policy = RouterPolicy::kEnergyBudget;

  const auto batch = finance::make_curve_batch(32);
  const std::vector<double> expected =
      direct_prices(batch, Target::kFpgaKernelB);

  PricingService service(config);
  std::vector<std::future<Quote>> futures;
  futures.reserve(batch.size());
  for (const auto& spec : batch) futures.push_back(service.submit(spec));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Quote quote = futures[i].get();
    EXPECT_EQ(quote.price, expected[i]);
    EXPECT_EQ(quote.target, Target::kFpgaKernelB);
    EXPECT_EQ(quote.routed_target, Target::kFpgaKernelB);
  }
  const auto stats = service.stats();
  ASSERT_EQ(stats.served_by_backend.size(), 2u);
  EXPECT_EQ(stats.served_by_backend[0], 0u);
  EXPECT_EQ(stats.served_by_backend[1], batch.size());
}

// ---------------------------------------------------------------------------
// Attribution satellites: cache hits and degraded quotes report the
// backend that actually priced them, never merely the routed one.

TEST(RoutedService, CacheHitReportsTheBackendThatOriginallyPricedIt) {
  ServiceConfig config;
  config.targets = {Target::kFpgaKernelB};
  config.steps = kSteps;
  config.max_batch = 8;
  config.linger = 0us;
  config.cache_capacity = 128;
  config.router.policy = RouterPolicy::kLatency;

  PricingService service(config);
  const finance::OptionSpec spec{};
  const Quote cold = service.submit(spec).get();
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(cold.target, Target::kFpgaKernelB);
  EXPECT_EQ(cold.routed_target, Target::kFpgaKernelB);

  const Quote warm = service.submit(spec).get();
  EXPECT_TRUE(warm.from_cache);  // stamped, not silent
  EXPECT_EQ(warm.price, cold.price);
  // Attribution: the cache hit names the backend that priced the entry.
  EXPECT_EQ(warm.target, Target::kFpgaKernelB);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(RoutedService, DegradedQuoteSeparatesRoutedAndPricingBackends) {
  // Routed to the FPGA backend, which permanently dies: with
  // degrade_to_cpu the CPU reference answers. The quote must name BOTH
  // truths — routed_target = where the router placed it, target = who
  // actually priced it.
  ServiceConfig config;
  config.targets = {Target::kFpgaKernelB};
  config.steps = kSteps;
  config.max_batch = 8;
  config.linger = 0us;
  config.cache_capacity = 0;
  config.retry.max_attempts = 2;
  config.retry.base_backoff = 100us;
  config.retry.max_backoff = 1000us;
  config.degrade_to_cpu = true;
  config.router.policy = RouterPolicy::kLatency;
  config.worker_fault_plans = {
      ocl::faults::parse_fault_plan("transient@~100")};

  PricingService service(config);
  const finance::OptionSpec spec{};
  const double cpu_price =
      direct_prices({spec}, Target::kCpuReference).front();

  const Quote quote = service.submit(spec).get();
  EXPECT_TRUE(quote.degraded);
  EXPECT_EQ(quote.price, cpu_price);
  EXPECT_EQ(quote.target, Target::kCpuReference);      // who priced it
  EXPECT_EQ(quote.routed_target, Target::kFpgaKernelB);  // where it went
  EXPECT_EQ(service.stats().degraded_completions, 1u);
}

}  // namespace
}  // namespace binopt::core::service
