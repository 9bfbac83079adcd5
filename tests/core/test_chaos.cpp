// Chaos suite for the PricingService fault-tolerance machinery
// (DESIGN.md §2.5): per-fault-kind injection through real worker
// accelerators, asserting the two invariants the serving layer promises —
//
//   1. PARITY: every price produced under faults is bitwise identical to
//      the fault-free run of the same options on the same target
//      (retries/failovers only re-order work, never change results), and
//   2. CONSERVATION: zero lost and zero double-resolved requests — every
//      future resolves exactly once, as a price or a typed error, even
//      when a backend dies mid-batch or the service shuts down broken.
//
// test_core is part of the ThreadSanitizer CI job, so every scenario here
// also race-checks the retry/requeue/quarantine machinery with CU > 1.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/accelerator.h"
#include "core/service/pricing_service.h"
#include "finance/workload.h"
#include "ocl/faults/fault_plan.h"

namespace binopt::core {
namespace {

using namespace std::chrono_literals;
using ocl::faults::FaultPlan;
using ocl::faults::parse_fault_plan;

constexpr std::size_t kSteps = 64;

/// Kernel B launches exactly one NDRange per accelerator run, so launch
/// ordinals in a fault plan map 1:1 to service batches on this target.
constexpr Target kTarget = Target::kFpgaKernelB;

ServiceConfig chaos_config(const std::string& spec, std::size_t workers = 1) {
  ServiceConfig config;
  config.targets.assign(workers, kTarget);
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  // Fast, bounded chaos: retries back off in microseconds and quarantined
  // backends re-probe after ~1ms so tests converge quickly.
  config.retry.max_attempts = 10;
  config.retry.base_backoff = 100us;
  config.retry.max_backoff = 2000us;
  config.health.probe_backoff = 1000us;
  config.health.max_probe_backoff = 8000us;
  config.health.probe_successes = 2;
  for (std::size_t i = 0; i < workers; ++i) {
    config.worker_fault_plans.push_back(parse_fault_plan(spec));
  }
  return config;
}

std::vector<double> direct_prices(const std::vector<finance::OptionSpec>& batch,
                                  Target target = kTarget) {
  PricingAccelerator accelerator({target, kSteps, /*compute_rmse=*/false});
  return accelerator.run(batch).prices;
}

/// Runs `batch` through a faulted service and asserts both invariants:
/// bitwise parity with the fault-free direct run, and conservation
/// (completed == submitted, nothing failed or timed out).
service::ServiceStats assert_parity_under(const std::string& spec,
                                          std::size_t workers,
                                          std::size_t options) {
  const auto batch = finance::make_curve_batch(options);
  const std::vector<double> expected = direct_prices(batch);

  PricingService service(chaos_config(spec, workers));
  const std::vector<double> got = service.submit_batch(batch).get();
  EXPECT_EQ(got, expected);  // bitwise-equal doubles

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, options);
  EXPECT_EQ(stats.requests_completed, options);  // zero lost
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.requests_timed_out, 0u);
  EXPECT_EQ(stats.degraded_completions, 0u);  // no silent degradation
  return stats;
}

// ---------------------------------------------------------------------------
// Per-fault-kind parity: every retryable kind converges to the fault-free
// prices with nothing lost.

TEST(Chaos, TransientLaunchFailuresRetryToParity) {
  const auto stats = assert_parity_under("transient@1x2", 1, 8);
  // Launches 1 and 2 both failed with >= 1 request aboard, and every
  // failed batch member was re-enqueued.
  EXPECT_GE(stats.retries, 2u);
  EXPECT_EQ(stats.failovers, 0u);
}

TEST(Chaos, CuDeathMidKernelRetriesToParity) {
  ServiceConfig config = chaos_config("cu-death@1,cu=1", 1);
  config.compute_units = 2;  // the parallel scheduler path, checked by TSan
  const auto batch = finance::make_curve_batch(8);
  const std::vector<double> expected = direct_prices(batch);

  PricingService service(std::move(config));
  EXPECT_EQ(service.submit_batch(batch).get(), expected);
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_completed, 8u);
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_GE(stats.retries, 1u);
}

TEST(Chaos, ReadErrorsRetryToParity) {
  const auto stats = assert_parity_under("read-error@1", 1, 8);
  EXPECT_GE(stats.retries, 1u);
}

TEST(Chaos, WriteErrorsRetryToParity) {
  const auto stats = assert_parity_under("write-error@1", 1, 8);
  EXPECT_GE(stats.retries, 1u);
}

TEST(Chaos, ProbabilisticTransientStormConvergesToParity) {
  // ~40% of launches fail, seeded (same schedule every run; this seed
  // fires on launch ordinal 1, so at least one retry is guaranteed). The
  // retry budget is 10 attempts; the schedule is deterministic, so this
  // cannot flake.
  const auto stats =
      assert_parity_under("transient@~40;seed=4", 1, 24);
  EXPECT_GE(stats.retries, 1u);
}

// ---------------------------------------------------------------------------
// Fatal faults: quarantine, half-open probes, recovery, failover.

TEST(Chaos, DeviceLossQuarantinesProbesAndRecovers) {
  // The sole backend's first launch is fatal: its in-flight batch fails
  // over back to the shared queue, the circuit opens, half-open probes
  // (batch limit 1) succeed twice, the circuit closes, and the remaining
  // requests drain normally — total outage visible in time_to_recovery_ns.
  const auto stats = assert_parity_under("device-lost@1", 1, 8);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.quarantines_entered, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GE(stats.probes_launched, 2u);
  EXPECT_GE(stats.probes_succeeded, 2u);
  EXPECT_EQ(stats.time_to_recovery_ns.count(), 1u);
  EXPECT_GE(stats.health_transitions, 2u);  // -> quarantined -> healthy
}

TEST(Chaos, FleetWideDeviceLossFailsOverAndHeals) {
  // Both shards lose their device on their first launch. Whichever worker
  // collects first fails its batch over; eventually both circuits close
  // and the full curve completes with parity on the survivors/probes.
  const auto stats = assert_parity_under("device-lost@1", 2, 24);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.quarantines_entered, 1u);
  EXPECT_GE(stats.recoveries, 1u);
}

TEST(Chaos, WatchdogExpiryIsFatalAndRecoverable) {
  // The first launch stalls 600ms against a 150ms watchdog: the queue
  // declares the device lost, the service quarantines and fails over,
  // probes find the healed device, and everything completes with parity.
  // The watchdog measures wall-clock time and applies to every launch, so
  // the deadline leaves generous headroom over a legitimate 6-option
  // launch (~ms, tens of ms sanitized) and the assertions tolerate an
  // extra expiry cycle rather than demanding exactly one.
  const auto stats =
      assert_parity_under("stall@1,ms=600;watchdog-ms=150", 1, 6);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.quarantines_entered, 1u);
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_EQ(stats.quarantines_entered, stats.recoveries);
}

// ---------------------------------------------------------------------------
// Retry-budget exhaustion: typed failure, or graceful degradation.

TEST(Chaos, ExhaustedRetriesFailWithTheFaultError) {
  ServiceConfig config = chaos_config("transient@~100", 1);
  config.retry.max_attempts = 2;
  PricingService service(std::move(config));

  auto future = service.submit(finance::OptionSpec{});
  EXPECT_THROW(future.get(), ocl::faults::TransientDeviceError);
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_failed, 1u);
  EXPECT_EQ(stats.requests_completed, 0u);
  EXPECT_GE(stats.retries, 1u);
}

TEST(Chaos, BatchFutureSettlesOnlyOnceEveryElementSettled) {
  // The first of three launches fails with no retry budget left, so the
  // batch future carries that error — but only once the later launches
  // have settled too, so the caller's stats() sees the whole curve.
  ServiceConfig config = chaos_config("transient@1", 1);
  config.retry.max_attempts = 1;
  config.max_batch = 16;
  PricingService service(std::move(config));
  const auto batch = finance::make_curve_batch(48);

  auto future = service.submit_batch(batch);
  EXPECT_THROW((void)future.get(), ocl::faults::TransientDeviceError);
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_completed + stats.requests_failed, batch.size());
  EXPECT_GE(stats.requests_failed, 1u);
}

TEST(Chaos, DegradesToCpuReferenceWhenTheBackendGivesUp) {
  ServiceConfig config = chaos_config("transient@~100", 1);
  config.retry.max_attempts = 2;
  config.degrade_to_cpu = true;
  PricingService service(std::move(config));

  const auto batch = finance::make_curve_batch(4);
  const std::vector<double> cpu_expected =
      direct_prices(batch, Target::kCpuReference);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Quote quote = service.submit(batch[i]).get();
    EXPECT_TRUE(quote.degraded);
    EXPECT_EQ(quote.target, Target::kCpuReference);  // flagged, not silent
    EXPECT_EQ(quote.price, cpu_expected[i]);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.degraded_completions, batch.size());
  EXPECT_EQ(stats.requests_completed, batch.size());
  EXPECT_EQ(stats.requests_failed, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: the absolute deadline is enforced AFTER pricing too — a
// result decided past its deadline resolves as ServiceTimeoutError, never
// as a late price.

TEST(Chaos, DeadlineEnforcedAfterPricingOnAStalledLaunch) {
  // No watchdog: the stalled launch *succeeds*, 120ms late, far past the
  // request's 30ms absolute deadline stamped at admission.
  PricingService service(chaos_config("stall@1,ms=120", 1));
  auto late = service.submit(finance::OptionSpec{}, 30ms);
  EXPECT_THROW(late.get(), ServiceTimeoutError);
  EXPECT_EQ(service.stats().requests_timed_out, 1u);

  // The stall was one-shot; an undeadlined request prices normally.
  const Quote quote = service.submit(finance::OptionSpec{}).get();
  EXPECT_EQ(quote.price,
            direct_prices({finance::OptionSpec{}}).front());
}

// ---------------------------------------------------------------------------
// Satellite: worker shutdown mid-batch. Destroying the service while a
// faulting backend still holds work must resolve EVERY admitted future —
// a price or a typed error, never a broken promise, never a hang.

TEST(Chaos, ShutdownMidChaosResolvesEveryFuture) {
  const auto batch = finance::make_curve_batch(32);
  std::vector<std::future<Quote>> futures;
  {
    ServiceConfig config = chaos_config("device-lost@~60;seed=3", 1);
    config.retry.max_attempts = 3;
    PricingService service(std::move(config));
    futures.reserve(batch.size());
    for (const auto& spec : batch) futures.push_back(service.submit(spec));
  }  // destructor drains the queue with the backend still dying

  std::size_t priced = 0;
  std::size_t errored = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(0s), std::future_status::ready);
    try {
      (void)future.get();
      ++priced;
    } catch (const std::future_error&) {
      FAIL() << "broken promise: a request was lost in shutdown";
    } catch (const Error&) {
      ++errored;  // typed: fault, timeout, or shutdown
    }
  }
  EXPECT_EQ(priced + errored, batch.size());  // conservation
}

// ---------------------------------------------------------------------------
// Disabled-mode guarantee at the service level: an armed-but-never-firing
// plan changes nothing.

TEST(Chaos, NeverFiringPlanKeepsServiceBitIdentical) {
  const auto stats = assert_parity_under("device-lost@1000000", 1, 8);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.quarantines_entered, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: strict config validation with actionable messages.

template <typename Fn>
void expect_rejected(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected PreconditionError containing '" << needle << "'";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "message was: " << error.what();
  }
}

TEST(ChaosConfig, RetryPolicyIsValidatedAtConstruction) {
  expect_rejected(
      [] {
        ServiceConfig config = chaos_config("");
        config.retry.max_attempts = 0;
        PricingService service(std::move(config));
      },
      "RetryPolicy.max_attempts must be in [1, 100]");
  expect_rejected(
      [] {
        ServiceConfig config = chaos_config("");
        config.retry.base_backoff = 0us;
        PricingService service(std::move(config));
      },
      "turns retries into a hot spin");
  expect_rejected(
      [] {
        ServiceConfig config = chaos_config("");
        config.retry.base_backoff = 500us;
        config.retry.max_backoff = 100us;
        PricingService service(std::move(config));
      },
      "must be >= base_backoff");
}

TEST(ChaosConfig, HealthPolicyIsValidatedAtConstruction) {
  expect_rejected(
      [] {
        ServiceConfig config = chaos_config("");
        config.health.degrade_after = 0;
        PricingService service(std::move(config));
      },
      "HealthPolicy.degrade_after must be >= 1");
  expect_rejected(
      [] {
        ServiceConfig config = chaos_config("");
        config.health.degrade_after = 3;
        config.health.quarantine_after = 1;
        PricingService service(std::move(config));
      },
      "cannot skip straight past degraded");
  expect_rejected(
      [] {
        ServiceConfig config = chaos_config("");
        config.health.probe_backoff = 0us;
        PricingService service(std::move(config));
      },
      "probes a dead device in a hot loop");
  expect_rejected(
      [] {
        ServiceConfig config = chaos_config("");
        config.health.probe_successes = 0;
        PricingService service(std::move(config));
      },
      "HealthPolicy.probe_successes must be >= 1");
}

TEST(ChaosConfig, WorkerFaultPlansMustMatchTargets) {
  expect_rejected(
      [] {
        ServiceConfig config = chaos_config("", /*workers=*/2);
        config.worker_fault_plans.pop_back();  // 1 plan, 2 targets
        PricingService service(std::move(config));
      },
      "exactly one plan per target");
}

TEST(ChaosConfig, MalformedFaultSpecNamesTheClause) {
  expect_rejected([] { (void)parse_fault_plan("device-lost@oops"); },
                  "must be an unsigned integer");
}

// ---------------------------------------------------------------------------
// Overload layer under chaos (DESIGN.md §2.10): deadlines interact with
// the retry machinery, and shedding composes with faults without breaking
// the conservation promise.

TEST(Chaos, DeadlineFiresBetweenRetryAttempts) {
  // The first attempt fails transiently at ~0ms and is requeued with a
  // 60ms backoff; the request's 30ms deadline fires INSIDE that backoff
  // window. With the layer armed the worker must eagerly drop the retry
  // from its backoff wait — never burn a second launch on a request that
  // is already dead.
  ServiceConfig config = chaos_config("transient@1x10", 1);
  config.retry.base_backoff = 60ms;
  config.retry.max_backoff = 120ms;
  config.overload.shed_watermark = 1.0;  // arm eager expiry
  PricingService service(std::move(config));

  auto doomed = service.submit(finance::OptionSpec{}, 30ms);
  EXPECT_THROW((void)doomed.get(), ServiceTimeoutError);

  const auto stats = service.stats();
  EXPECT_GE(stats.retries, 1u);  // the first attempt was requeued...
  EXPECT_EQ(stats.eager_deadline_drops, 1u);  // ...then dropped, unlaunched
  EXPECT_EQ(stats.requests_timed_out, 1u);
  EXPECT_EQ(stats.requests_completed, 0u);
  EXPECT_EQ(stats.requests_failed, 0u);
}

TEST(Chaos, ShedStormAccountsEveryRequestExactly) {
  // Faults and shedding together: both workers lose their device on
  // launch 1 and take transient failures later, while 4 threads push a
  // 10/45/45 priority mix through a 16-deep queue with the watermark at
  // 0.5. The conservation ledger is double-entry and EXACT: every issued
  // request is either a completion (bitwise-equal to the fault-free
  // direct run) or a typed shed the service counted — zero tolerance,
  // zero silent drops, zero timeouts, zero failures.
  constexpr std::size_t kOptions = 192;
  constexpr std::size_t kThreads = 4;
  const auto batch = finance::make_curve_batch(kOptions);
  const std::vector<double> expected = direct_prices(batch);

  ServiceConfig config = chaos_config("device-lost@1;transient@3x2;seed=7", 2);
  config.queue_capacity = 16;
  config.overload.shed_watermark = 0.5;
  const service::PriorityMix mix = service::parse_priority_mix("10/45/45");
  PricingService service(std::move(config));

  std::atomic<std::size_t> shed{0};
  std::vector<std::vector<std::pair<std::size_t, std::future<Quote>>>>
      admitted(kThreads);
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      const std::size_t chunk = kOptions / kThreads;
      for (std::size_t k = t * chunk; k < (t + 1) * chunk; ++k) {
        try {
          admitted[t].emplace_back(
              k, service.submit(batch[k], kNoTimeout, 0, mix.pick(k)));
        } catch (const ServiceOverloadError&) {
          shed.fetch_add(1);  // typed refusal; future never existed
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();

  std::size_t completed = 0;
  for (auto& per_thread : admitted) {
    for (auto& [index, future] : per_thread) {
      const Quote quote = future.get();  // throws on any lost request
      EXPECT_EQ(quote.price, expected[index]);  // bitwise, despite faults
      EXPECT_FALSE(quote.browned_out);
      ++completed;
    }
  }
  EXPECT_EQ(completed + shed.load(), kOptions);

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, kOptions - shed.load());
  EXPECT_EQ(stats.requests_shed_normal + stats.requests_shed_batch,
            shed.load());
  EXPECT_EQ(stats.requests_completed, completed);
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.requests_timed_out, 0u);
  EXPECT_EQ(stats.brownout_completions, 0u);
}

}  // namespace
}  // namespace binopt::core
