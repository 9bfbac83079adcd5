// PricingService behaviour: bit-identical parity with direct
// PricingAccelerator runs (also under sharding and caching), cache-hit
// determinism, per-request timeouts, backpressure under concurrent
// submitters, shard-merged stats, and drain-on-destruction. test_core is
// part of the ThreadSanitizer CI job, so every test here is also a race
// check of the service's queue/worker/cache machinery.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <exception>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/accelerator.h"
#include "core/service/pricing_service.h"
#include "finance/workload.h"
#include "ocl/faults/fault_plan.h"

namespace binopt::core {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kSteps = 64;

ServiceConfig small_config(Target target, std::size_t workers = 1) {
  ServiceConfig config;
  config.targets.assign(workers, target);
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  return config;
}

std::vector<double> direct_prices(Target target,
                                  const std::vector<finance::OptionSpec>& batch) {
  PricingAccelerator accelerator({target, kSteps, /*compute_rmse=*/false});
  return accelerator.run(batch).prices;
}

// --- Parity -------------------------------------------------------------

TEST(PricingService, SingleQuoteMatchesDirectRunBitwise) {
  const auto batch = finance::make_smoke_batch();
  const std::vector<double> expected = direct_prices(Target::kCpuReference, batch);

  PricingService service(small_config(Target::kCpuReference));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Quote quote = service.submit(batch[i]).get();
    EXPECT_EQ(quote.price, expected[i]);  // bitwise-equal doubles
    EXPECT_EQ(quote.target, Target::kCpuReference);
    EXPECT_FALSE(quote.from_cache);
  }
}

TEST(PricingService, ShardedBatchParityOnEveryKernelFamily) {
  // 3 homogeneous workers, max_batch 16, 48 options: the curve is forced
  // through multiple shards on multiple backends, and every price must
  // still equal the one direct run of the whole batch.
  const auto batch = finance::make_curve_batch(48);
  for (const Target target :
       {Target::kCpuReference, Target::kFpgaKernelB, Target::kGpuKernelA}) {
    SCOPED_TRACE(to_string(target));
    const std::vector<double> expected = direct_prices(target, batch);

    PricingService service(small_config(target, /*workers=*/3));
    const std::vector<double> got = service.submit_batch(batch).get();
    EXPECT_EQ(got, expected);

    const auto stats = service.stats();
    EXPECT_EQ(stats.options_priced, batch.size());
    EXPECT_GE(stats.batches_launched, batch.size() / service.config().max_batch);
  }
}

TEST(PricingService, CachedRepriceStaysBitIdentical) {
  // Same curve submitted twice with the cache on: the second pass is
  // served from cache and must reproduce the first pass exactly.
  const auto batch = finance::make_curve_batch(24);
  ServiceConfig config = small_config(Target::kFpgaKernelB);
  config.cache_capacity = 64;
  PricingService service(config);

  const std::vector<double> first = service.submit_batch(batch).get();
  const std::vector<double> second = service.submit_batch(batch).get();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, direct_prices(Target::kFpgaKernelB, batch));

  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, batch.size());    // whole second pass
  EXPECT_EQ(stats.cache_misses, batch.size());  // whole first pass
  EXPECT_EQ(stats.options_priced, batch.size());  // priced only once
}

// --- Cache --------------------------------------------------------------

TEST(PricingService, CacheHitDeterminism) {
  ServiceConfig config = small_config(Target::kCpuReference);
  config.cache_capacity = 8;
  PricingService service(config);

  finance::OptionSpec spec;
  const Quote miss = service.submit(spec).get();
  const Quote hit = service.submit(spec).get();
  EXPECT_FALSE(miss.from_cache);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.price, miss.price);

  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.batches_launched, 1u);
  EXPECT_EQ(service.cache_size(), 1u);
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.5);
}

TEST(PricingService, CacheEvictsLeastRecentlyUsed) {
  ServiceConfig config = small_config(Target::kCpuReference);
  config.cache_capacity = 2;
  PricingService service(config);

  auto spec_with_strike = [](double strike) {
    finance::OptionSpec spec;
    spec.strike = strike;
    return spec;
  };
  (void)service.submit(spec_with_strike(90.0)).get();
  (void)service.submit(spec_with_strike(100.0)).get();
  (void)service.submit(spec_with_strike(110.0)).get();  // evicts strike 90
  EXPECT_EQ(service.cache_size(), 2u);
  EXPECT_EQ(service.stats().cache_evictions, 1u);

  const Quote again = service.submit(spec_with_strike(90.0)).get();
  EXPECT_FALSE(again.from_cache);  // was evicted, repriced
}

TEST(PricingService, CacheKeySeparatesTargetsAndQuantizes) {
  finance::OptionSpec spec;
  const auto key_cpu =
      service::CacheKey::from(spec, kSteps, Target::kCpuReference);
  const auto key_fpga =
      service::CacheKey::from(spec, kSteps, Target::kFpgaKernelB);
  EXPECT_FALSE(key_cpu == key_fpga);

  finance::OptionSpec nudged = spec;
  nudged.strike += 1e-12;  // below the 1e-9 grid: same key
  EXPECT_EQ(service::CacheKey::from(nudged, kSteps, Target::kCpuReference),
            key_cpu);
  nudged.strike += 1e-6;  // above the grid: distinct key
  EXPECT_FALSE(service::CacheKey::from(nudged, kSteps,
                                       Target::kCpuReference) == key_cpu);
}

// --- Timeouts -----------------------------------------------------------

TEST(PricingService, ZeroTimeoutExpiresBeforePricing) {
  ServiceConfig config = small_config(Target::kCpuReference);
  config.linger = 2000us;  // hold the batch open past the deadline
  PricingService service(config);

  auto expired = service.submit(finance::OptionSpec{}, 0ms);
  EXPECT_THROW((void)expired.get(), ServiceTimeoutError);
  EXPECT_EQ(service.stats().requests_timed_out, 1u);
}

TEST(PricingService, TimeoutOnlyHitsExpiredRequests) {
  ServiceConfig config = small_config(Target::kCpuReference);
  config.linger = 2000us;
  PricingService service(config);

  auto expired = service.submit(finance::OptionSpec{}, 0ms);
  auto healthy = service.submit(finance::OptionSpec{});  // no deadline
  EXPECT_THROW((void)expired.get(), ServiceTimeoutError);
  EXPECT_GT(healthy.get().price, 0.0);

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_timed_out, 1u);
  EXPECT_EQ(stats.requests_completed, 1u);
  EXPECT_EQ(stats.requests_submitted, 2u);
}

TEST(PricingService, BatchTimeoutFailsWholeCurveFuture) {
  ServiceConfig config = small_config(Target::kCpuReference);
  config.linger = 2000us;
  PricingService service(config);

  const auto batch = finance::make_curve_batch(8);
  auto future = service.submit_batch(batch, 0ms);
  EXPECT_THROW((void)future.get(), ServiceTimeoutError);
  EXPECT_EQ(service.stats().requests_timed_out, batch.size());
}

// --- Backpressure & concurrency (TSan-covered) --------------------------

TEST(PricingService, BackpressureBoundsAdmissionQueue) {
  ServiceConfig config = small_config(Target::kCpuReference, /*workers=*/2);
  config.queue_capacity = 4;
  config.max_batch = 2;
  PricingService service(config);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 32;
  std::vector<std::thread> submitters;
  std::atomic<std::size_t> completed{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &completed] {
      finance::OptionSpec spec;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        spec.strike = 80.0 + static_cast<double>(i);
        if (service.submit(spec).get().price > 0.0) ++completed;
      }
    });
  }
  // The bound must hold at every instant while submitters outpace pricing.
  for (int poll = 0; poll < 50; ++poll) {
    EXPECT_LE(service.queued_requests(), config.queue_capacity);
    std::this_thread::sleep_for(100us);
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(completed.load(), kThreads * kPerThread);

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.requests_completed, kThreads * kPerThread);
  EXPECT_EQ(stats.requests_failed, 0u);
}

TEST(PricingService, ConcurrentSubmitterParityWithShardingAndCache) {
  // The acceptance gate: >= 4 concurrent submitters, sharding across 2
  // backends, cache enabled — every returned price bit-identical to one
  // direct accelerator run of the full curve.
  const auto curve = finance::make_curve_batch(64);
  const std::vector<double> expected =
      direct_prices(Target::kCpuReference, curve);

  ServiceConfig config = small_config(Target::kCpuReference, /*workers=*/2);
  config.cache_capacity = 128;
  config.linger = 100us;
  PricingService service(config);

  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> submitters;
  std::vector<int> mismatches(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      // Overlapping slices: every thread reprices a stride of the curve,
      // so cache hits and fresh pricings interleave across submitters.
      for (std::size_t i = t % 2; i < curve.size(); i += 2) {
        const Quote quote = service.submit(curve[i]).get();
        if (quote.price != expected[i]) ++mismatches[t];
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "submitter " << t;
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, 2u * curve.size());
  EXPECT_EQ(stats.requests_completed, 2u * curve.size());
  // Every curve point was priced at least once; overlap came from cache.
  EXPECT_GE(stats.cache_hits + stats.options_priced, 2u * curve.size());
}

TEST(PricingService, DestructorDrainsAdmittedRequests) {
  std::future<std::vector<double>> future;
  const auto batch = finance::make_curve_batch(12);
  {
    ServiceConfig config = small_config(Target::kCpuReference);
    config.linger = 5000us;  // destructor must cut the linger short
    PricingService service(config);
    future = service.submit_batch(batch);
  }
  // Admitted work resolves even though the service is gone.
  EXPECT_EQ(future.get().size(), batch.size());
}

TEST(PricingService, BadSimdEnvRefusesToStart) {
  // A mistyped BINOPT_SIMD stops the service at construction, naming the
  // knob, instead of failing every batch a CPU worker (or the degrade-to-
  // cpu route) would later price. Device-only fleets are refused too.
  std::optional<std::string> saved;
  if (const char* env = std::getenv("BINOPT_SIMD")) saved = env;
  ASSERT_EQ(setenv("BINOPT_SIMD", "avx512", /*overwrite=*/1), 0);
  for (const Target target : {Target::kCpuReference, Target::kFpgaKernelB}) {
    try {
      PricingService service(small_config(target));
      ADD_FAILURE() << "service started with BINOPT_SIMD=avx512";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("BINOPT_SIMD"), std::string::npos)
          << e.what();
    }
  }
  if (saved) {
    setenv("BINOPT_SIMD", saved->c_str(), /*overwrite=*/1);
  } else {
    unsetenv("BINOPT_SIMD");
  }
  PricingService service(small_config(Target::kCpuReference));
  EXPECT_EQ(service.submit(finance::make_smoke_batch()[0]).get().target,
            Target::kCpuReference);
}

// --- Stats plumbing -----------------------------------------------------

TEST(ServiceStats, MergeMinusAndVisitorAgree) {
  service::ServiceStats a;
  a.requests_completed = 5;
  a.cache_hits = 2;
  service::ServiceStats b;
  b.requests_completed = 7;
  b.batches_launched = 3;

  service::ServiceStats sum = a;
  sum += b;
  EXPECT_EQ(sum.requests_completed, 12u);
  EXPECT_EQ(sum.minus(a), b);

  std::uint64_t visited_total = 0;
  std::size_t fields = 0;
  sum.for_each_counter([&](const char*, std::uint64_t v) {
    visited_total += v;
    ++fields;
  });
  EXPECT_EQ(visited_total, 12u + 2u + 3u);
  EXPECT_EQ(fields, 27u);  // X-macro (9 core + 9 robustness + 2 routing +
                           // 5 overload + 2 wake-up)
}

TEST(ServiceStats, PerBackendVectorsMergeCommutativelyUnderLoadSkew) {
  // Router-induced load skew: one shard served only backend 0 (its vector
  // never grew past index 0), another served only backend 2. The merged
  // totals must be bit-identical in either merge order, and a missing
  // tail must compare equal to explicit zeros.
  service::ServiceStats skewed_low;
  service::ServiceStats::bump(skewed_low.routed_by_backend, 0, 5);
  service::ServiceStats::bump(skewed_low.served_by_backend, 0, 5);
  service::ServiceStats skewed_high;
  service::ServiceStats::bump(skewed_high.routed_by_backend, 2, 7);
  service::ServiceStats::bump(skewed_high.served_by_backend, 2, 7);
  ASSERT_EQ(skewed_low.routed_by_backend.size(), 1u);   // stayed short
  ASSERT_EQ(skewed_high.routed_by_backend.size(), 3u);  // grew on demand

  service::ServiceStats low_first = skewed_low;
  low_first += skewed_high;
  service::ServiceStats high_first = skewed_high;
  high_first += skewed_low;
  EXPECT_EQ(low_first, high_first);  // merge order cannot matter
  EXPECT_EQ(low_first.routed_by_backend,
            (std::vector<std::uint64_t>{5, 0, 7}));
  EXPECT_EQ(high_first.served_by_backend,
            (std::vector<std::uint64_t>{5, 0, 7}));

  // minus() round-trips the merge with the same zero-padding rules.
  EXPECT_EQ(low_first.minus(skewed_low), skewed_high);
  EXPECT_EQ(low_first.minus(skewed_high), skewed_low);

  // {5} and {5, 0, 0} are the SAME placement.
  service::ServiceStats padded = skewed_low;
  padded.routed_by_backend = {5, 0, 0};
  padded.served_by_backend = {5, 0, 0};
  EXPECT_EQ(padded, skewed_low);
}

TEST(ServiceStats, SkewedServiceLoadMergesIdenticallyThroughStats) {
  // End-to-end skew parity: a 2-worker routed service whose traffic lands
  // lopsidedly must still satisfy the merge identities that stats()
  // promises — totals equal the sum of per-interval deltas regardless of
  // which worker served what.
  ServiceConfig config = small_config(Target::kCpuReference);
  config.targets.assign(2, Target::kCpuReference);
  config.cache_capacity = 0;
  config.router.policy = service::RouterPolicy::kLatency;
  PricingService service(config);

  const auto batch = finance::make_curve_batch(48);
  const service::ServiceStats before = service.stats();
  (void)service.submit_batch(batch).get();
  const service::ServiceStats mid = service.stats();
  (void)service.submit_batch(batch).get();
  const service::ServiceStats after = service.stats();

  // Cumulative minus earlier == the interval, element-wise on the
  // per-backend vectors too.
  service::ServiceStats replayed = before;
  replayed += mid.minus(before);
  replayed += after.minus(mid);
  EXPECT_EQ(replayed, after);
  EXPECT_EQ(after.requests_routed, 2 * batch.size());
  std::uint64_t served_total = 0;
  for (const std::uint64_t n : after.served_by_backend) served_total += n;
  EXPECT_EQ(served_total, 2 * batch.size());
}

TEST(ServiceStats, OccupancyAndHitRateHelpers) {
  service::ServiceStats stats;
  EXPECT_DOUBLE_EQ(stats.batch_occupancy(16), 0.0);
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.0);
  stats.batches_launched = 2;
  stats.options_priced = 24;
  EXPECT_DOUBLE_EQ(stats.batch_occupancy(16), 0.75);
}

TEST(PricingService, EmptyBatchResolvesImmediately) {
  PricingService service(small_config(Target::kCpuReference));
  auto future = service.submit_batch({});
  EXPECT_TRUE(future.get().empty());
}

TEST(PricingService, RejectsInvalidConfigAndSpecs) {
  ServiceConfig no_targets;
  no_targets.targets.clear();
  EXPECT_THROW(PricingService{no_targets}, PreconditionError);

  PricingService service(small_config(Target::kCpuReference));
  finance::OptionSpec bad;
  bad.volatility = -1.0;
  EXPECT_THROW((void)service.submit(bad), PreconditionError);
}

// --- Admission validation (bugfix: NaN/Inf reached llround UB) ----------

TEST(PricingService, RejectsNonFiniteSpecFieldsAtAdmission) {
  // A NaN/Inf field used to flow straight into the quote cache's
  // llround-based key quantization — undefined behaviour. Admission now
  // rejects it with a structured error naming the offending field.
  PricingService service(small_config(Target::kCpuReference));

  finance::OptionSpec nan_spot;
  nan_spot.spot = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)service.submit(nan_spot);
    FAIL() << "NaN spot was admitted";
  } catch (const ServiceRejectedError& error) {
    EXPECT_EQ(error.field(), "spot");
    EXPECT_NE(std::string(error.what()).find("spot"), std::string::npos);
  }

  finance::OptionSpec inf_vol;
  inf_vol.volatility = std::numeric_limits<double>::infinity();
  try {
    (void)service.submit(inf_vol);
    FAIL() << "Inf volatility was admitted";
  } catch (const ServiceRejectedError& error) {
    EXPECT_EQ(error.field(), "volatility");
  }

  finance::OptionSpec neg_inf_rate;
  neg_inf_rate.rate = -std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)service.submit(neg_inf_rate), ServiceRejectedError);
  // ServiceRejectedError is a PreconditionError, so existing callers that
  // catch the base class keep working.
  EXPECT_THROW((void)service.submit(nan_spot), PreconditionError);

  // Nothing reached the workers or the stats.
  EXPECT_EQ(service.stats().requests_submitted, 0u);

  // A finite spec still prices normally afterwards.
  EXPECT_GT(service.submit(finance::OptionSpec{}).get().price, 0.0);
}

TEST(PricingService, RejectsBatchContainingNonFiniteSpec) {
  PricingService service(small_config(Target::kCpuReference));
  auto batch = finance::make_curve_batch(8);
  batch[5].maturity = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)service.submit_batch(batch);
    FAIL() << "batch with NaN maturity was admitted";
  } catch (const ServiceRejectedError& error) {
    EXPECT_EQ(error.field(), "maturity");
  }
  // Rejection happens before any request is admitted: the whole batch is
  // refused, not partially priced.
  EXPECT_EQ(service.stats().requests_submitted, 0u);
}

TEST(QuoteCache, KeyQuantizationSaturatesExtremeFiniteValues) {
  // Finite-but-huge values must not overflow llround; they saturate to the
  // int64 grid edge instead (distinct keys are not guaranteed out there,
  // deterministic keys are).
  finance::OptionSpec huge;
  huge.strike = 1e300;
  const auto key = service::CacheKey::from(huge, kSteps, Target::kCpuReference);
  EXPECT_EQ(key, service::CacheKey::from(huge, kSteps, Target::kCpuReference));

  finance::OptionSpec tiny = huge;
  tiny.strike = -1e300;
  EXPECT_FALSE(service::CacheKey::from(tiny, kSteps, Target::kCpuReference) ==
               key);
}

// --- Latency histograms -------------------------------------------------

TEST(PricingService, LatencyHistogramsTrackTraffic) {
  ServiceConfig config = small_config(Target::kCpuReference, /*workers=*/2);
  config.cache_capacity = 64;
  PricingService service(config);

  const auto batch = finance::make_curve_batch(32);
  (void)service.submit_batch(batch).get();
  (void)service.submit_batch(batch).get();  // cache replay

  const auto stats = service.stats();
  // Every decided request (completed or failed) contributes one latency
  // sample; every popped request contributes one queue-wait sample.
  EXPECT_EQ(stats.request_latency_ns.count(),
            stats.requests_completed + stats.requests_failed);
  EXPECT_EQ(stats.queue_wait_ns.count(), 2 * batch.size());
  // One occupancy sample per launched batch, summing to options priced.
  EXPECT_EQ(stats.batch_fill.count(), stats.batches_launched);
  EXPECT_EQ(stats.batch_fill.sum(), stats.options_priced);
  // Quantiles are reportable and ordered.
  EXPECT_GT(stats.request_latency_ns.p50(), 0u);
  EXPECT_LE(stats.request_latency_ns.p50(), stats.request_latency_ns.p99());
}

TEST(ServiceStats, HistogramsTravelThroughMergeAndMinus) {
  service::ServiceStats a;
  a.requests_completed = 1;
  a.request_latency_ns.record(1000);
  a.queue_wait_ns.record(10);
  service::ServiceStats b;
  b.requests_completed = 2;
  b.request_latency_ns.record(2000);
  b.batch_fill.record(16);
  b.time_to_recovery_ns.record(5'000'000);

  service::ServiceStats sum = a;
  sum += b;
  EXPECT_EQ(sum.request_latency_ns.count(), 2u);
  EXPECT_EQ(sum.request_latency_ns.sum(), 3000u);
  EXPECT_EQ(sum.queue_wait_ns.count(), 1u);
  EXPECT_EQ(sum.batch_fill.count(), 1u);
  EXPECT_EQ(sum.time_to_recovery_ns.count(), 1u);
  EXPECT_EQ(sum.minus(a), b);  // minus inverts merge, histograms included

  // The counter visitor stays counters-only: histograms are reported via
  // their own accessors, and the X-macro field count is pinned elsewhere.
  std::size_t fields = 0;
  sum.for_each_counter([&](const char*, std::uint64_t) { ++fields; });
  EXPECT_EQ(fields, 27u);
}

// --- Front-ends -----------------------------------------------------------

TEST(PricingService, FrontEndsAgreeBitwiseWithADirectRunOnTwoWorkers) {
  // submit, submit_batch and price_batch_blocking share one admission
  // loop and one sink; across two workers they must all reproduce the
  // direct run — the spine only moves pointers.
  const auto batch = finance::make_curve_batch(48);
  const std::vector<double> expected =
      direct_prices(Target::kCpuReference, batch);

  PricingService service(small_config(Target::kCpuReference, /*workers=*/2));
  const std::vector<double> got = service.submit_batch(batch).get();
  ASSERT_EQ(got, expected);  // bitwise-equal doubles

  std::vector<double> blocking(batch.size(), -1.0);
  service.price_batch_blocking(batch.data(), batch.size(), blocking.data());
  ASSERT_EQ(blocking, expected);

  std::vector<std::future<Quote>> singles;
  for (const auto& spec : batch) singles.push_back(service.submit(spec));
  for (std::size_t i = 0; i < singles.size(); ++i) {
    EXPECT_EQ(singles[i].get().price, expected[i]) << "option " << i;
  }
}

TEST(PricingService, PriceBatchBlockingHonoursTimeouts) {
  ServiceConfig config = small_config(Target::kCpuReference);
  PricingService service(config);
  const auto batch = finance::make_curve_batch(8);
  std::vector<double> out(batch.size(), 0.0);
  EXPECT_THROW(
      service.price_batch_blocking(batch.data(), batch.size(), out.data(), 0ms),
      ServiceTimeoutError);
}

TEST(PricingService, PriceBatchBlockingRejectsInvalidSpecsUpfront) {
  PricingService service(small_config(Target::kCpuReference));
  auto batch = finance::make_curve_batch(4);
  batch[2].volatility = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> out(batch.size(), 0.0);
  EXPECT_THROW(
      service.price_batch_blocking(batch.data(), batch.size(), out.data()),
      ServiceRejectedError);
}

TEST(PricingService, WhollyAdmittedBookSkipsTheLinger) {
  // Once the whole book is admitted nothing more can arrive for it, so
  // its partial batch launches at once instead of lingering 500ms, and
  // with all of the book in it.
  ServiceConfig config = small_config(Target::kCpuReference);
  config.linger = 500ms;
  PricingService service(config);
  const auto batch = finance::make_curve_batch(3);
  std::vector<double> out(batch.size(), 0.0);
  const auto start = std::chrono::steady_clock::now();
  service.price_batch_blocking(batch.data(), batch.size(), out.data());
  EXPECT_LT(std::chrono::steady_clock::now() - start, 250ms);
  EXPECT_EQ(out, direct_prices(Target::kCpuReference, batch));
  EXPECT_EQ(service.stats().batches_launched, 1u);
}

TEST(PricingService, SingleSubmitsStillCoalesceInTheLinger) {
  // A submit() sink is never marked admitted: the worker keeps its batch
  // open for the next single quote.
  ServiceConfig config = small_config(Target::kCpuReference);
  config.linger = 200ms;
  PricingService service(config);
  const auto batch = finance::make_curve_batch(2);
  auto first = service.submit(batch[0]);
  auto second = service.submit(batch[1]);
  EXPECT_GT(first.get().price, 0.0);
  EXPECT_GT(second.get().price, 0.0);
  EXPECT_EQ(service.stats().batches_launched, 1u);
}

TEST(PricingService, LingeringWorkerIsNotWokenPerArrival) {
  // Five singles arrive 1ms apart inside one 200ms linger. None of them
  // can fill the batch, so the worker sleeps to its deadline and takes
  // all five in one pop.
  ServiceConfig config = small_config(Target::kCpuReference);
  config.linger = 200ms;
  PricingService service(config);
  const auto batch = finance::make_curve_batch(5);
  std::vector<std::future<Quote>> futures;
  for (const auto& spec : batch) {
    futures.push_back(service.submit(spec));
    std::this_thread::sleep_for(1ms);
  }
  for (auto& future : futures) EXPECT_GT(future.get().price, 0.0);
  const auto stats = service.stats();
  EXPECT_EQ(stats.batches_launched, 1u);
  EXPECT_EQ(stats.linger_early_wakes, 0u);
}

TEST(PricingService, FullBatchEndsTheLingerAtOnce) {
  // The fourth single fills the batch: admission wakes the lingering
  // worker, which launches without waiting out its 500ms.
  ServiceConfig config = small_config(Target::kCpuReference);
  config.max_batch = 4;
  config.linger = 500ms;
  PricingService service(config);
  const auto batch = finance::make_curve_batch(4);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<Quote>> futures;
  for (const auto& spec : batch) futures.push_back(service.submit(spec));
  for (auto& future : futures) EXPECT_GT(future.get().price, 0.0);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 250ms);
  EXPECT_EQ(service.stats().batches_launched, 1u);
}

TEST(PricingService, FailoverWakesALingeringPeer) {
  // Worker 0 loses its device on its first launch, after a 300ms stall
  // that holds the failing batch open. Meanwhile worker 1 collects a
  // single quote and lingers on it (max_batch 2, so one request fills the
  // batch). The failover requeues with no backoff, and its notify must
  // end worker 1's linger: the failed-over request resolves on worker 1
  // at about the stall's end, not at worker 1's 500ms deadline.
  ServiceConfig config;
  config.targets.assign(2, Target::kFpgaKernelB);
  config.steps = kSteps;
  config.max_batch = 2;
  config.linger = 500ms;
  config.worker_fault_plans = {
      ocl::faults::parse_fault_plan("stall@1,ms=300;device-lost@1"),
      ocl::faults::FaultPlan{}};
  const auto batch = finance::make_curve_batch(2);
  const std::vector<double> expected =
      direct_prices(Target::kFpgaKernelB, batch);
  const std::uint32_t tag = 0;
  // Which idle worker collects the first (blocking, so unlingered) book
  // is up to the scheduler; an attempt where worker 1 priced it says
  // nothing, so it starts over with a fresh service.
  bool exercised = false;
  for (int attempt = 0; attempt < 20 && !exercised; ++attempt) {
    PricingService service(config);
    Quote failed_over;
    const auto start = std::chrono::steady_clock::now();
    std::chrono::steady_clock::duration failed_over_latency{};
    std::thread caller([&] {
      service.price_book_blocking(&batch[0], &tag, 1, &failed_over);
      failed_over_latency = std::chrono::steady_clock::now() - start;
    });
    while (service.queued_requests() != 0) std::this_thread::sleep_for(100us);
    std::this_thread::sleep_for(100ms);
    if (service.stats().requests_completed != 0) {
      caller.join();  // worker 1 priced it; worker 0 never launched
      continue;
    }
    // Worker 0 is inside its stall, so idle worker 1 lingers on this one.
    const Quote single = service.submit(batch[1]).get();
    caller.join();
    exercised = true;
    EXPECT_EQ(failed_over.price, expected[0]);
    EXPECT_EQ(single.price, expected[1]);
    EXPECT_LT(failed_over_latency, 450ms);
    const auto stats = service.stats();
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_EQ(stats.requests_misrouted, 1u);
    // Worker 0's failed launch, then both requests in worker 1's batch.
    EXPECT_EQ(stats.batches_launched, 2u);
    EXPECT_GE(stats.linger_early_wakes, 1u);
  }
  EXPECT_TRUE(exercised) << "worker 0 never collected the first book";
}

TEST(PricingService, ShutdownMidBurstResolvesEverySubmittedFuture) {
  // 4 submitters blast 256 singles through a small-batch service, and the
  // service is destroyed while most of that burst is still queued (large
  // linger, tiny batches). Every future must resolve with a price: the
  // destructor drains admitted work instead of dropping it. Under TSan
  // this race-checks teardown against workers mid-burst.
  const auto batch = finance::make_curve_batch(16);
  std::vector<std::future<Quote>> futures[4];
  {
    ServiceConfig config = small_config(Target::kCpuReference, /*workers=*/2);
    config.max_batch = 4;
    config.linger = 2000us;
    PricingService service(config);
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < 64; ++i) {
          futures[t].push_back(service.submit(batch[i % batch.size()]));
        }
      });
    }
    for (auto& thread : submitters) thread.join();
    // Destructor runs here, with the bulk of the burst still queued.
  }
  for (auto& per_thread : futures) {
    ASSERT_EQ(per_thread.size(), 64u);
    for (auto& future : per_thread) {
      EXPECT_GT(future.get().price, 0.0);
    }
  }
}

// --- Overload layer (DESIGN.md §2.10) -----------------------------------

/// Overload scaffolding: kernel B launches exactly one NDRange per
/// accelerator run, so a `stall@N,ms=X` fault clause pins the single
/// worker inside launch N for a known wall-clock window while the test
/// shapes the admission queue behind it.
ServiceConfig stalled_config(const std::string& plan,
                             std::size_t queue_capacity,
                             std::size_t max_batch = 1) {
  ServiceConfig config;
  config.targets.assign(1, Target::kFpgaKernelB);
  config.steps = kSteps;
  config.max_batch = max_batch;
  config.linger = 0us;
  config.queue_capacity = queue_capacity;
  config.worker_fault_plans.push_back(ocl::faults::parse_fault_plan(plan));
  return config;
}

/// Polls until the worker has collected everything queued — the stalled
/// launch is then in flight and the admission queue is empty.
void wait_until_collected(const PricingService& service) {
  while (service.queued_requests() != 0) std::this_thread::sleep_for(100us);
}

TEST(ServiceOverload, SubmitterParkedOnFullQueueHonorsItsOwnDeadline) {
  // Regression for the blocked-submitter fix: a submitter parked on a
  // FULL admission queue used to wait for a slot indefinitely, honouring
  // its deadline only after admission. It must give up at its own
  // deadline, settle with ServiceTimeoutError, and never consume the
  // queue slot it was waiting for. Works with the overload layer
  // DISARMED — the deadline gate is part of the base admission path.
  const auto batch = finance::make_curve_batch(4);
  PricingService service(
      stalled_config("stall@1,ms=400", /*queue_capacity=*/1));

  auto stalled = service.submit(batch[0], kNoTimeout);
  wait_until_collected(service);  // launch 1 is now stalled for ~400ms
  auto parked = service.submit(batch[1], kNoTimeout);  // takes the 1 slot
  ASSERT_EQ(service.queued_requests(), 1u);

  const auto t0 = std::chrono::steady_clock::now();
  auto doomed = service.submit(batch[2], 60ms);
  const auto blocked_for = std::chrono::steady_clock::now() - t0;
  // Gave up at its own deadline: after ~60ms parked, well before the
  // stalled launch frees the slot at ~400ms.
  EXPECT_GE(blocked_for, 40ms);
  EXPECT_LT(blocked_for, 350ms);
  EXPECT_EQ(service.queued_requests(), 1u);  // the refusal held no slot
  EXPECT_THROW((void)doomed.get(), ServiceTimeoutError);

  EXPECT_GT(stalled.get().price, 0.0);
  EXPECT_GT(parked.get().price, 0.0);
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, 3u);
  EXPECT_EQ(stats.requests_completed, 2u);
  EXPECT_EQ(stats.requests_timed_out, 1u);
  EXPECT_EQ(stats.admission_timeouts, 1u);
  EXPECT_EQ(stats.eager_deadline_drops, 0u);
}

TEST(ServiceOverload, ZeroTimeoutExpiresAtTheAdmissionGate) {
  // A zero-timeout deadline equals the admission stamp. The stamp itself
  // is live (equal-instant-is-live, pinned in test_overload.cpp), but by
  // the time the admission gate re-reads the clock the deadline is
  // strictly past, so the request is refused AT admission — counted in
  // admission_timeouts, never holding a queue slot, never reaching a
  // worker. Layer disarmed: the gate is part of the base path.
  PricingService service(small_config(Target::kCpuReference));
  auto expired = service.submit(finance::OptionSpec{}, 0ms);
  EXPECT_THROW((void)expired.get(), ServiceTimeoutError);
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, 1u);
  EXPECT_EQ(stats.requests_timed_out, 1u);
  EXPECT_EQ(stats.admission_timeouts, 1u);
  EXPECT_EQ(stats.options_priced, 0u);
  EXPECT_EQ(stats.batches_launched, 0u);
}

TEST(ServiceOverload, ShedsBatchThenNormalAtTheirWatermarks) {
  // Static watermark 0.5 on a 4-deep queue: kBatch sheds at occupancy 2,
  // kNormal at the midpoint threshold 3, kRealtime never sheds (it would
  // block only at 4). Each refusal is typed and carries the exact
  // occupancy/threshold pair the decision was made with.
  const auto batch = finance::make_curve_batch(8);
  ServiceConfig config =
      stalled_config("stall@1,ms=600", /*queue_capacity=*/4);
  config.overload.shed_watermark = 0.5;
  PricingService service(config);

  std::vector<std::future<Quote>> admitted;
  admitted.push_back(
      service.submit(batch[0], kNoTimeout, 0, Priority::kRealtime));
  wait_until_collected(service);  // worker stalled; the queue is ours
  for (int i = 1; i <= 2; ++i) {  // occupancy 1, then 2
    admitted.push_back(
        service.submit(batch[i], kNoTimeout, 0, Priority::kRealtime));
  }

  try {
    (void)service.submit(batch[3], kNoTimeout, 0, Priority::kBatch);
    FAIL() << "kBatch must shed at occupancy 2";
  } catch (const ServiceOverloadError& error) {
    EXPECT_EQ(error.priority(), Priority::kBatch);
    EXPECT_EQ(error.occupancy(), 2u);
    EXPECT_EQ(error.threshold(), 2u);
  }
  // kNormal's threshold sits midway between watermark and capacity:
  // admitted at occupancy 2...
  admitted.push_back(
      service.submit(batch[4], kNoTimeout, 0, Priority::kNormal));
  // ...refused at 3.
  try {
    (void)service.submit(batch[5], kNoTimeout, 0, Priority::kNormal);
    FAIL() << "kNormal must shed at occupancy 3";
  } catch (const ServiceOverloadError& error) {
    EXPECT_EQ(error.priority(), Priority::kNormal);
    EXPECT_EQ(error.occupancy(), 3u);
    EXPECT_EQ(error.threshold(), 3u);
  }
  EXPECT_THROW(
      (void)service.submit(batch[6], kNoTimeout, 0, Priority::kBatch),
      ServiceOverloadError);
  // kRealtime still admits at occupancy 3: only a FULL queue blocks it.
  admitted.push_back(
      service.submit(batch[7], kNoTimeout, 0, Priority::kRealtime));

  for (auto& future : admitted) EXPECT_GT(future.get().price, 0.0);
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, 5u);
  EXPECT_EQ(stats.requests_completed, 5u);
  EXPECT_EQ(stats.requests_shed_batch, 2u);
  EXPECT_EQ(stats.requests_shed_normal, 1u);
  EXPECT_EQ(stats.admission_timeouts, 0u);
}

TEST(ServiceOverload, ExpiredRequestsAreEagerlyDroppedNotPriced) {
  // Three requests expire in the queue behind a stalled launch. With the
  // layer armed they must be dropped at collection — before ever holding
  // an accelerator batch slot — not priced and then failed.
  const auto batch = finance::make_curve_batch(4);
  ServiceConfig config = stalled_config("stall@1,ms=300",
                                        /*queue_capacity=*/8,
                                        /*max_batch=*/16);
  config.overload.shed_watermark = 1.0;  // arm the layer; never sheds at 8
  PricingService service(config);

  auto blocker = service.submit(batch[0], kNoTimeout);
  wait_until_collected(service);
  std::vector<std::future<Quote>> doomed;
  for (int i = 1; i <= 3; ++i) {
    doomed.push_back(service.submit(batch[i], 50ms));
  }

  EXPECT_GT(blocker.get().price, 0.0);
  for (auto& future : doomed) {
    EXPECT_THROW((void)future.get(), ServiceTimeoutError);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.eager_deadline_drops, 3u);
  EXPECT_EQ(stats.requests_timed_out, 3u);
  EXPECT_EQ(stats.admission_timeouts, 0u);
  // The drops never occupied a batch slot: only the blocker was priced.
  EXPECT_EQ(stats.options_priced, 1u);
  EXPECT_EQ(stats.batches_launched, 1u);
  EXPECT_EQ(stats.requests_completed, 1u);
}

void expect_edf_collection_serves_earliest_deadline_first(
    service::RouterPolicy policy) {
  // Launches 1-3 each stall 200ms, so the three requests queued behind
  // the blocker are priced one per ~200ms window. FIFO order would reach
  // the 500ms-deadline request last (~600ms — dead); EDF must pick it
  // first (~400ms — live). Its survival IS the ordering assertion.
  const auto batch = finance::make_curve_batch(4);
  ServiceConfig config =
      stalled_config("stall@1x3,ms=200", /*queue_capacity=*/8);
  // Every policy shares the one queue and its one EDF collection step,
  // which picks the earliest deadlines out of a window of four times the
  // free batch slots: here all three queued requests.
  config.router.policy = policy;
  config.overload.shed_watermark = 1.0;
  PricingService service(config);

  auto blocker = service.submit(batch[0], kNoTimeout);
  wait_until_collected(service);
  auto fifo_head = service.submit(batch[1], kNoTimeout);
  auto late = service.submit(batch[2], 10'000ms);
  auto early = service.submit(batch[3], 500ms);  // FIFO tail, EDF head

  EXPECT_GT(early.get().price, 0.0);  // times out if collection is FIFO
  EXPECT_GT(late.get().price, 0.0);
  EXPECT_GT(fifo_head.get().price, 0.0);
  EXPECT_GT(blocker.get().price, 0.0);
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_completed, 4u);
  EXPECT_EQ(stats.requests_timed_out, 0u);
  EXPECT_EQ(stats.eager_deadline_drops, 0u);
}

TEST(ServiceOverload, EdfCollectionServesTheEarliestDeadlineFirst) {
  expect_edf_collection_serves_earliest_deadline_first(
      service::RouterPolicy::kLatency);
}

TEST(ServiceOverload, EdfCollectionServesTheEarliestDeadlineFirstRoutingOff) {
  expect_edf_collection_serves_earliest_deadline_first(
      service::RouterPolicy::kOff);
}

TEST(ServiceOverload, BrownoutPricesBatchClassOnTheCheaperSiblingBitwise) {
  // With the queue held exactly at the watermark behind a stalled launch,
  // the next collected batch triggers brownout: kBatch work is priced by
  // the single-precision sibling at half the lattice steps and stamped
  // with the calibrated RMSE bound. Brownout trades accuracy, never
  // determinism — every browned price must be bitwise-identical to a
  // direct run of the cheaper configuration.
  const auto batch = finance::make_curve_batch(9);
  ServiceConfig config;
  config.targets.assign(1, Target::kGpuKernelB);  // has a single-prec sibling
  config.steps = kSteps;
  config.max_batch = 16;
  config.linger = 0us;
  config.queue_capacity = 8;
  config.worker_fault_plans.push_back(
      ocl::faults::parse_fault_plan("stall@1,ms=250"));
  config.overload.shed_watermark = 1.0;  // watermark == capacity == 8
  config.overload.brownout = true;
  PricingService service(config);

  auto blocker = service.submit(batch[0], kNoTimeout, 0, Priority::kRealtime);
  wait_until_collected(service);
  std::vector<std::future<Quote>> browned;
  for (std::size_t i = 1; i <= 8; ++i) {  // fill to the watermark
    browned.push_back(
        service.submit(batch[i], kNoTimeout, 0, Priority::kBatch));
  }

  // kRealtime is never browned, whatever the pressure around it.
  const Quote full = blocker.get();
  EXPECT_FALSE(full.browned_out);
  EXPECT_EQ(full.accuracy_bound, 0.0);
  EXPECT_EQ(full.price, direct_prices(Target::kGpuKernelB, {batch[0]})[0]);

  PricingAccelerator cheap(
      {Target::kGpuKernelBSingle, kSteps / 2, /*compute_rmse=*/false});
  for (std::size_t i = 0; i < browned.size(); ++i) {
    const Quote quote = browned[i].get();
    EXPECT_TRUE(quote.browned_out);
    EXPECT_GT(quote.accuracy_bound, 0.0);
    EXPECT_EQ(quote.target, Target::kGpuKernelBSingle);
    EXPECT_EQ(quote.price, cheap.run({batch[i + 1]}).prices[0]);  // bitwise
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.brownout_completions, 8u);
  EXPECT_EQ(stats.requests_completed, 9u);
}

TEST(ServiceOverload, DisabledLayerIsTheNullPath) {
  // Overload off (the default): priority classes are carried but never
  // acted on. A kBatch-tagged run and an untagged run of the same
  // workload must produce bitwise-identical prices and identical
  // counters, and every overload counter stays zero.
  const auto batch = finance::make_curve_batch(24);
  const ServiceConfig config = small_config(Target::kCpuReference);
  PricingService tagged(config);
  PricingService untagged(config);

  std::vector<double> tagged_prices;
  std::vector<double> untagged_prices;
  for (const auto& spec : batch) {
    tagged_prices.push_back(
        tagged.submit(spec, kNoTimeout, 0, Priority::kBatch).get().price);
    untagged_prices.push_back(untagged.submit(spec).get().price);
  }
  EXPECT_EQ(tagged_prices, untagged_prices);
  EXPECT_EQ(tagged_prices, direct_prices(Target::kCpuReference, batch));

  const auto a = tagged.stats();
  const auto b = untagged.stats();
  a.for_each_counter([&](const char* name, std::uint64_t value) {
    SCOPED_TRACE(name);
    std::uint64_t other = 0;
    b.for_each_counter([&](const char* other_name, std::uint64_t v) {
      if (std::string_view{name} == other_name) other = v;
    });
    EXPECT_EQ(value, other);
  });
  EXPECT_EQ(a.requests_completed, batch.size());
  EXPECT_EQ(a.requests_shed_batch, 0u);
  EXPECT_EQ(a.requests_shed_normal, 0u);
  EXPECT_EQ(a.admission_timeouts, 0u);
  EXPECT_EQ(a.eager_deadline_drops, 0u);
  EXPECT_EQ(a.brownout_completions, 0u);
}

// --- Mid-admission refusals ---------------------------------------------
// A shed or a shutdown that interrupts a multi-element admission refuses
// the rest of the batch with its typed error, while every element
// admitted before the refusal still resolves and is counted.

/// Stats once every admitted request has settled. Polls, because a
/// refused submit_batch hands the caller no handle on its admitted
/// prefix; a prefix that never settles fails the conservation check.
service::ServiceStats settled_stats(const PricingService& service) {
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  service::ServiceStats stats = service.stats();
  while (stats.requests_completed + stats.requests_timed_out +
                 stats.requests_failed <
             stats.requests_submitted &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
    stats = service.stats();
  }
  return stats;
}

void expect_conserved(const service::ServiceStats& stats) {
  EXPECT_EQ(stats.requests_submitted, stats.requests_completed +
                                          stats.requests_timed_out +
                                          stats.requests_failed);
}

/// A stalled worker holding one realtime blocker, a queue of 8 and
/// watermark 0.5: kBatch admission sheds at occupancy 4, so a 7-element
/// kBatch curve admits its first 4 elements and sheds the fifth.
struct MidBatchShed {
  std::vector<finance::OptionSpec> curve;
  PricingService service;
  std::future<Quote> blocker;

  MidBatchShed() : service(config()) {
    const auto batch = finance::make_curve_batch(8);
    curve.assign(batch.begin() + 1, batch.end());
    blocker = service.submit(batch[0], kNoTimeout, 0, Priority::kRealtime);
    wait_until_collected(service);
  }

  static ServiceConfig config() {
    ServiceConfig config =
        stalled_config("stall@1,ms=300", /*queue_capacity=*/8);
    config.overload.shed_watermark = 0.5;
    return config;
  }
};

void expect_fifth_element_shed(const ServiceOverloadError& error) {
  EXPECT_EQ(error.priority(), Priority::kBatch);
  EXPECT_EQ(error.occupancy(), 4u);
  EXPECT_EQ(error.threshold(), 4u);
}

TEST(ServiceOverload, SubmitBatchShedMidBatchSettlesTheAdmittedPrefix) {
  MidBatchShed shed;
  try {
    (void)shed.service.submit_batch(shed.curve, kNoTimeout, 0,
                                    Priority::kBatch);
    FAIL() << "the fifth kBatch element must shed at occupancy 4";
  } catch (const ServiceOverloadError& error) {
    expect_fifth_element_shed(error);
  }
  EXPECT_GT(shed.blocker.get().price, 0.0);

  const auto stats = settled_stats(shed.service);
  expect_conserved(stats);
  EXPECT_EQ(stats.requests_submitted, 5u);  // blocker + admitted prefix
  EXPECT_EQ(stats.requests_completed, 5u);
  EXPECT_EQ(stats.requests_shed_batch, 1u);  // the refused element only
  EXPECT_EQ(stats.options_priced, 5u);
}

TEST(ServiceOverload, BlockingBatchShedMidBatchSettlesTheAdmittedPrefix) {
  MidBatchShed shed;
  std::vector<double> out(shed.curve.size(), -1.0);
  try {
    shed.service.price_batch_blocking(shed.curve.data(), shed.curve.size(),
                                      out.data(), kNoTimeout, 0,
                                      Priority::kBatch);
    FAIL() << "the fifth kBatch element must shed at occupancy 4";
  } catch (const ServiceOverloadError& error) {
    expect_fifth_element_shed(error);
  }
  // The call returned only after its admitted prefix settled: those
  // prices landed, the refused tail was never written, and the counters
  // are already complete.
  const std::vector<double> expected =
      direct_prices(Target::kFpgaKernelB, shed.curve);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i < 4 ? expected[i] : -1.0) << "element " << i;
  }
  const auto stats = shed.service.stats();
  expect_conserved(stats);
  EXPECT_EQ(stats.requests_submitted, 5u);
  EXPECT_EQ(stats.requests_completed, 5u);
  EXPECT_EQ(stats.requests_shed_batch, 1u);
  EXPECT_GT(shed.blocker.get().price, 0.0);
}

/// Destroys a service while `admit` is parked on backpressure partway
/// through an 11-element batch: a stalled worker holds one blocker and
/// the 4-deep queue holds the batch's first 4 elements. Returns what
/// `admit` threw, after checking the blocker still resolved.
template <typename Admit>
std::exception_ptr destroy_mid_admission(
    const std::vector<finance::OptionSpec>& curve, Admit&& admit) {
  const auto batch = finance::make_curve_batch(2);
  std::optional<PricingService> service;
  service.emplace(stalled_config("stall@1,ms=300", /*queue_capacity=*/4));
  auto blocker = service->submit(batch[0], kNoTimeout);
  wait_until_collected(*service);

  std::exception_ptr error;
  std::thread submitter([&] {
    try {
      admit(*service, curve);
    } catch (...) {
      error = std::current_exception();
    }
  });
  while (service->queued_requests() < 4) std::this_thread::sleep_for(100us);
  std::this_thread::sleep_for(20ms);  // the fifth element parks
  service.reset();
  submitter.join();
  EXPECT_GT(blocker.get().price, 0.0);
  return error;
}

TEST(PricingService, ShutdownMidAdmissionRefusesTheRestOfABlockingBatch) {
  const auto curve = finance::make_curve_batch(11);
  std::vector<double> out(curve.size(), -1.0);
  const std::exception_ptr error = destroy_mid_admission(
      curve, [&](PricingService& service,
                 const std::vector<finance::OptionSpec>& specs) {
        service.price_batch_blocking(specs.data(), specs.size(), out.data());
      });
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), ServiceShutdownError);
  // The admitted prefix was drained and priced before the call returned;
  // the refused tail was never written.
  const std::vector<double> expected =
      direct_prices(Target::kFpgaKernelB, curve);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i < 4 ? expected[i] : -1.0) << "element " << i;
  }
}

TEST(PricingService, ShutdownMidAdmissionRefusesTheRestOfASubmitBatch) {
  const auto curve = finance::make_curve_batch(11);
  const std::exception_ptr error = destroy_mid_admission(
      curve, [](PricingService& service,
                const std::vector<finance::OptionSpec>& specs) {
        (void)service.submit_batch(specs);
      });
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), ServiceShutdownError);
}

}  // namespace
}  // namespace binopt::core
