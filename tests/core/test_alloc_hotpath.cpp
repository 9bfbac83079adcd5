// Zero-allocation gate for the service hot path (DESIGN.md §2.6).
//
// This binary replaces the global allocation operators with counting
// versions and asserts that, after warmup, a price_batch_blocking call
// performs NO heap allocation end to end: admission (arena slot + ring
// push), batching (reused worker scratch), pricing (BatchPricer's reused
// lanes), and resolution (stack countdown sink). It also bounds what the
// future-returning front-ends allocate per call. The pins run under both
// routing off and the latency router: every policy shares the one queue
// and the one collection path, so placement must not cost a heap
// allocation either. The OpenCL simulator's work-group executor is pinned
// the same way: once warm, running groups of coroutine work-items (frames,
// local memory, per-item state) must not touch the heap, and neither may a
// constructed finance::BatchPricer pricing a batch or a book's Greeks
// fronts. It is a separate test binary so the hooks cannot perturb the
// other suites or the ThreadSanitizer job.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/accelerator.h"
#include "core/service/greeks_service.h"
#include "core/service/pricing_service.h"
#include "finance/binomial_batch.h"
#include "finance/workload.h"
#include "kernels/kernel_b.h"
#include "ocl/workgroup_executor.h"

namespace {
// Counts every path into the heap. Relaxed is fine: the test reads the
// counter only after joining/quiescing the threads whose allocations it
// wants to observe (the blocking call returns only after the worker has
// resolved every element).
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace binopt::core {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kSteps = 64;
constexpr std::size_t kBatch = 64;

ServiceConfig hotpath_config(
    service::RouterPolicy policy = service::RouterPolicy::kOff) {
  ServiceConfig config;
  config.targets = {Target::kCpuReference};
  config.steps = kSteps;
  config.max_batch = kBatch;
  config.linger = 0us;
  config.queue_capacity = 256;
  config.cache_capacity = 0;  // cache insertions allocate by design
  config.router.policy = policy;
  return config;
}

void expect_blocking_batches_allocate_nothing(service::RouterPolicy policy) {
  const auto specs = finance::make_curve_batch(kBatch);
  PricingAccelerator direct({Target::kCpuReference, kSteps,
                             /*compute_rmse=*/false});
  const std::vector<double> expected = direct.run(specs).prices;

  PricingService service(hotpath_config(policy));
  std::vector<double> out(specs.size(), 0.0);

  // Warmup: lazily builds the worker's BatchPricer, reserves all scratch,
  // and carves every arena slab the steady-state lease pattern touches.
  for (int i = 0; i < 200; ++i) {
    service.price_batch_blocking(specs.data(), specs.size(), out.data());
  }

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  constexpr int kMeasuredReps = 100;
  for (int i = 0; i < kMeasuredReps; ++i) {
    service.price_batch_blocking(specs.data(), specs.size(), out.data());
  }
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);

  // The acceptance gate: zero allocations per request in steady state —
  // submit -> ring -> batch -> price -> resolve never touches the heap.
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across " << kMeasuredReps
      << " blocking batches of " << specs.size() << " (router "
      << to_string(policy) << ")";

  // And the zero-alloc path still prices correctly (bitwise).
  ASSERT_EQ(out, expected);
}

TEST(AllocHotPath, SteadyStateBlockingBatchMakesZeroHeapAllocations) {
  expect_blocking_batches_allocate_nothing(service::RouterPolicy::kOff);
}

TEST(AllocHotPath, LatencyRoutedBlockingBatchMakesZeroHeapAllocations) {
  expect_blocking_batches_allocate_nothing(service::RouterPolicy::kLatency);
}

TEST(AllocHotPath, FrontEndsAgreeBitwiseWithADirectRunOnOneWorker) {
  // The stack sink and both heap sinks resolve the same prices.
  const auto specs = finance::make_curve_batch(48);
  PricingAccelerator direct({Target::kCpuReference, kSteps,
                             /*compute_rmse=*/false});
  const std::vector<double> expected = direct.run(specs).prices;

  PricingService service(hotpath_config());
  std::vector<double> blocking(specs.size(), 0.0);
  service.price_batch_blocking(specs.data(), specs.size(), blocking.data());
  EXPECT_EQ(blocking, expected);

  const std::vector<double> via_future = service.submit_batch(specs).get();
  EXPECT_EQ(via_future, expected);

  const Quote quote = service.submit(specs.front()).get();
  EXPECT_EQ(quote.price, expected.front());
}

void expect_armed_overload_layer_allocates_nothing(
    service::RouterPolicy policy) {
  // Arming shedding + the sojourn controller must not cost the fast path
  // its zero-allocation guarantee: under the watermark every admission
  // adds only an atomic occupancy read, and every collection only the
  // controller's atomic bookkeeping (DESIGN.md §2.10). Sheds, drops, and
  // brownout never fire here — this is the 99% regime of an armed
  // service, and it must price exactly like the disarmed one.
  const auto specs = finance::make_curve_batch(kBatch);
  PricingAccelerator direct({Target::kCpuReference, kSteps,
                             /*compute_rmse=*/false});
  const std::vector<double> expected = direct.run(specs).prices;

  ServiceConfig config = hotpath_config(policy);
  config.overload.shed_watermark = 0.9;    // 230 of 256: never reached
  config.overload.sojourn_target = 50ms;   // never exceeded either
  PricingService service(std::move(config));
  std::vector<double> out(specs.size(), 0.0);

  for (int i = 0; i < 200; ++i) {
    service.price_batch_blocking(specs.data(), specs.size(), out.data());
  }

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  constexpr int kMeasuredReps = 100;
  for (int i = 0; i < kMeasuredReps; ++i) {
    service.price_batch_blocking(specs.data(), specs.size(), out.data());
  }
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across " << kMeasuredReps
      << " blocking batches with the overload layer armed (router "
      << to_string(policy) << ")";
  ASSERT_EQ(out, expected);  // armed != different prices

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_shed_normal, 0u);
  EXPECT_EQ(stats.requests_shed_batch, 0u);
  EXPECT_EQ(stats.eager_deadline_drops, 0u);
  EXPECT_EQ(stats.brownout_completions, 0u);
}

TEST(AllocHotPath, ArmedOverloadLayerUnderTheWatermarkStaysZeroAlloc) {
  expect_armed_overload_layer_allocates_nothing(service::RouterPolicy::kOff);
}

TEST(AllocHotPath, LatencyRoutedArmedOverloadLayerStaysZeroAlloc) {
  expect_armed_overload_layer_allocates_nothing(
      service::RouterPolicy::kLatency);
}

/// Steady-state heap allocations per call of `call`, averaged over
/// kMeasuredReps calls after a warmup that carves every arena slab.
template <typename Call>
double allocations_per_call(Call&& call) {
  for (int i = 0; i < 200; ++i) call();
  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  constexpr int kMeasuredReps = 100;
  for (int i = 0; i < kMeasuredReps; ++i) call();
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / kMeasuredReps;
}

void expect_submit_allocations_bounded(service::RouterPolicy policy) {
  // submit() pays only for its promise (libstdc++ allocates the shared
  // state and the result storage separately): the request slot and the
  // completion sink are recycled, never allocated, in steady state. The
  // bound is what the promise-per-request front-end allocated.
  const auto specs = finance::make_curve_batch(2);
  PricingService service(hotpath_config(policy));
  const double per_call = allocations_per_call(
      [&] { EXPECT_GT(service.submit(specs.front()).get().price, 0.0); });
  EXPECT_LE(per_call, 2.0) << per_call << " allocations per submit() (router "
                           << to_string(policy) << ")";
}

TEST(AllocHotPath, SteadyStateSubmitAllocationsStayBounded) {
  expect_submit_allocations_bounded(service::RouterPolicy::kOff);
}

TEST(AllocHotPath, LatencyRoutedSubmitAllocationsStayBounded) {
  expect_submit_allocations_bounded(service::RouterPolicy::kLatency);
}

TEST(AllocHotPath, SteadyStateSubmitBatchAllocationsStayBounded) {
  // submit_batch() pays for its promise and its result vector. The bound
  // is what the front-end with a shared batch state and a side array of
  // request pointers allocated.
  const auto specs = finance::make_curve_batch(kBatch);
  PricingService service(hotpath_config());
  const double per_call = allocations_per_call(
      [&] { EXPECT_EQ(service.submit_batch(specs).get().size(), kBatch); });
  EXPECT_LE(per_call, 5.0) << per_call << " allocations per submit_batch()";
}

TEST(AllocHotPath, GreeksBookAllocationsDoNotGrowWithTheBook) {
  // A Greeks book admits its 4n tagged legs into one stack sink, so what
  // it allocates is its own per-call arrays (bump sets, legs, tags, leg
  // quotes, fronts, the pricer's scratch, the result), never anything per
  // leg: a 256-option book allocates exactly what a 64-option book does.
  PricingService service(hotpath_config());
  GreeksService greeks(service);
  const auto small = finance::make_random_batch(64, 7);
  const auto large = finance::make_random_batch(256, 7);
  const double per_small = allocations_per_call(
      [&] { EXPECT_EQ(greeks.greeks_batch_blocking(small).size(), 64u); });
  const double per_large = allocations_per_call(
      [&] { EXPECT_EQ(greeks.greeks_batch_blocking(large).size(), 256u); });
  EXPECT_EQ(per_small, per_large)
      << per_small << " allocations per 64-option book, " << per_large
      << " per 256-option book";
}

TEST(AllocHotPath, StatsStillTrackZeroAllocTraffic) {
  // Stack-sink requests must feed the same counters/histograms as the
  // heap sinks — observability cannot be the price of zero-alloc.
  const auto specs = finance::make_curve_batch(32);
  PricingService service(hotpath_config());
  std::vector<double> out(specs.size(), 0.0);
  service.price_batch_blocking(specs.data(), specs.size(), out.data());

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests_submitted, specs.size());
  EXPECT_EQ(stats.requests_completed, specs.size());
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.options_priced, specs.size());
  EXPECT_EQ(stats.request_latency_ns.count(), specs.size());
  EXPECT_EQ(stats.queue_wait_ns.count(), specs.size());
  EXPECT_GE(stats.batches_launched, 1u);
}

/// Runs `kernel` over `groups` work-groups of `local` items once to warm
/// the executor up, then again with the heap counted.
std::uint64_t executor_allocations(const ocl::Kernel& kernel,
                                   const ocl::KernelArgs& args,
                                   std::size_t groups, std::size_t local,
                                   ocl::RuntimeStats& stats) {
  ocl::WorkGroupExecutor executor(/*local_mem_bytes=*/16 * 1024,
                                  /*max_workgroup_size=*/256);
  const ocl::NDRange range{groups * local, local};
  executor.execute(kernel, args, range, stats);
  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 3; ++round) {
    executor.execute(kernel, args, range, stats);
  }
  return g_heap_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocHotPath, BatchPricerPricesAndFrontsMakeZeroHeapAllocations) {
  // 23 = 8 + 8 + 4 + 3 scalar: every group width the host dispatches to,
  // and the scalar tail, run out of the scratch the constructor sized — no
  // warm-up call.
  constexpr std::size_t kBook = 23;
  const auto specs = finance::make_curve_batch(kBook);
  std::array<double, kBook> prices{};
  std::array<finance::LatticeFront, kBook> fronts{};
  finance::BatchPricer pricer(kSteps);
  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    pricer.price_into(specs.data(), specs.size(), prices.data());
    pricer.fronts_into(specs.data(), specs.size(), fronts.data());
  }
  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "at " << finance::BatchPricer::simd_width() << " lanes";
  for (std::size_t i = 0; i < kBook; ++i) {
    ASSERT_EQ(fronts[i].price, prices[i]) << "spec " << i;
  }
}

TEST(AllocHotPath, BarrierKernelGroupsMakeZeroHeapAllocations) {
  // Kernel IV.B itself: one option per group of 64 items, 129 barriers.
  constexpr std::size_t kOptions = 8;
  const ocl::Kernel kernel = kernels::make_kernel_b(
      kSteps, kernels::MathMode::kFpgaApproxPow, /*host_leaves=*/false);
  std::vector<double> params;
  for (std::size_t i = 0; i < kOptions; ++i) {
    // s0, u, rp, rq, strike, call, 1/u, american
    params.insert(params.end(), {100.0, 1.01, 0.5, 0.49,
                                 95.0 + static_cast<double>(i),
                                 1.0, 1.0 / 1.01, 0.0});
  }
  ocl::Buffer param_buf(params.size() * sizeof(double),
                        ocl::MemFlags::kReadOnly, "params");
  ocl::Buffer result_buf(kOptions * sizeof(double), ocl::MemFlags::kWriteOnly,
                         "results");
  param_buf.write(0, std::as_bytes(std::span<const double>(params)));
  ocl::KernelArgs args;
  args.set(0, &param_buf);
  args.set(1, &result_buf);
  ocl::RuntimeStats stats;
  EXPECT_EQ(executor_allocations(kernel, args, kOptions, kSteps, stats), 0u);
  EXPECT_EQ(stats.barriers_executed,
            4 * kOptions * kSteps * (2 * kSteps + 1));
}

TEST(AllocHotPath, BarrierFreeKernelGroupsMakeZeroHeapAllocations) {
  constexpr std::size_t kGroups = 16;
  constexpr std::size_t kLocal = 32;
  ocl::Buffer out(kGroups * kLocal * sizeof(double), ocl::MemFlags::kReadWrite,
                  "out");
  ocl::Kernel kernel;
  kernel.name = "barrier_free";
  kernel.body = [](ocl::WorkItemCtx& ctx,
                   const ocl::KernelArgs& args) -> ocl::WorkItemTask {
    auto view = ctx.global<double>(args.buffer(0));
    view.set(ctx.global_id(), static_cast<double>(ctx.local_id()));
    co_return;
  };
  ocl::KernelArgs args;
  args.set(0, &out);
  ocl::RuntimeStats stats;
  EXPECT_EQ(executor_allocations(kernel, args, kGroups, kLocal, stats), 0u);
  EXPECT_EQ(stats.work_items_executed, 4 * kGroups * kLocal);
}

}  // namespace
}  // namespace binopt::core
