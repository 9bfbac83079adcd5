// Parallel compute-unit scheduler tests: stats parity with serial execution
// for both paper kernel shapes (IV.A barrier-free dataflow, IV.B
// work-group-per-option with barriers), error semantics with
// compute_units > 1 (barrier divergence, mid-kernel exceptions, pool
// reuse), compute-unit resolution (limits / API / env var), and a
// many-group stress kernel that the CI ThreadSanitizer job runs under the
// race detector.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "finance/workload.h"
#include "kernels/kernel_a.h"
#include "kernels/kernel_b.h"
#include "ocl/cu_scheduler.h"
#include "ocl/device.h"

namespace binopt::ocl {
namespace {

constexpr std::size_t kMiB = 1024 * 1024;

Device make_device(std::size_t compute_units,
                   std::size_t max_workgroup_size = 64) {
  return Device("cu-test", DeviceKind::kFpga,
                DeviceLimits{16 * kMiB, 16 * 1024, max_workgroup_size,
                             compute_units});
}

/// RAII override of BINOPT_OCL_COMPUTE_UNITS for one test.
class ScopedComputeUnitsEnv {
public:
  explicit ScopedComputeUnitsEnv(const char* value) {
    ::setenv("BINOPT_OCL_COMPUTE_UNITS", value, /*overwrite=*/1);
  }
  ~ScopedComputeUnitsEnv() { ::unsetenv("BINOPT_OCL_COMPUTE_UNITS"); }
};

TEST(ComputeUnitResolution, LimitsValueIsUsed) {
  Device device = make_device(3);
  EXPECT_EQ(device.compute_units(), 3u);
  EXPECT_EQ(device.limits().compute_units, 3u);
}

TEST(ComputeUnitResolution, ZeroMeansAutomatic) {
  Device device = make_device(0);
  EXPECT_GE(device.compute_units(), 1u);
}

TEST(ComputeUnitResolution, EnvVarBeatsLimits) {
  ScopedComputeUnitsEnv env("2");
  Device device = make_device(8);
  EXPECT_EQ(device.compute_units(), 2u);
}

TEST(ComputeUnitResolution, MalformedEnvVarThrows) {
  ScopedComputeUnitsEnv env("not-a-number");
  EXPECT_THROW(make_device(0), PreconditionError);
}

TEST(ComputeUnitResolution, NegativeEnvVarRejectedNotWrapped) {
  // strtoul would wrap "-1" to ULONG_MAX, sail past the `>= 1` check, and
  // ask the scheduler for ~1.8e19 worker threads. Must throw instead.
  ScopedComputeUnitsEnv env("-1");
  EXPECT_THROW((void)resolve_compute_units(0), PreconditionError);
}

TEST(ComputeUnitResolution, ExplicitSignRejected) {
  ScopedComputeUnitsEnv env("+4");
  EXPECT_THROW((void)resolve_compute_units(0), PreconditionError);
}

TEST(ComputeUnitResolution, OverflowingEnvVarRejected) {
  // 2^64 * 10-ish: strtoul saturates to ULONG_MAX and only reports the
  // overflow through errno == ERANGE, which must not be swallowed.
  ScopedComputeUnitsEnv env("184467440737095516160");
  EXPECT_THROW((void)resolve_compute_units(0), PreconditionError);
}

TEST(ComputeUnitResolution, AboveSaneMaximumRejected) {
  ScopedComputeUnitsEnv env("1000000");
  EXPECT_THROW((void)resolve_compute_units(0), PreconditionError);
}

TEST(ComputeUnitResolution, MaximumItselfAccepted) {
  const std::string max = std::to_string(kMaxComputeUnits);
  ScopedComputeUnitsEnv env(max.c_str());
  EXPECT_EQ(resolve_compute_units(0), kMaxComputeUnits);
}

TEST(ComputeUnitResolution, ApiOverrideBeatsEverything) {
  ScopedComputeUnitsEnv env("2");
  Device device = make_device(8);
  device.set_compute_units(5);
  EXPECT_EQ(device.compute_units(), 5u);
  EXPECT_THROW(device.set_compute_units(0), PreconditionError);
}

// --- Stats parity: parallel totals must be bit-identical to serial -------

TEST(ParallelExecutor, KernelBShapeStatsMatchSerialExactly) {
  // Kernel IV.B: one work-group per option, work-item per tree row,
  // local-memory row + barriers — the paper's optimized kernel.
  const auto batch = finance::make_random_batch(24, 7);
  const std::size_t steps = 32;

  Device serial = make_device(1);
  Device parallel = make_device(4);

  kernels::KernelBHostProgram host_serial(serial, {.steps = steps});
  kernels::KernelBHostProgram host_parallel(parallel, {.steps = steps});

  const auto res_serial = host_serial.run(batch);
  const auto res_parallel = host_parallel.run(batch);

  EXPECT_EQ(res_serial.prices, res_parallel.prices);  // bitwise-equal doubles
  EXPECT_EQ(res_serial.stats, res_parallel.stats);
  EXPECT_EQ(res_parallel.stats.work_groups_executed, batch.size());
  EXPECT_GT(res_parallel.stats.barriers_executed, 0u);
}

TEST(ParallelExecutor, KernelAShapeStatsMatchSerialExactly) {
  // Kernel IV.A: barrier-free dataflow, one work-item per tree node,
  // ping-pong global buffers, host-driven batches.
  const auto batch = finance::make_random_batch(6, 11);
  const std::size_t steps = 24;

  Device serial = make_device(1, /*max_workgroup_size=*/256);
  Device parallel = make_device(4, /*max_workgroup_size=*/256);

  kernels::KernelAHostProgram host_serial(serial, {.steps = steps});
  kernels::KernelAHostProgram host_parallel(parallel, {.steps = steps});

  const auto res_serial = host_serial.run(batch);
  const auto res_parallel = host_parallel.run(batch);

  EXPECT_EQ(res_serial.prices, res_parallel.prices);
  EXPECT_EQ(res_serial.stats, res_parallel.stats);
  EXPECT_GT(res_parallel.stats.global_load_bytes, 0u);
}

TEST(ParallelExecutor, SyntheticBarrierKernelParityAcrossUnitCounts) {
  // Same NDRange on 1, 2, 3, 8 compute units: identical totals each time.
  Kernel kernel;
  kernel.name = "parity";
  kernel.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    auto row = ctx.local_array<double>(ctx.local_size());
    row.set(ctx.local_id(), static_cast<double>(ctx.global_id()));
    co_await ctx.barrier();
    (void)row.get((ctx.local_id() + 1) % ctx.local_size());
  };
  KernelArgs args;
  const NDRange range{512, 8};

  RuntimeStats baseline;
  {
    Device device = make_device(1);
    device.execute(kernel, args, range);
    baseline = device.stats();
  }
  for (std::size_t units : {2u, 3u, 8u}) {
    Device device = make_device(units);
    device.execute(kernel, args, range);
    EXPECT_EQ(device.stats(), baseline) << "units=" << units;
  }
  EXPECT_EQ(baseline.work_items_executed, 512u);
  EXPECT_EQ(baseline.work_groups_executed, 64u);
  EXPECT_EQ(baseline.barriers_executed, 512u);
}

// --- Error semantics with compute_units > 1 ------------------------------

TEST(ParallelExecutor, BarrierDivergenceDetectedAndPoolStaysReusable) {
  Device device = make_device(4);
  Kernel divergent;
  divergent.name = "divergent";
  divergent.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    // Only one item synchronises.
    if (ctx.local_id() == 0) co_await ctx.barrier();
  };
  KernelArgs args;
  EXPECT_THROW(device.execute(divergent, args, NDRange{256, 4}),
               PreconditionError);

  // Same device, same worker pool: a correct kernel must run cleanly.
  Kernel good;
  good.name = "fine";
  good.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    co_await ctx.barrier();
  };
  device.reset_stats();
  EXPECT_NO_THROW(device.execute(good, args, NDRange{256, 4}));
  EXPECT_EQ(device.stats().work_groups_executed, 64u);
  EXPECT_EQ(device.stats().barriers_executed, 256u);
}

TEST(ParallelExecutor, MidKernelExceptionCancelsAndRethrowsOnEnqueuer) {
  Device device = make_device(4);
  Kernel bad;
  bad.name = "dies_mid_phase";
  bad.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    co_await ctx.barrier();
    if (ctx.group_id() == 5 && ctx.local_id() == 3) {
      throw PreconditionError("boom in group 5");
    }
    co_await ctx.barrier();
  };
  KernelArgs args;
  EXPECT_THROW(device.execute(bad, args, NDRange{8 * 64, 8}),
               PreconditionError);

  // Remaining chunks were cancelled, every worker destroyed its failed
  // group's frames, and the pool is reusable for barrier and barrier-free
  // kernels alike.
  Kernel good;
  good.name = "fine";
  good.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    co_await ctx.barrier();
  };
  device.reset_stats();
  EXPECT_NO_THROW(device.execute(good, args, NDRange{8 * 64, 8}));
  EXPECT_EQ(device.stats().work_groups_executed, 64u);
}

TEST(ParallelExecutor, ExceptionInBarrierFreeKernelAlsoRethrown) {
  Device device = make_device(4);
  Kernel bad;
  bad.name = "barrier_free_thrower";
  bad.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    if (ctx.group_id() == 17) throw InvariantError("barrier-free boom");
    co_return;
  };
  KernelArgs args;
  EXPECT_THROW(device.execute(bad, args, NDRange{64 * 4, 4}), InvariantError);
}

// --- Stress (run under -fsanitize=thread in CI) --------------------------

TEST(ParallelExecutorStress, ManyGroupsManyUnitsRaceFree) {
  Device device = make_device(4, /*max_workgroup_size=*/16);
  const std::size_t groups = 2000;
  const std::size_t local = 16;
  std::vector<double> out(groups * local, -1.0);
  Kernel kernel;
  kernel.name = "stress";
  kernel.body = [&out](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    auto row = ctx.local_array<double>(ctx.local_size());
    row.set(ctx.local_id(), static_cast<double>(ctx.local_id()));
    co_await ctx.barrier();
    const double neighbour = row.get((ctx.local_id() + 1) % ctx.local_size());
    // Distinct global slot per work-item: the only cross-thread writes are
    // to disjoint addresses, exactly like kernel IV.B's result buffer.
    out[ctx.global_id()] =
        neighbour + 1000.0 * static_cast<double>(ctx.group_id());
  };
  KernelArgs args;
  device.execute(kernel, args, NDRange{groups * local, local});

  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t i = 0; i < local; ++i) {
      const double expected = static_cast<double>((i + 1) % local) +
                              1000.0 * static_cast<double>(g);
      ASSERT_DOUBLE_EQ(out[g * local + i], expected)
          << "group " << g << " item " << i;
    }
  }
  EXPECT_EQ(device.stats().work_groups_executed, groups);
  EXPECT_EQ(device.stats().work_items_executed, groups * local);
  EXPECT_EQ(device.stats().barriers_executed, groups * local);
}

TEST(ParallelExecutorStress, RepeatedNDRangesReuseTheWorkerPool) {
  Device device = make_device(3, /*max_workgroup_size=*/8);
  Kernel kernel;
  kernel.name = "repeat";
  kernel.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    co_await ctx.barrier();
  };
  KernelArgs args;
  for (int round = 0; round < 50; ++round) {
    device.execute(kernel, args, NDRange{40 * 8, 8});
  }
  EXPECT_EQ(device.stats().kernels_enqueued, 50u);
  EXPECT_EQ(device.stats().work_groups_executed, 50u * 40u);
}

}  // namespace
}  // namespace binopt::ocl
