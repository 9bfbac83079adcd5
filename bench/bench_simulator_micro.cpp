// Micro-benchmarks of the simulation substrate itself (google-benchmark):
// the reference pricer's node-update rate, barrier round-trips of the
// coroutine work-items, the approximate math operators, and the end-to-end
// functional kernels. These measure THIS machine's simulator, not the
// paper's hardware — they bound how large the functional experiments can
// be made. BM_WorkGroupBarrierRound is the substrate number: the cost of
// one work-item crossing one barrier.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "finance/binomial.h"
#include "finance/workload.h"
#include "fpga/approx_math.h"
#include "kernels/kernel_a.h"
#include "kernels/kernel_b.h"
#include "ocl/device.h"
#include "ocl/platform.h"

namespace {

using namespace binopt;

void BM_ReferencePricer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const finance::BinomialPricer pricer(n);
  const auto batch = finance::make_random_batch(1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pricer.price(batch[0]));
  }
  const double nodes = static_cast<double>(n) * (n + 1) / 2.0;
  state.counters["nodes/s"] = benchmark::Counter(
      nodes * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReferencePricer)->Arg(128)->Arg(1024);

void BM_WorkGroupBarrierRound(benchmark::State& state) {
  const auto group = static_cast<std::size_t>(state.range(0));
  ocl::WorkGroupExecutor executor(32 * 1024, 1024);
  ocl::RuntimeStats stats;
  ocl::Kernel kernel;
  kernel.name = "barrier_bench";
  kernel.body = [](ocl::WorkItemCtx& ctx,
                   const ocl::KernelArgs&) -> ocl::WorkItemTask {
    for (int i = 0; i < 16; ++i) co_await ctx.barrier();
  };
  ocl::KernelArgs args;
  for (auto _ : state) {
    executor.execute(kernel, args, ocl::NDRange{group, group}, stats);
  }
  state.counters["barrier_crossings/s"] = benchmark::Counter(
      static_cast<double>(group) * 16.0 *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WorkGroupBarrierRound)->Arg(64)->Arg(1024);

void BM_ApproxPow(benchmark::State& state) {
  double x = 1.0063;
  double e = -300.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fpga::approx_pow(x, e));
    e += 0.57;
    if (e > 300.0) e = -300.0;
  }
}
BENCHMARK(BM_ApproxPow);

void BM_StdPow(benchmark::State& state) {
  double x = 1.0063;
  double e = -300.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::pow(x, e));
    e += 0.57;
    if (e > 300.0) e = -300.0;
  }
}
BENCHMARK(BM_StdPow);

void BM_KernelAFunctional(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto platform = ocl::Platform::make_reference_platform();
  ocl::Device& device = platform->device_by_kind(ocl::DeviceKind::kFpga);
  const auto batch = finance::make_random_batch(4, 3);
  kernels::KernelAHostProgram host(device, {.steps = n});
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.run(batch).prices);
  }
  state.counters["sim_options/s"] = benchmark::Counter(
      4.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelAFunctional)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_KernelBFunctional(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto platform = ocl::Platform::make_reference_platform();
  ocl::Device& device = platform->device_by_kind(ocl::DeviceKind::kFpga);
  const auto batch = finance::make_random_batch(4, 3);
  kernels::KernelBHostProgram host(
      device, {.steps = n, .mode = kernels::MathMode::kFpgaApproxPow});
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.run(batch).prices);
  }
  state.counters["sim_options/s"] = benchmark::Counter(
      4.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelBFunctional)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// Sweep the parallel compute-unit scheduler: 1, 2, 4, and
// hardware_concurrency worker threads over the same NDRange. Reports
// work-groups/s and the wall-clock speedup versus the 1-unit run of the
// same benchmark (the Arg(1) case registers first and seeds the baseline).
// On a single-core host the speedup plateaus at ~1x; on a multi-core CI
// runner the 4-unit row is where the >=2x scheduler win shows up.
void sweep_compute_units(benchmark::internal::Benchmark* b) {
  std::vector<int> units = {1, 2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 0 && std::find(units.begin(), units.end(), hw) == units.end()) {
    units.push_back(hw);
  }
  for (int u : units) b->Arg(u);
}

void BM_ComputeUnitSweep(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  const std::size_t groups = 256;
  const std::size_t local = 16;
  ocl::Device device("cu-sweep", ocl::DeviceKind::kFpga,
                     ocl::DeviceLimits{64u << 20, 16u << 10, 64, units});
  ocl::Kernel kernel;
  kernel.name = "cu_sweep";
  kernel.body = [](ocl::WorkItemCtx& ctx,
                   const ocl::KernelArgs&) -> ocl::WorkItemTask {
    auto row = ctx.local_array<double>(ctx.local_size());
    row.set(ctx.local_id(), 1.0 + 1e-9 * static_cast<double>(ctx.global_id()));
    co_await ctx.barrier();
    double acc = row.get((ctx.local_id() + 1) % ctx.local_size());
    for (int i = 0; i < 256; ++i) acc = acc * 1.0000001 + 1e-12;
    benchmark::DoNotOptimize(acc);
  };
  ocl::KernelArgs args;

  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    device.execute(kernel, args, ocl::NDRange{groups * local, local});
  }
  const auto t1 = std::chrono::steady_clock::now();

  const double iters = static_cast<double>(state.iterations());
  const double s_per_range =
      std::chrono::duration<double>(t1 - t0).count() / std::max(1.0, iters);
  static double baseline_s_per_range = 0.0;
  if (units == 1) baseline_s_per_range = s_per_range;
  if (baseline_s_per_range > 0.0 && s_per_range > 0.0) {
    state.counters["speedup_vs_1cu"] = baseline_s_per_range / s_per_range;
  }
  state.counters["work_groups/s"] = benchmark::Counter(
      static_cast<double>(groups) * iters, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ComputeUnitSweep)
    ->Apply(sweep_compute_units)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same sweep through the real kernel IV.B host program: one option per
// work-group, so compute units scale across independent options exactly as
// the replicated FPGA pipelines do in the paper's Table I.
void BM_KernelBComputeUnitSweep(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  ocl::Device device("cu-sweep-b", ocl::DeviceKind::kFpga,
                     ocl::DeviceLimits{64u << 20, 16u << 10, 256, units});
  const auto batch = finance::make_random_batch(64, 5);
  kernels::KernelBHostProgram host(device, {.steps = 128});
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.run(batch).prices);
  }
  state.counters["sim_options/s"] = benchmark::Counter(
      static_cast<double>(batch.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelBComputeUnitSweep)
    ->Apply(sweep_compute_units)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Cost of the kernel hazard analyzer on kernel IV.B: Arg(0) runs with the
// analyzer disabled (its fast path is one null test per access — this row
// must match BM_KernelBFunctional), Arg(1) with full shadow-memory
// tracking. The ratio between the two rows is the documented overhead of
// `binopt_cli --check` / BINOPT_OCL_ANALYZE=1.
void BM_KernelBAnalyzer(benchmark::State& state) {
  const bool analyze = state.range(0) != 0;
  ocl::Device device("analyzer-bench", ocl::DeviceKind::kFpga,
                     ocl::DeviceLimits{64u << 20, 16u << 10, 256, 2});
  if (analyze) {
    ocl::analyzer::AnalyzerConfig config;
    config.enabled = true;
    device.set_analyzer(config);
  }
  const auto batch = finance::make_random_batch(16, 5);
  kernels::KernelBHostProgram host(device, {.steps = 128});
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.run(batch).prices);
  }
  state.SetLabel(analyze ? "analyzer-on" : "analyzer-off");
  state.counters["sim_options/s"] = benchmark::Counter(
      static_cast<double>(batch.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelBAnalyzer)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Cost of the fault-injection layer on kernel IV.B: Arg(0) runs with no
// fault plan (the disabled-mode fast path is one null test per injection
// point — this row must match BM_KernelBFunctional), Arg(1) with a plan
// armed whose clauses never fire (the per-launch/read/write ordinal
// bookkeeping with zero faults). The gap between the rows is the
// documented cost of leaving BINOPT_OCL_FAULTS armed in production.
void BM_KernelBFaultInjection(benchmark::State& state) {
  const bool armed = state.range(0) != 0;
  ocl::Device device("faults-bench", ocl::DeviceKind::kFpga,
                     ocl::DeviceLimits{64u << 20, 16u << 10, 256, 2});
  if (armed) {
    device.set_fault_plan(ocl::faults::parse_fault_plan(
        "device-lost@1000000000;read-error@1000000000;"
        "write-error@1000000000"));
  }
  const auto batch = finance::make_random_batch(16, 5);
  kernels::KernelBHostProgram host(device, {.steps = 128});
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.run(batch).prices);
  }
  state.SetLabel(armed ? "faults-armed-idle" : "faults-off");
  state.counters["sim_options/s"] = benchmark::Counter(
      static_cast<double>(batch.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelBFaultInjection)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
