// Kernel hazard analyzer tests (src/ocl/analyzer/).
//
// Four seeded-bug kernels — the classic OpenCL-port mistakes on the
// paper's kernels — must each be flagged with correct work-item/offset
// attribution:
//   1. kernel IV.B's backward loop with the second barrier removed
//      (read/write race on the shared local value row),
//   2. an out-of-bounds global read at the last tree level,
//   3. a read of the local row before any work-item initialised it,
//   4. a barrier under work-item-dependent control flow.
// The clean paper kernels must produce zero diagnostics (with
// compute_units > 1), and the disabled analyzer must change nothing:
// identical prices, bit-identical RuntimeStats.
//
// The static IR lint (analyzer/ir_lint.*) and the host-side
// Buffer::write/read range checks are covered at the bottom.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "finance/workload.h"
#include "kernels/ir_builders.h"
#include "kernels/kernel_a.h"
#include "kernels/kernel_b.h"
#include "ocl/analyzer/ir_lint.h"
#include "ocl/context.h"
#include "ocl/device.h"
#include "ocl/queue.h"

namespace binopt::ocl {
namespace {

namespace an = analyzer;
using an::Hazard;
using an::HazardKind;

constexpr std::size_t kMiB = 1024 * 1024;

Device make_device(std::size_t compute_units = 1, std::size_t max_group = 64) {
  return Device("an-test", DeviceKind::kFpga,
                DeviceLimits{16 * kMiB, 16 * 1024, max_group, compute_units});
}

/// Arms a device's hazard analyzer. Must run before buffers are created so
/// every buffer gets a written-byte shadow.
void enable_analyzer(Device& device) {
  an::AnalyzerConfig config;
  config.enabled = true;
  device.set_analyzer(config);
}

const Hazard* find_hazard(const std::vector<Hazard>& hazards, HazardKind kind) {
  for (const Hazard& h : hazards) {
    if (h.kind == kind) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Seeded bug 1: kernel IV.B's loop with the second barrier removed. Each
// iteration reads values[k] / values[k+1] and writes values[k] with only
// ONE barrier per iteration — work-item k's store to values[k] races with
// work-item k-1's load of the same element in the same epoch.
// ---------------------------------------------------------------------------

Kernel make_missing_barrier_kernel(std::size_t steps) {
  Kernel kernel;
  kernel.name = "seeded_missing_barrier";
  kernel.body = [steps](WorkItemCtx& ctx,
                        const KernelArgs& args) -> WorkItemTask {
    auto results = ctx.global<double>(args.buffer(0));
    const std::size_t n = steps;
    const std::size_t k = ctx.local_id();
    auto values = ctx.local_array<double>(n + 1);
    values.set(k, static_cast<double>(k));
    if (k == n - 1) values.set(n, static_cast<double>(n));
    co_await ctx.barrier();
    for (std::size_t t = n; t-- > 0;) {
      double v = 0.0;
      if (k <= t) v = 0.5 * (values.get(k) + values.get(k + 1));
      co_await ctx.barrier();
      if (k <= t) values.set(k, v);
      // BUG: no second barrier — the next iteration's loads race with
      // this store. (The correct kernel has ctx.barrier() here.)
    }
    if (k == 0) results.set(ctx.group_id(), values.get(0));
  };
  return kernel;
}

TEST(AnalyzerSeededBugs, MissingBarrierRaceIsFlaggedWithAttribution) {
  Device device = make_device();
  enable_analyzer(device);
  Context context(device);
  CommandQueue queue(context);
  Buffer& results = context.create_buffer_of<double>(1, MemFlags::kWriteOnly,
                                                     "results");

  constexpr std::size_t kSteps = 8;
  KernelArgs args;
  args.set(0, &results);
  queue.enqueue_ndrange(make_missing_barrier_kernel(kSteps), args,
                        NDRange{kSteps, kSteps});

  const an::HazardReport& report = device.hazard_report();
  ASSERT_GE(report.count(HazardKind::kLocalRaceReadWrite), 1u);
  EXPECT_EQ(report.count(HazardKind::kLocalOutOfBounds), 0u);
  EXPECT_EQ(report.count(HazardKind::kLocalUninitRead), 0u);

  const std::vector<Hazard> hazards = report.hazards();
  const Hazard* race = find_hazard(hazards, HazardKind::kLocalRaceReadWrite);
  ASSERT_NE(race, nullptr);
  EXPECT_EQ(race->kernel, "seeded_missing_barrier");
  EXPECT_EQ(race->resource, "local[0]");
  // Round-robin scheduling: work-item 0 runs first in the post-store
  // epoch, loads values[1], then work-item 1 stores values[1] — so the
  // first recorded conflict is item 1's store against item 0's load of
  // element 1 (byte offset 8).
  EXPECT_EQ(race->second.work_item, 1u);
  EXPECT_TRUE(race->second.is_write);
  EXPECT_EQ(race->first.work_item, 0u);
  EXPECT_FALSE(race->first.is_write);
  EXPECT_EQ(race->first.epoch, race->second.epoch);
  EXPECT_EQ(race->byte_offset, 8u);
  EXPECT_EQ(race->bytes, 8u);
}

TEST(AnalyzerSeededBugs, CorrectTwoBarrierLoopIsClean) {
  Device device = make_device();
  enable_analyzer(device);
  Context context(device);
  CommandQueue queue(context);
  Buffer& results = context.create_buffer_of<double>(1, MemFlags::kWriteOnly,
                                                     "results");

  constexpr std::size_t kSteps = 8;
  Kernel kernel;
  kernel.name = "two_barrier_loop";
  kernel.body = [](WorkItemCtx& ctx, const KernelArgs& args) -> WorkItemTask {
    auto results = ctx.global<double>(args.buffer(0));
    const std::size_t n = ctx.local_size();
    const std::size_t k = ctx.local_id();
    auto values = ctx.local_array<double>(n + 1);
    values.set(k, static_cast<double>(k));
    if (k == n - 1) values.set(n, static_cast<double>(n));
    co_await ctx.barrier();
    for (std::size_t t = n; t-- > 0;) {
      double v = 0.0;
      if (k <= t) v = 0.5 * (values.get(k) + values.get(k + 1));
      co_await ctx.barrier();
      if (k <= t) values.set(k, v);
      co_await ctx.barrier();  // the barrier the seeded kernel dropped
    }
    if (k == 0) results.set(ctx.group_id(), values.get(0));
  };
  KernelArgs args;
  args.set(0, &results);
  queue.enqueue_ndrange(kernel, args, NDRange{kSteps, kSteps});

  EXPECT_TRUE(device.hazard_report().empty())
      << device.hazard_report().to_string();
}

// ---------------------------------------------------------------------------
// Seeded bug 2: out-of-bounds global read at the last tree level — the
// kernel IV.A child-address arithmetic run one level too deep, so the
// deepest work-item's up-child load lands one element past the buffer.
// ---------------------------------------------------------------------------

TEST(AnalyzerSeededBugs, GlobalOutOfBoundsReadAtLastLevelIsFlagged) {
  Device device = make_device();
  enable_analyzer(device);
  Context context(device);
  CommandQueue queue(context);

  constexpr std::size_t kElems = 16;
  Buffer& tree = context.create_buffer_of<double>(kElems, MemFlags::kReadOnly,
                                                  "tree_levels");
  Buffer& out = context.create_buffer_of<double>(kElems, MemFlags::kWriteOnly,
                                                 "out");
  const std::vector<double> host(kElems, 1.0);
  queue.write<double>(tree, host);

  Kernel kernel;
  kernel.name = "seeded_oob_last_level";
  kernel.body = [](WorkItemCtx& ctx, const KernelArgs& args) -> WorkItemTask {
    auto tree = ctx.global<double>(args.buffer(0));
    auto out = ctx.global<double>(args.buffer(1));
    const std::size_t id = ctx.global_id();
    // BUG: the up-child of the last work-item is tree[kElems] — one past
    // the end. The analyzer suppresses the access (yielding 0.0) instead
    // of aborting the kernel.
    out.set(id, tree.get(id) + tree.get(id + 1));
    co_return;
  };
  KernelArgs args;
  args.set(0, &tree);
  args.set(1, &out);
  queue.enqueue_ndrange(kernel, args, NDRange{kElems, 8});

  const an::HazardReport& report = device.hazard_report();
  ASSERT_EQ(report.count(HazardKind::kGlobalOutOfBounds), 1u);
  const std::vector<Hazard> hazards = report.hazards();
  const Hazard* oob = find_hazard(hazards, HazardKind::kGlobalOutOfBounds);
  ASSERT_NE(oob, nullptr);
  EXPECT_EQ(oob->kernel, "seeded_oob_last_level");
  EXPECT_EQ(oob->resource, "tree_levels");
  EXPECT_EQ(oob->byte_offset, kElems * sizeof(double));
  EXPECT_EQ(oob->bytes, sizeof(double));
  // Global id 15 = local id 7 of group 1.
  EXPECT_EQ(oob->group_id, 1u);
  EXPECT_EQ(oob->second.work_item, 7u);
  EXPECT_FALSE(oob->second.is_write);

  // The access was suppressed, not fatal: every work-item still stored,
  // and the suppressed load contributed 0.0.
  std::vector<double> result(kElems, -1.0);
  queue.read<double>(out, result);
  EXPECT_DOUBLE_EQ(result[kElems - 1], 1.0);
  EXPECT_DOUBLE_EQ(result[0], 2.0);
}

// ---------------------------------------------------------------------------
// Seeded bug 3: reading the shared local row before anyone wrote it.
// ---------------------------------------------------------------------------

TEST(AnalyzerSeededBugs, UninitializedLocalReadIsFlagged) {
  Device device = make_device();
  enable_analyzer(device);
  Context context(device);
  CommandQueue queue(context);
  Buffer& out = context.create_buffer_of<double>(8, MemFlags::kWriteOnly,
                                                 "out");

  Kernel kernel;
  kernel.name = "seeded_uninit_local";
  kernel.body = [](WorkItemCtx& ctx, const KernelArgs& args) -> WorkItemTask {
    auto out = ctx.global<double>(args.buffer(0));
    const std::size_t k = ctx.local_id();
    auto values = ctx.local_array<double>(ctx.local_size());
    // BUG: values[k] is read before the (forgotten) initialisation.
    const double v = values.get(k);
    co_await ctx.barrier();
    values.set(k, v + 1.0);
    co_await ctx.barrier();
    out.set(ctx.global_id(), values.get(k));
  };
  KernelArgs args;
  args.set(0, &out);
  queue.enqueue_ndrange(kernel, args, NDRange{8, 8});

  const an::HazardReport& report = device.hazard_report();
  ASSERT_GE(report.count(HazardKind::kLocalUninitRead), 1u);
  EXPECT_EQ(report.count(HazardKind::kLocalRaceReadWrite), 0u);
  const std::vector<Hazard> hazards = report.hazards();
  const Hazard* uninit = find_hazard(hazards, HazardKind::kLocalUninitRead);
  ASSERT_NE(uninit, nullptr);
  EXPECT_EQ(uninit->kernel, "seeded_uninit_local");
  EXPECT_EQ(uninit->resource, "local[0]");
  // Work-item 0 runs first and reads element 0.
  EXPECT_EQ(uninit->second.work_item, 0u);
  EXPECT_EQ(uninit->byte_offset, 0u);
}

// ---------------------------------------------------------------------------
// Seeded bug 4: barrier under work-item-dependent control flow. With the
// analyzer on this becomes a diagnostic (and the group is drained); with
// it off the executor keeps throwing as before.
// ---------------------------------------------------------------------------

Kernel make_divergent_barrier_kernel() {
  Kernel kernel;
  kernel.name = "seeded_divergent_barrier";
  kernel.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    // BUG: only the lower half of the group reaches the barrier.
    if (ctx.local_id() < ctx.local_size() / 2) co_await ctx.barrier();
  };
  return kernel;
}

TEST(AnalyzerSeededBugs, DivergentBarrierIsFlaggedNotThrown) {
  Device device = make_device();
  enable_analyzer(device);
  Context context(device);
  CommandQueue queue(context);

  KernelArgs args;
  EXPECT_NO_THROW(queue.enqueue_ndrange(make_divergent_barrier_kernel(), args,
                                        NDRange{8, 8}));

  const an::HazardReport& report = device.hazard_report();
  ASSERT_EQ(report.count(HazardKind::kBarrierDivergence), 1u);
  const std::vector<Hazard> hazards = report.hazards();
  const Hazard* div = find_hazard(hazards, HazardKind::kBarrierDivergence);
  ASSERT_NE(div, nullptr);
  EXPECT_EQ(div->kernel, "seeded_divergent_barrier");
  EXPECT_NE(div->message.find("4 work-item(s) reached a barrier"),
            std::string::npos)
      << div->message;
  EXPECT_NE(div->message.find("4 returned without it"), std::string::npos)
      << div->message;
}

TEST(AnalyzerSeededBugs, DivergentBarrierStillThrowsWithAnalyzerOff) {
  Device device("plain", DeviceKind::kFpga,
                DeviceLimits{16 * kMiB, 16 * 1024, 64, 1});
  Context context(device);
  CommandQueue queue(context);
  KernelArgs args;
  EXPECT_THROW(queue.enqueue_ndrange(make_divergent_barrier_kernel(), args,
                                     NDRange{8, 8}),
               Error);
}

// ---------------------------------------------------------------------------
// Dedup: the missing-barrier race fires once per level per option, but the
// report keeps one site with an occurrence counter.
// ---------------------------------------------------------------------------

TEST(AnalyzerReport, DeduplicatesByKindKernelResource) {
  Device device = make_device();
  enable_analyzer(device);
  Context context(device);
  CommandQueue queue(context);
  Buffer& results = context.create_buffer_of<double>(4, MemFlags::kWriteOnly,
                                                     "results");

  constexpr std::size_t kSteps = 8;
  KernelArgs args;
  args.set(0, &results);
  // Four groups, each racing on every level: many occurrences, one site.
  queue.enqueue_ndrange(make_missing_barrier_kernel(kSteps), args,
                        NDRange{4 * kSteps, kSteps});

  const an::HazardReport& report = device.hazard_report();
  EXPECT_EQ(report.count(HazardKind::kLocalRaceReadWrite), 1u);
  EXPECT_GT(report.total_occurrences(), report.size());
}

TEST(AnalyzerReport, MaxReportsCapsDistinctSitesButKeepsCounting) {
  an::HazardReport report(/*max_reports=*/2);
  for (int i = 0; i < 4; ++i) {
    Hazard hazard;
    hazard.kind = HazardKind::kGlobalOutOfBounds;
    hazard.kernel = "k";
    hazard.resource = "buf" + std::to_string(i);
    report.add(hazard);
  }
  // Only two full diagnostics are kept, but every distinct site and every
  // occurrence is still counted.
  EXPECT_EQ(report.hazards().size(), 2u);
  EXPECT_EQ(report.size(), 4u);
  EXPECT_EQ(report.total_occurrences(), 4u);
}

// ---------------------------------------------------------------------------
// Clean paper kernels: zero diagnostics under the analyzer with multiple
// compute units, and identical results/stats to an analyzer-off device.
// ---------------------------------------------------------------------------

TEST(AnalyzerCleanKernels, KernelAIsCleanOnMultipleComputeUnits) {
  Device device = make_device(/*compute_units=*/4, /*max_group=*/256);
  enable_analyzer(device);
  const auto options = finance::make_random_batch(6, /*seed=*/7);
  kernels::KernelAHostProgram program(device, {.steps = 32});
  const kernels::KernelAResult result = program.run(options);
  EXPECT_EQ(result.prices.size(), options.size());
  EXPECT_TRUE(device.hazard_report().empty())
      << device.hazard_report().to_string();
}

TEST(AnalyzerCleanKernels, KernelBIsCleanOnMultipleComputeUnits) {
  Device device = make_device(/*compute_units=*/4, /*max_group=*/256);
  enable_analyzer(device);
  const auto options = finance::make_random_batch(6, /*seed=*/7);
  kernels::KernelBHostProgram program(device, {.steps = 32});
  const kernels::KernelBResult result = program.run(options);
  EXPECT_EQ(result.prices.size(), options.size());
  EXPECT_TRUE(device.hazard_report().empty())
      << device.hazard_report().to_string();
}

TEST(AnalyzerCleanKernels, HostLeavesVariantIsClean) {
  Device device = make_device(/*compute_units=*/2, /*max_group=*/256);
  enable_analyzer(device);
  const auto options = finance::make_random_batch(4, /*seed=*/11);
  kernels::KernelBHostProgram program(
      device, {.steps = 16, .host_leaves = true});
  (void)program.run(options);
  EXPECT_TRUE(device.hazard_report().empty())
      << device.hazard_report().to_string();
}

TEST(AnalyzerCleanKernels, AnalyzerOnChangesNoPricesOrStats) {
  const auto options = finance::make_random_batch(5, /*seed=*/3);

  Device plain("plain", DeviceKind::kFpga,
               DeviceLimits{16 * kMiB, 16 * 1024, 256, 2});
  kernels::KernelBHostProgram off(plain, {.steps = 32});
  const kernels::KernelBResult r_off = off.run(options);

  Device analyzed = make_device(2, 256);
  enable_analyzer(analyzed);
  kernels::KernelBHostProgram on(analyzed, {.steps = 32});
  const kernels::KernelBResult r_on = on.run(options);

  ASSERT_EQ(r_off.prices.size(), r_on.prices.size());
  for (std::size_t i = 0; i < r_off.prices.size(); ++i) {
    EXPECT_EQ(r_off.prices[i], r_on.prices[i]);  // bit-identical
  }
  EXPECT_EQ(r_off.stats, r_on.stats);
}

// ---------------------------------------------------------------------------
// Static IR lint.
// ---------------------------------------------------------------------------

TEST(IrLint, CleanPaperIrsPass) {
  an::HazardReport report;
  EXPECT_EQ(an::lint_kernel_ir(kernels::kernel_a_ir(1024), report), 0u);
  EXPECT_EQ(an::lint_kernel_ir(kernels::kernel_b_ir(1024), report), 0u);
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(IrLint, IndexBoundPastDeclaredExtentIsFlagged) {
  fpga::KernelIR ir = kernels::kernel_b_ir(64);
  // Seed the classic off-by-one: the local-row load reaches element n+1
  // of an n+1-element row.
  for (fpga::AccessSite& site : ir.accesses) {
    if (site.space == fpga::MemSpace::kLocal && !site.is_store) {
      site.max_index = 65;  // declared words = 65 -> max legal index 64
      break;
    }
  }
  an::HazardReport report;
  EXPECT_EQ(an::lint_kernel_ir(ir, report), 1u);
  EXPECT_EQ(report.count(HazardKind::kStaticIndexOutOfBounds), 1u);
  const std::vector<Hazard> hazards = report.hazards();
  EXPECT_EQ(hazards[0].resource, "local[0]");
  EXPECT_EQ(hazards[0].byte_offset, 65u * 8u);
}

TEST(IrLint, GlobalIndexBoundIsCheckedAgainstDeclaredWords) {
  fpga::KernelIR ir = kernels::kernel_a_ir(16);
  // Pretend the deepest read reaches one past the ping-pong buffer.
  ir.accesses[3].max_index = ir.global_buffers[1].words;
  an::HazardReport report;
  EXPECT_EQ(an::lint_kernel_ir(ir, report), 1u);
  const std::vector<Hazard> hazards = report.hazards();
  EXPECT_EQ(hazards[0].kind, HazardKind::kStaticIndexOutOfBounds);
  EXPECT_EQ(hazards[0].resource, "V_read");
}

TEST(IrLint, DivergentBarrierSiteIsFlagged) {
  fpga::KernelIR ir = kernels::kernel_b_ir(64);
  ir.barriers[1].divergent = true;
  an::HazardReport report;
  EXPECT_EQ(an::lint_kernel_ir(ir, report), 1u);
  EXPECT_EQ(report.count(HazardKind::kStaticDivergentBarrier), 1u);
  EXPECT_EQ(report.hazards()[0].resource, "barrier#1");
}

TEST(IrLint, ValidateRejectsUndeclaredBufferReference) {
  fpga::KernelIR ir = kernels::kernel_b_ir(64);
  ir.accesses[0].buffer = 99;
  an::HazardReport report;
  EXPECT_THROW(an::lint_kernel_ir(ir, report), Error);
}

TEST(IrLint, UntypedSiteIsAnUnprovableErrorByDefault) {
  fpga::KernelIR ir = kernels::kernel_b_ir(64);
  fpga::AccessSite untyped;  // names no buffer, carries no bound
  ir.accesses.push_back(untyped);
  an::HazardReport report;
  EXPECT_EQ(an::lint_kernel_ir(ir, report), 1u);
  EXPECT_EQ(report.count(HazardKind::kStaticUnprovableSite), 1u);
  EXPECT_EQ(report.error_count(), 1u);
  const std::vector<Hazard> hazards = report.hazards();
  ASSERT_EQ(hazards.size(), 1u);
  EXPECT_NE(hazards[0].message.find("names no declared buffer"),
            std::string::npos)
      << hazards[0].message;
}

TEST(IrLint, MissingIndexBoundIsUnprovableAndDowngradable) {
  fpga::KernelIR ir = kernels::kernel_b_ir(64);
  fpga::AccessSite unbounded;
  unbounded.space = fpga::MemSpace::kLocal;
  unbounded.buffer = 0;
  unbounded.has_index_bound = false;  // buffer named, bound absent
  ir.accesses.push_back(unbounded);

  an::HazardReport report;
  an::LintOptions options;
  options.unprovable_severity = an::Severity::kWarning;
  EXPECT_EQ(an::lint_kernel_ir(ir, report, options), 1u);
  EXPECT_EQ(report.count(HazardKind::kStaticUnprovableSite), 1u);
  EXPECT_EQ(report.error_count(), 0u);  // warnings never fail --check
  const std::vector<Hazard> hazards = report.hazards();
  ASSERT_EQ(hazards.size(), 1u);
  const Hazard& hazard = hazards[0];
  EXPECT_NE(hazard.message.find("carries no index bound"), std::string::npos)
      << hazard.message;
  EXPECT_NE(hazard.to_string().find("[warning]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Host-side Buffer range checks (regression: descriptive errors instead of
// UB for bad enqueue offsets).
// ---------------------------------------------------------------------------

TEST(BufferRangeChecks, HostWritePastEndThrowsDescriptively) {
  Buffer buffer(64, MemFlags::kReadWrite, "rc_buf");
  std::vector<std::byte> payload(32);
  EXPECT_NO_THROW(buffer.write(32, payload));
  try {
    buffer.write(40, payload);
    FAIL() << "expected a range error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rc_buf"), std::string::npos) << what;
    EXPECT_NE(what.find("40"), std::string::npos) << what;
  }
}

TEST(BufferRangeChecks, HostReadPastEndThrows) {
  Buffer buffer(64, MemFlags::kReadWrite, "rc_buf");
  std::vector<std::byte> dst(65);
  EXPECT_THROW(buffer.read(0, dst), Error);
  EXPECT_THROW(buffer.read(64, std::span<std::byte>(dst.data(), 1)), Error);
  EXPECT_NO_THROW(buffer.read(0, std::span<std::byte>(dst.data(), 64)));
}

TEST(BufferRangeChecks, OffsetOverflowDoesNotWrapAround) {
  Buffer buffer(64, MemFlags::kReadWrite, "rc_buf");
  std::vector<std::byte> payload(16);
  EXPECT_THROW(buffer.write(static_cast<std::size_t>(-8), payload), Error);
}

TEST(BufferRangeChecks, QueueEnqueueChecksAtEnqueueTime) {
  Device device("plain", DeviceKind::kFpga,
                DeviceLimits{16 * kMiB, 16 * 1024, 64, 1});
  Context context(device);
  CommandQueue queue(context, QueueMode::kDeferred);
  Buffer& buffer = context.create_buffer_of<double>(8, MemFlags::kReadWrite,
                                                    "q_buf");
  std::vector<double> host(9, 0.0);
  // Deferred mode: the transfer would only run at finish(), but the range
  // error must surface at enqueue time.
  EXPECT_THROW(queue.write<double>(buffer, host), Error);
}

}  // namespace
}  // namespace binopt::ocl
