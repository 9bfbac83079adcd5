// Stress and scale tests for the execution engine: paper-scale work-group
// widths (1024 work-items, the N = 1024 tree row), deep barrier loops,
// frame-arena reuse across thousands of groups, and exception hygiene when
// a work-item dies mid-barrier-phase.
#include <gtest/gtest.h>

#include <vector>

#include "ocl/platform.h"
#include "ocl/workgroup_executor.h"

namespace binopt::ocl {
namespace {

TEST(ExecutorStress, PaperScaleWorkGroupOf1024WithBarriers) {
  WorkGroupExecutor executor(32 * 1024, 1024);
  RuntimeStats stats;
  // Rotating neighbour sum across 8 barrier phases at full width.
  std::vector<double> result(1024, 0.0);
  Kernel kernel;
  kernel.name = "wide_group";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    const std::size_t n = ctx.local_size();
    auto row = ctx.local_array<double>(n);
    double acc = static_cast<double>(ctx.local_id());
    for (int phase = 0; phase < 8; ++phase) {
      row.set(ctx.local_id(), acc);
      co_await ctx.barrier();
      acc = row.get((ctx.local_id() + 1) % n);
      co_await ctx.barrier();
    }
    result[ctx.local_id()] = acc;
  };
  KernelArgs args;
  executor.execute(kernel, args, NDRange{1024, 1024}, stats);
  // After 8 rotations each item holds the id 8 positions ahead.
  for (std::size_t i = 0; i < 1024; ++i) {
    EXPECT_DOUBLE_EQ(result[i], static_cast<double>((i + 8) % 1024));
  }
  EXPECT_EQ(stats.barriers_executed, 1024u * 16u);
}

TEST(ExecutorStress, ThousandsOfGroupsReuseTheFiberPool) {
  WorkGroupExecutor executor(16 * 1024, 64);
  RuntimeStats stats;
  std::size_t count = 0;
  Kernel kernel;
  kernel.name = "many_groups";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    co_await ctx.barrier();  // every group parks its frames once
    if (ctx.local_id() == 0) ++count;
  };
  KernelArgs args;
  executor.execute(kernel, args, NDRange{4000 * 8, 8}, stats);
  EXPECT_EQ(count, 4000u);
  EXPECT_EQ(stats.work_groups_executed, 4000u);
}

TEST(ExecutorStress, DeepBarrierLoopSurvives) {
  WorkGroupExecutor executor(16 * 1024, 16);
  RuntimeStats stats;
  Kernel kernel;
  kernel.name = "deep_loop";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    for (int i = 0; i < 2000; ++i) co_await ctx.barrier();
  };
  KernelArgs args;
  executor.execute(kernel, args, NDRange{16, 16}, stats);
  EXPECT_EQ(stats.barriers_executed, 16u * 2000u);
}

TEST(ExecutorStress, ExceptionMidPhaseLeavesTheSameExecutorReusable) {
  WorkGroupExecutor executor(16 * 1024, 8);
  RuntimeStats stats;
  Kernel bad;
  bad.name = "dies_after_barrier";
  bad.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    co_await ctx.barrier();
    if (ctx.local_id() == 3) throw PreconditionError("boom");
    co_await ctx.barrier();
  };
  KernelArgs args;
  EXPECT_THROW(executor.execute(bad, args, NDRange{8, 8}, stats),
               PreconditionError);

  // The failed group's frames are destroyed, not resumed, so the SAME
  // executor (and therefore the Device that owns it) keeps working.
  Kernel good;
  good.name = "fine";
  std::size_t ran = 0;
  good.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    co_await ctx.barrier();
    ++ran;
  };
  EXPECT_NO_THROW(executor.execute(good, args, NDRange{8, 8}, stats));
  EXPECT_EQ(ran, 8u);
}

TEST(ExecutorStress, DivergenceErrorAlsoLeavesExecutorReusable) {
  WorkGroupExecutor executor(16 * 1024, 4);
  RuntimeStats stats;
  Kernel divergent;
  divergent.name = "divergent";
  divergent.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    if (ctx.local_id() == 0) co_await ctx.barrier();
  };
  KernelArgs args;
  EXPECT_THROW(executor.execute(divergent, args, NDRange{4, 4}, stats),
               PreconditionError);
  Kernel good;
  good.name = "fine";
  good.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    co_await ctx.barrier();
  };
  EXPECT_NO_THROW(executor.execute(good, args, NDRange{4, 4}, stats));
}

TEST(ExecutorStress, LocalArenaIsReusedAcrossGroupsWithoutBleed) {
  // Group g writes g-dependent data; each group must see only its own
  // writes within a phase (values are re-initialised before reads).
  WorkGroupExecutor executor(16 * 1024, 4);
  RuntimeStats stats;
  std::vector<double> sums(50, 0.0);
  Kernel kernel;
  kernel.name = "arena_reuse";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    auto row = ctx.local_array<double>(4);
    row.set(ctx.local_id(), static_cast<double>(ctx.group_id() + 1));
    co_await ctx.barrier();
    if (ctx.local_id() == 0) {
      double sum = 0.0;
      for (std::size_t i = 0; i < 4; ++i) sum += row.get(i);
      sums[ctx.group_id()] = sum;
    }
  };
  KernelArgs args;
  executor.execute(kernel, args, NDRange{200, 4}, stats);
  for (std::size_t g = 0; g < 50; ++g) {
    EXPECT_DOUBLE_EQ(sums[g], 4.0 * static_cast<double>(g + 1)) << "group " << g;
  }
}

}  // namespace
}  // namespace binopt::ocl
