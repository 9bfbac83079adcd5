// Execution-model tests: NDRange ids, barrier semantics (the property the
// whole kernel IV.B reproduction rests on), local memory discipline,
// divergence and unawaited-barrier detection, and exception hygiene of the
// coroutine work-items.
#include "ocl/workgroup_executor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ocl/buffer.h"

namespace binopt::ocl {
namespace {

class ExecutorTest : public ::testing::Test {
protected:
  WorkGroupExecutor executor_{/*local_mem_bytes=*/16 * 1024,
                              /*max_workgroup_size=*/256};
  RuntimeStats stats_;
};

TEST_F(ExecutorTest, IdsAreConsistent) {
  std::vector<int> seen(24, 0);
  Kernel kernel;
  kernel.name = "ids";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    EXPECT_EQ(ctx.global_id(), ctx.group_id() * ctx.local_size() + ctx.local_id());
    EXPECT_EQ(ctx.local_size(), 8u);
    EXPECT_EQ(ctx.global_size(), 24u);
    EXPECT_EQ(ctx.num_groups(), 3u);
    ++seen[ctx.global_id()];
    co_return;
  };
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{24, 8}, stats_);
  for (int count : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(stats_.work_items_executed, 24u);
  EXPECT_EQ(stats_.work_groups_executed, 3u);
  EXPECT_EQ(stats_.kernels_enqueued, 1u);
}

TEST_F(ExecutorTest, BarrierMakesLocalWritesVisible) {
  // Work-item i writes slot i, then after a barrier reads neighbour i+1.
  // Without real barrier semantics the read would see stale data.
  std::vector<double> observed(16, -1.0);
  Kernel kernel;
  kernel.name = "neighbour_exchange";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    auto row = ctx.local_array<double>(ctx.local_size());
    row.set(ctx.local_id(), static_cast<double>(ctx.local_id()) * 10.0);
    co_await ctx.barrier();
    const std::size_t next = (ctx.local_id() + 1) % ctx.local_size();
    observed[ctx.global_id()] = row.get(next);
  };
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{16, 16}, stats_);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(observed[i], static_cast<double>((i + 1) % 16) * 10.0);
  }
  EXPECT_EQ(stats_.barriers_executed, 16u);
}

TEST_F(ExecutorTest, MultiPhaseBarrierPipeline) {
  // Parallel reduction across 3 barrier phases — each phase must observe
  // the previous phase's local stores from every work-item.
  double result = 0.0;
  Kernel kernel;
  kernel.name = "reduction";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    const std::size_t n = ctx.local_size();
    auto scratch = ctx.local_array<double>(n);
    scratch.set(ctx.local_id(), static_cast<double>(ctx.local_id() + 1));
    co_await ctx.barrier();
    for (std::size_t stride = n / 2; stride > 0; stride /= 2) {
      if (ctx.local_id() < stride) {
        scratch.set(ctx.local_id(), scratch.get(ctx.local_id()) +
                                        scratch.get(ctx.local_id() + stride));
      }
      co_await ctx.barrier();
    }
    if (ctx.local_id() == 0) result = scratch.get(0);
  };
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{8, 8}, stats_);
  EXPECT_DOUBLE_EQ(result, 36.0);  // 1+...+8
}

TEST_F(ExecutorTest, BarrierDivergenceIsDetected) {
  Kernel kernel;
  kernel.name = "divergent";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    // Only one item synchronises.
    if (ctx.local_id() == 0) co_await ctx.barrier();
  };
  KernelArgs args;
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{4, 4}, stats_),
               PreconditionError);
}

TEST_F(ExecutorTest, MismatchedBarrierCountsAreDetected) {
  Kernel kernel;
  kernel.name = "count_mismatch";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    co_await ctx.barrier();
    // Extra barrier on one item.
    if (ctx.local_id() == 0) co_await ctx.barrier();
  };
  KernelArgs args;
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{4, 4}, stats_),
               PreconditionError);
}

TEST_F(ExecutorTest, LocalAllocationSharedAcrossGroup) {
  Kernel kernel;
  kernel.name = "shared_alloc";
  std::vector<double> sums(2, 0.0);
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    auto a = ctx.local_array<double>(4);
    a.set(ctx.local_id(), 1.0);
    co_await ctx.barrier();
    if (ctx.local_id() == 0) {
      double sum = 0.0;
      for (std::size_t i = 0; i < 4; ++i) sum += a.get(i);
      sums[ctx.group_id()] = sum;
    }
  };
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{8, 4}, stats_);
  EXPECT_DOUBLE_EQ(sums[0], 4.0);
  EXPECT_DOUBLE_EQ(sums[1], 4.0);
}

TEST_F(ExecutorTest, DivergentLocalAllocationSizeThrows) {
  Kernel kernel;
  kernel.name = "divergent_alloc";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    // Different sizes per work-item: illegal static local allocation.
    auto a = ctx.local_array<double>(ctx.local_id() + 1);
    (void)a;
    co_await ctx.barrier();
  };
  KernelArgs args;
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{4, 4}, stats_),
               PreconditionError);
}

TEST_F(ExecutorTest, LocalMemoryExhaustionThrows) {
  Kernel kernel;
  kernel.name = "oom";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    auto a = ctx.local_array<double>(16 * 1024);  // 128 KiB > 16 KiB arena
    (void)a;
    co_return;
  };
  KernelArgs args;
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{1, 1}, stats_),
               PreconditionError);
}

TEST_F(ExecutorTest, FastPathRunsBarrierFreeKernels) {
  // A barrier-free body is a coroutine that never suspends: one pass.
  Kernel kernel;
  kernel.name = "fast";
  std::size_t count = 0;
  kernel.body = [&](WorkItemCtx&, const KernelArgs&) -> WorkItemTask {
    ++count;
    co_return;
  };
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{64, 16}, stats_);
  EXPECT_EQ(count, 64u);
  EXPECT_EQ(stats_.work_items_executed, 64u);
}

TEST_F(ExecutorTest, UnawaitedBarrierThrows) {
  // barrier() only marks the item as arrived; without co_await the item
  // runs on. The executor catches it when the item finishes, or calls
  // barrier() again, while still marked, and names the kernel.
  Kernel finishes;
  finishes.name = "unawaited_then_return";
  finishes.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    (void)ctx.barrier();
    co_return;
  };
  Kernel again;
  again.name = "unawaited_then_barrier";
  again.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    (void)ctx.barrier();
    co_await ctx.barrier();
  };
  KernelArgs args;
  for (const Kernel* kernel : {&finishes, &again}) {
    try {
      executor_.execute(*kernel, args, NDRange{4, 4}, stats_);
      ADD_FAILURE() << kernel->name << " did not throw";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(kernel->name), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ExecutorTest, ValidatesNDRange) {
  Kernel kernel;
  kernel.name = "k";
  kernel.body = [](WorkItemCtx&, const KernelArgs&) -> WorkItemTask {
    co_return;
  };
  KernelArgs args;
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{10, 3}, stats_),
               PreconditionError);  // local does not divide global
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{512, 512}, stats_),
               PreconditionError);  // exceeds max work-group size
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{0, 1}, stats_),
               PreconditionError);  // empty
}

TEST_F(ExecutorTest, KernelExceptionsPropagate) {
  Kernel kernel;
  kernel.name = "thrower";
  kernel.body = [](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    if (ctx.global_id() == 3) throw PreconditionError("kernel bug");
    co_await ctx.barrier();
  };
  KernelArgs args;
  EXPECT_THROW(executor_.execute(kernel, args, NDRange{8, 8}, stats_),
               PreconditionError);
}

TEST_F(ExecutorTest, ExceptionBeforeFirstBarrierPropagates) {
  // Item 0 throws on its first resume: no sibling starts, the error
  // reaches the caller unchanged, and the executor stays usable.
  std::size_t started = 0;
  Kernel kernel;
  kernel.name = "early_thrower";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    ++started;
    if (ctx.local_id() == 0) throw InvariantError("early boom");
    co_await ctx.barrier();
  };
  KernelArgs args;
  try {
    executor_.execute(kernel, args, NDRange{8, 8}, stats_);
    ADD_FAILURE() << "no exception";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("early boom"), std::string::npos);
  }
  EXPECT_EQ(started, 1u);
  EXPECT_EQ(stats_.work_groups_executed, 0u);
}

TEST_F(ExecutorTest, ThrowAfterBarrierDestroysEverySiblingOnce) {
  // Item 3 throws in the second phase. Every item's RAII guard must be
  // destroyed exactly once (the thrower's by unwinding, the parked and the
  // parked siblings' by frame destruction), and the same executor
  // must then run the next kernel.
  constexpr std::size_t kItems = 8;
  std::vector<int> constructed(kItems, 0);
  std::vector<int> destroyed(kItems, 0);
  struct Guard {
    int* count;
    ~Guard() { ++*count; }
  };
  Kernel bad;
  bad.name = "dies_after_barrier";
  bad.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    const Guard guard{&destroyed[ctx.local_id()]};
    ++constructed[ctx.local_id()];
    co_await ctx.barrier();
    if (ctx.local_id() == 3) throw PreconditionError("boom");
    co_await ctx.barrier();
  };
  KernelArgs args;
  EXPECT_THROW(executor_.execute(bad, args, NDRange{kItems, kItems}, stats_),
               PreconditionError);
  EXPECT_EQ(constructed, std::vector<int>(kItems, 1));
  EXPECT_EQ(destroyed, std::vector<int>(kItems, 1));

  std::size_t ran = 0;
  Kernel good;
  good.name = "fine";
  good.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    co_await ctx.barrier();
    ++ran;
  };
  executor_.execute(good, args, NDRange{2 * kItems, kItems}, stats_);
  EXPECT_EQ(ran, 2 * kItems);
}

TEST_F(ExecutorTest, GlobalAccessorsCountTraffic) {
  Buffer buffer(8 * sizeof(double), MemFlags::kReadWrite, "buf");
  Kernel kernel;
  kernel.name = "traffic";
  kernel.body = [&](WorkItemCtx& ctx, const KernelArgs&) -> WorkItemTask {
    auto view = ctx.global<double>(buffer);
    view.set(ctx.global_id(), 1.5);
    (void)view.get(ctx.global_id());
    co_return;
  };
  KernelArgs args;
  executor_.execute(kernel, args, NDRange{8, 8}, stats_);
  EXPECT_EQ(stats_.global_store_bytes, 8u * sizeof(double));
  EXPECT_EQ(stats_.global_load_bytes, 8u * sizeof(double));
}

}  // namespace
}  // namespace binopt::ocl
