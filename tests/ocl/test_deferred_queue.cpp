// Deferred-queue semantics: non-blocking enqueues execute at finish(),
// in order — the OpenCL behaviour the paper's host exploits to overlap
// memory operations with kernel batches.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ocl/context.h"
#include "ocl/queue.h"

namespace binopt::ocl {
namespace {

class DeferredQueueTest : public ::testing::Test {
protected:
  DeferredQueueTest()
      : device_("d", DeviceKind::kFpga, DeviceLimits{1 << 20, 4096, 64}),
        context_(device_),
        queue_(context_, QueueMode::kDeferred) {}

  Device device_;
  Context context_;
  CommandQueue queue_;
};

TEST_F(DeferredQueueTest, WritesLandOnlyAtFinish) {
  Buffer& buffer =
      context_.create_buffer_of<double>(4, MemFlags::kReadWrite, "b");
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0};
  const EventId event = queue_.write<double>(buffer, data);
  EXPECT_FALSE(queue_.event(event).completed);
  EXPECT_EQ(queue_.pending_commands(), 1u);
  EXPECT_EQ(device_.stats().host_to_device_bytes, 0u);  // nothing moved

  queue_.finish();
  EXPECT_EQ(queue_.pending_commands(), 0u);
  EXPECT_EQ(device_.stats().host_to_device_bytes, 32u);
  EXPECT_TRUE(queue_.events()[0].completed);
}

TEST_F(DeferredQueueTest, ReadSpanFilledAtFinishNotBefore) {
  Buffer& buffer =
      context_.create_buffer_of<double>(2, MemFlags::kReadWrite, "b");
  const std::vector<double> data{7.0, 9.0};
  queue_.write<double>(buffer, data);
  std::vector<double> out(2, -1.0);
  queue_.read<double>(buffer, out);
  EXPECT_DOUBLE_EQ(out[0], -1.0);  // still untouched
  queue_.finish();
  EXPECT_DOUBLE_EQ(out[0], 7.0);
  EXPECT_DOUBLE_EQ(out[1], 9.0);
}

TEST_F(DeferredQueueTest, CommandsExecuteInEnqueueOrder) {
  Buffer& buffer =
      context_.create_buffer_of<double>(1, MemFlags::kReadWrite, "b");
  const std::vector<double> first{1.0};
  const std::vector<double> second{2.0};
  std::vector<double> out(1, 0.0);
  queue_.write<double>(buffer, first);
  queue_.write<double>(buffer, second);  // must win: enqueued later
  queue_.read<double>(buffer, out);
  queue_.finish();
  EXPECT_DOUBLE_EQ(out[0], 2.0);
}

TEST_F(DeferredQueueTest, KernelRunsAtFinishWithCapturedArgs) {
  Buffer& buffer =
      context_.create_buffer_of<double>(8, MemFlags::kReadWrite, "b");
  Kernel kernel;
  kernel.name = "fill";
  kernel.body = [&buffer](WorkItemCtx& ctx,
                          const KernelArgs& args) -> WorkItemTask {
    auto view = ctx.global<double>(args.buffer(0));
    view.set(ctx.global_id(), args.f64(1));
    co_return;
  };
  KernelArgs args;
  args.set(0, &buffer);
  args.set(1, 5.0);
  queue_.enqueue_ndrange(kernel, args, NDRange{8, 8});
  // Rebinding after enqueue must NOT affect the queued command (args are
  // captured by value, clSetKernelArg semantics).
  args.set(1, 99.0);
  EXPECT_EQ(device_.stats().kernels_enqueued, 0u);

  std::vector<double> out(8, 0.0);
  queue_.read<double>(buffer, out);
  queue_.finish();
  for (double v : out) EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST_F(DeferredQueueTest, ValidationStillHappensAtEnqueueTime) {
  Buffer& buffer =
      context_.create_buffer_of<double>(2, MemFlags::kReadWrite, "b");
  std::vector<double> too_big(3, 0.0);
  EXPECT_THROW(queue_.write<double>(buffer, too_big), PreconditionError);
  EXPECT_EQ(queue_.pending_commands(), 0u);  // rejected, not queued
}

TEST_F(DeferredQueueTest, ClearEventsRefusesWhilePending) {
  Buffer& buffer =
      context_.create_buffer_of<double>(1, MemFlags::kReadWrite, "b");
  const std::vector<double> data{1.0};
  queue_.write<double>(buffer, data);
  EXPECT_THROW(queue_.clear_events(), PreconditionError);
  queue_.finish();
  EXPECT_NO_THROW(queue_.clear_events());
}

// --- Failure path: a throwing deferred command must not poison the queue.

TEST_F(DeferredQueueTest, ThrowingCommandDrainsQueueAndMarksPrefix) {
  Buffer& buffer =
      context_.create_buffer_of<double>(4, MemFlags::kReadWrite, "b");
  const std::vector<double> first{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> second{9.0, 9.0, 9.0, 9.0};

  Kernel bad;
  bad.name = "thrower";
  bad.body = [](WorkItemCtx&, const KernelArgs&) -> WorkItemTask {
    throw InvariantError("deferred boom");
    co_return;
  };

  queue_.write<double>(buffer, first);                   // event 0: succeeds
  queue_.enqueue_ndrange(bad, KernelArgs{}, NDRange{4, 4});  // event 1: throws
  queue_.write<double>(buffer, second);                  // event 2: never runs
  EXPECT_EQ(queue_.pending_commands(), 3u);

  EXPECT_THROW(queue_.finish(), InvariantError);

  // Drained, not stuck: nothing pending, and `completed` flags reflect
  // exactly what executed — the prefix before the failure.
  EXPECT_EQ(queue_.pending_commands(), 0u);
  EXPECT_TRUE(queue_.events()[0].completed);
  EXPECT_FALSE(queue_.events()[1].completed);
  EXPECT_FALSE(queue_.events()[2].completed);
  // The write after the failure was dropped, so only `first` moved.
  EXPECT_EQ(device_.stats().host_to_device_bytes, 32u);
}

TEST_F(DeferredQueueTest, NoDoubleExecutionOnNextFinish) {
  Buffer& buffer =
      context_.create_buffer_of<double>(1, MemFlags::kReadWrite, "b");
  const std::vector<double> data{5.0};

  Kernel bad;
  bad.name = "thrower";
  bad.body = [](WorkItemCtx&, const KernelArgs&) -> WorkItemTask {
    throw InvariantError("deferred boom");
    co_return;
  };

  queue_.write<double>(buffer, data);
  queue_.enqueue_ndrange(bad, KernelArgs{}, NDRange{1, 1});
  EXPECT_THROW(queue_.finish(), InvariantError);
  const std::uint64_t bytes_after_failure =
      device_.stats().host_to_device_bytes;
  const std::uint64_t kernels_after_failure =
      device_.stats().kernels_enqueued;

  // A second finish() must be a no-op: the failed command must not be
  // retried and the successful write must not execute twice.
  EXPECT_NO_THROW(queue_.finish());
  EXPECT_EQ(device_.stats().host_to_device_bytes, bytes_after_failure);
  EXPECT_EQ(device_.stats().kernels_enqueued, kernels_after_failure);
}

TEST_F(DeferredQueueTest, QueueReusableAfterFailedFinish) {
  Buffer& buffer =
      context_.create_buffer_of<double>(2, MemFlags::kReadWrite, "b");
  const std::vector<double> data{7.0, 8.0};

  Kernel bad;
  bad.name = "thrower";
  bad.body = [](WorkItemCtx&, const KernelArgs&) -> WorkItemTask {
    throw InvariantError("deferred boom");
    co_return;
  };
  queue_.enqueue_ndrange(bad, KernelArgs{}, NDRange{2, 2});
  EXPECT_THROW(queue_.finish(), InvariantError);

  // Fresh commands enqueue and run normally on the same queue.
  queue_.write<double>(buffer, data);
  std::vector<double> out(2, 0.0);
  queue_.read<double>(buffer, out);
  queue_.finish();
  EXPECT_DOUBLE_EQ(out[0], 7.0);
  EXPECT_DOUBLE_EQ(out[1], 8.0);
  // And clear_events() works again once nothing is pending.
  EXPECT_NO_THROW(queue_.clear_events());
}

TEST(ImmediateQueue, StillExecutesEagerly) {
  Device device("d", DeviceKind::kCpu, DeviceLimits{4096, 256, 16});
  Context context(device);
  CommandQueue queue(context);  // default immediate
  Buffer& buffer = context.create_buffer_of<double>(1, MemFlags::kReadWrite, "b");
  const std::vector<double> data{3.0};
  const EventId event = queue.write<double>(buffer, data);
  EXPECT_TRUE(queue.event(event).completed);
  EXPECT_EQ(queue.pending_commands(), 0u);
  EXPECT_EQ(device.stats().host_to_device_bytes, 8u);
}

}  // namespace
}  // namespace binopt::ocl
