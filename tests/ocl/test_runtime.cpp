// Tests of the host-facing runtime objects: buffers, argument binding,
// contexts, queues, events, platform construction.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "ocl/buffer.h"
#include "ocl/context.h"
#include "ocl/platform.h"
#include "ocl/queue.h"

namespace binopt::ocl {
namespace {

TEST(Buffer, SizedAndNamed) {
  Buffer buffer(1024, MemFlags::kReadWrite, "scratch");
  EXPECT_EQ(buffer.size_bytes(), 1024u);
  EXPECT_EQ(buffer.count<double>(), 128u);
  EXPECT_EQ(buffer.name(), "scratch");
}

TEST(Buffer, RejectsEmpty) {
  EXPECT_THROW(Buffer(0, MemFlags::kReadWrite, "empty"), PreconditionError);
}

TEST(GlobalSpan, BoundsChecked) {
  Buffer buffer(4 * sizeof(double), MemFlags::kReadWrite, "b");
  RuntimeStats stats;
  GlobalSpan<double> view(buffer, stats);
  view.set(3, 7.0);
  EXPECT_DOUBLE_EQ(view.get(3), 7.0);
  EXPECT_THROW((void)view.get(4), PreconditionError);
  EXPECT_THROW(view.set(4, 0.0), PreconditionError);
}

TEST(GlobalSpan, EnforcesAccessFlags) {
  Buffer ro(64, MemFlags::kReadOnly, "ro");
  Buffer wo(64, MemFlags::kWriteOnly, "wo");
  RuntimeStats stats;
  GlobalSpan<double> ro_view(ro, stats);
  GlobalSpan<double> wo_view(wo, stats);
  EXPECT_THROW(ro_view.set(0, 1.0), PreconditionError);
  EXPECT_THROW((void)wo_view.get(0), PreconditionError);
  EXPECT_NO_THROW((void)ro_view.get(0));
  EXPECT_NO_THROW(wo_view.set(0, 1.0));
}

TEST(KernelArgs, TypedAccess) {
  Buffer buffer(64, MemFlags::kReadWrite, "b");
  KernelArgs args;
  args.set(0, &buffer);
  args.set(1, 2.5);
  args.set(2, static_cast<std::int64_t>(-7));
  args.set(3, static_cast<std::uint64_t>(99));
  EXPECT_EQ(&args.buffer(0), &buffer);
  EXPECT_DOUBLE_EQ(args.f64(1), 2.5);
  EXPECT_EQ(args.i64(2), -7);
  EXPECT_EQ(args.u64(3), 99u);
}

TEST(KernelArgs, TypeMismatchThrows) {
  KernelArgs args;
  args.set(0, 1.0);
  EXPECT_THROW((void)args.buffer(0), PreconditionError);
  EXPECT_THROW((void)args.i64(0), PreconditionError);
}

TEST(KernelArgs, UnboundSlotDetected) {
  KernelArgs args;
  args.set(0, 1.0);
  args.set(2, 2.0);  // slot 1 left unbound
  EXPECT_THROW(args.validate_complete(), PreconditionError);
  EXPECT_THROW((void)args.f64(1), PreconditionError);
  args.set(1, 3.0);
  EXPECT_NO_THROW(args.validate_complete());
}

TEST(Context, TracksGlobalAllocation) {
  Device device("d", DeviceKind::kCpu, DeviceLimits{1024, 256, 16});
  Context context(device);
  (void)context.create_buffer(512, MemFlags::kReadWrite, "a");
  EXPECT_EQ(context.allocated_bytes(), 512u);
  (void)context.create_buffer(512, MemFlags::kReadWrite, "b");
  EXPECT_THROW(
      (void)context.create_buffer(1, MemFlags::kReadWrite, "overflow"),
      PreconditionError);
  context.release_all();
  EXPECT_EQ(context.allocated_bytes(), 0u);
  EXPECT_NO_THROW((void)context.create_buffer(1024, MemFlags::kReadWrite, "c"));
}

TEST(CommandQueue, WriteReadRoundTrip) {
  Device device("d", DeviceKind::kCpu, DeviceLimits{4096, 256, 16});
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer = context.create_buffer_of<double>(8, MemFlags::kReadWrite, "b");

  const std::vector<double> src{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  queue.write<double>(buffer, src);
  std::vector<double> dst(8, 0.0);
  queue.read<double>(buffer, dst);
  EXPECT_EQ(src, dst);

  EXPECT_EQ(device.stats().host_to_device_bytes, 64u);
  EXPECT_EQ(device.stats().device_to_host_bytes, 64u);
  EXPECT_EQ(device.stats().host_transfers, 2u);
}

TEST(CommandQueue, OffsetTransfers) {
  Device device("d", DeviceKind::kCpu, DeviceLimits{4096, 256, 16});
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer = context.create_buffer_of<double>(4, MemFlags::kReadWrite, "b");
  const std::vector<double> two{9.0, 8.0};
  queue.write<double>(buffer, two, /*offset_elems=*/2);
  std::vector<double> out(2, 0.0);
  queue.read<double>(buffer, out, /*offset_elems=*/2);
  EXPECT_EQ(out, two);
}

TEST(CommandQueue, OverrunsRejected) {
  Device device("d", DeviceKind::kCpu, DeviceLimits{4096, 256, 16});
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer = context.create_buffer_of<double>(4, MemFlags::kReadWrite, "b");
  std::vector<double> five(5, 0.0);
  EXPECT_THROW(queue.write<double>(buffer, five), PreconditionError);
  EXPECT_THROW(queue.read<double>(buffer, five), PreconditionError);
}

TEST(CommandQueue, EventsLogCommands) {
  Device device("d", DeviceKind::kCpu, DeviceLimits{4096, 256, 16});
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer = context.create_buffer_of<double>(4, MemFlags::kReadWrite, "b");
  const std::vector<double> data(4, 1.0);
  queue.write<double>(buffer, data);

  Kernel kernel;
  kernel.name = "noop";
  kernel.body = [](WorkItemCtx&, const KernelArgs&) -> WorkItemTask {
    co_return;
  };
  KernelArgs args;
  queue.enqueue_ndrange(kernel, args, NDRange{4, 2});

  ASSERT_EQ(queue.events().size(), 2u);
  EXPECT_EQ(queue.events()[0].kind, CommandKind::kWriteBuffer);
  EXPECT_EQ(queue.events()[0].bytes, 32u);
  EXPECT_EQ(queue.events()[1].kind, CommandKind::kNDRangeKernel);
  EXPECT_EQ(queue.events()[1].work_items, 4u);
  EXPECT_EQ(queue.events()[1].work_groups, 2u);
  EXPECT_LT(queue.events()[0].sequence, queue.events()[1].sequence);
}

TEST(Platform, ReferencePlatformHasThreePaperDevices) {
  auto platform = Platform::make_reference_platform();
  EXPECT_EQ(platform->device_count(), 3u);
  EXPECT_EQ(platform->device_by_kind(DeviceKind::kCpu).kind(), DeviceKind::kCpu);
  EXPECT_EQ(platform->device_by_kind(DeviceKind::kGpu).kind(), DeviceKind::kGpu);
  EXPECT_EQ(platform->device_by_kind(DeviceKind::kFpga).kind(),
            DeviceKind::kFpga);
  // GPU local memory matches the paper's 48 KiB L1-as-local.
  EXPECT_EQ(platform->device_by_kind(DeviceKind::kGpu).limits().local_mem_bytes,
            48u * 1024u);
  // Work-groups of 1024 (N = 1024 trees) must be possible everywhere.
  for (std::size_t i = 0; i < platform->device_count(); ++i) {
    EXPECT_GE(platform->device(i).limits().max_workgroup_size, 1024u);
  }
}

TEST(Platform, MissingKindThrows) {
  Platform platform("empty");
  EXPECT_THROW((void)platform.device_by_kind(DeviceKind::kFpga),
               PreconditionError);
  EXPECT_THROW((void)platform.device(0), PreconditionError);
}

TEST(Device, StatsResettable) {
  Device device("d", DeviceKind::kCpu, DeviceLimits{4096, 256, 16});
  device.stats().host_transfers = 5;
  device.reset_stats();
  EXPECT_EQ(device.stats().host_transfers, 0u);
}

TEST(RuntimeStats, MinusComputesDeltas) {
  RuntimeStats before;
  before.global_load_bytes = 100;
  RuntimeStats after;
  after.global_load_bytes = 250;
  after.kernels_enqueued = 3;
  const RuntimeStats d = after.minus(before);
  EXPECT_EQ(d.global_load_bytes, 150u);
  EXPECT_EQ(d.kernels_enqueued, 3u);
}

TEST(RuntimeStats, XMacroRoundTripCoversEveryCounter) {
  // Set a distinct value on every counter through the visitor, then check
  // that +=, minus(), reset(), and operator== all observe every field.
  // A counter missing from BINOPT_RUNTIME_STATS_COUNTERS would break one
  // of these round-trips.
  RuntimeStats a;
  std::uint64_t next = 1;
  a.for_each_counter([&](const char*, std::uint64_t& v) { v = next++; });
  const std::uint64_t fields = next - 1;
  EXPECT_EQ(fields, 11u) << "update this test when adding a counter";

  RuntimeStats doubled = a;
  doubled += a;
  std::uint64_t expect = 1;
  doubled.for_each_counter([&](const char* name, std::uint64_t& v) {
    EXPECT_EQ(v, 2 * expect) << name;
    ++expect;
  });

  EXPECT_EQ(doubled.minus(a), a);  // 2a - a == a, counter-wise

  RuntimeStats cleared = a;
  cleared.reset();
  EXPECT_EQ(cleared, RuntimeStats{});
  EXPECT_NE(a, RuntimeStats{});
}

TEST(RuntimeStats, CounterNamesUniqueAndPresentInToString) {
  RuntimeStats s;
  s.kernels_enqueued = 1;
  const std::string text = s.to_string();
  std::set<std::string> names;
  s.for_each_counter([&](const char* name, std::uint64_t&) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate counter " << name;
  });
  EXPECT_EQ(names.size(), 11u);
  // Spot-check that the human-readable dump talks about the same counters.
  EXPECT_NE(text.find("kernels=1"), std::string::npos) << text;
}

}  // namespace
}  // namespace binopt::ocl
