// Event handles, the bounded event log, profiling timestamps, and the
// tracing layer (DESIGN.md §2.4).
//
// The two regression suites at the top pin the event-plumbing bugfixes:
// enqueue_* used to return an Event& into a std::vector that the next
// enqueue could reallocate (a dangling reference — the EventHandles tests
// run under ASan in CI), and nothing ever bounded the log, so a
// long-running service leaked memory linearly in requests.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ocl/context.h"
#include "ocl/device.h"
#include "ocl/queue.h"
#include "ocl/trace/tracer.h"

namespace binopt::ocl {
namespace {

Device make_device(std::size_t compute_units = 1) {
  return Device("d", DeviceKind::kCpu,
                DeviceLimits{1 << 20, 4096, 64, compute_units});
}

/// A kernel that writes global_id * scale into its output buffer — cheap,
/// deterministic, and its result detects any execution divergence.
Kernel make_scale_kernel(double scale = 1.0) {
  Kernel kernel;
  kernel.name = "scale";
  kernel.body = [scale](WorkItemCtx& ctx,
                        const KernelArgs& args) -> WorkItemTask {
    auto out = ctx.global<double>(args.buffer(0));
    out.set(ctx.global_id(), static_cast<double>(ctx.global_id()) * scale);
    co_return;
  };
  return kernel;
}

// ---------------------------------------------------------------------------
// Bugfix 1: handles must survive log reallocation and retirement.

TEST(EventHandles, SurviveThousandsOfEnqueues) {
  Device device = make_device();
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer =
      context.create_buffer_of<double>(8, MemFlags::kReadWrite, "b");
  const std::vector<double> data(8, 1.0);

  // Hold the first command's handle across >1000 further enqueues. With
  // the old Event&-into-vector API this dereferenced freed memory as soon
  // as the vector grew (caught by ASan); a handle stays valid for as long
  // as the event is retained.
  const EventId first = queue.write<double>(buffer, data);
  for (int i = 0; i < 1500; ++i) queue.write<double>(buffer, data);

  ASSERT_TRUE(queue.has_event(first));
  const Event& event = queue.event(first);
  EXPECT_EQ(event.sequence, 0u);
  EXPECT_EQ(event.kind, CommandKind::kWriteBuffer);
  EXPECT_EQ(event.label, "b");
  EXPECT_EQ(event.bytes, 64u);
  EXPECT_TRUE(event.completed);
  EXPECT_EQ(queue.events_recorded(), 1501u);
}

TEST(EventHandles, RetiredHandleReportsRetirementInsteadOfDangling) {
  Device device = make_device();
  Context context(device);
  CommandQueue queue(context);
  queue.set_event_log_capacity(16);
  Buffer& buffer =
      context.create_buffer_of<double>(1, MemFlags::kReadWrite, "b");
  const std::vector<double> data(1, 1.0);

  const EventId first = queue.write<double>(buffer, data);
  for (int i = 0; i < 100; ++i) queue.write<double>(buffer, data);

  EXPECT_FALSE(queue.has_event(first));
  EXPECT_THROW((void)queue.event(first), PreconditionError);
  // A handle never issued by this queue is rejected too.
  EXPECT_THROW((void)queue.event(EventId{999999}), PreconditionError);
  // Recent handles still resolve.
  const EventId last = queue.write<double>(buffer, data);
  EXPECT_TRUE(queue.has_event(last));
  EXPECT_TRUE(queue.event(last).completed);
}

// ---------------------------------------------------------------------------
// Bugfix 2: the log is a bounded ring; long sessions stay flat.

TEST(EventLog, BoundedAcrossBatches) {
  Device device = make_device();
  Context context(device);
  CommandQueue queue(context);
  queue.set_event_log_capacity(64);
  Buffer& buffer =
      context.create_buffer_of<double>(4, MemFlags::kReadWrite, "b");
  const std::vector<double> data(4, 2.0);
  std::vector<double> out(4, 0.0);

  // 100 "batches" of 10 commands each, the service's reuse pattern.
  for (int batch = 0; batch < 100; ++batch) {
    for (int i = 0; i < 5; ++i) {
      queue.write<double>(buffer, data);
      queue.read<double>(buffer, out);
    }
  }
  EXPECT_LE(queue.events().size(), 64u);
  EXPECT_EQ(queue.events_recorded(), 1000u);
  EXPECT_EQ(queue.events_retired(),
            queue.events_recorded() - queue.events().size());
  // Aggregate traffic counters survive retirement untouched.
  EXPECT_EQ(device.stats().host_transfers, 1000u);
}

TEST(EventLog, ShrinkingCapacityRetiresImmediately) {
  Device device = make_device();
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer =
      context.create_buffer_of<double>(1, MemFlags::kReadWrite, "b");
  const std::vector<double> data(1, 1.0);
  for (int i = 0; i < 32; ++i) queue.write<double>(buffer, data);
  EXPECT_EQ(queue.events().size(), 32u);
  queue.set_event_log_capacity(8);
  EXPECT_EQ(queue.events().size(), 8u);
  EXPECT_EQ(queue.events().front().sequence, 24u);
  EXPECT_THROW(queue.set_event_log_capacity(0), PreconditionError);
}

TEST(EventLog, RetirementNeverDropsPendingCommands) {
  Device device = make_device();
  Context context(device);
  CommandQueue queue(context, QueueMode::kDeferred);
  queue.set_event_log_capacity(4);
  Buffer& buffer =
      context.create_buffer_of<double>(1, MemFlags::kReadWrite, "b");
  const std::vector<double> data(1, 3.0);

  // 10 deferred commands: all pending, so none may retire yet even though
  // the log is over capacity.
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(queue.write<double>(buffer, data));
  EXPECT_EQ(queue.events().size(), 10u);
  EXPECT_EQ(queue.pending_commands(), 10u);

  queue.finish();
  // Now everything has executed; the ring trims back to capacity.
  EXPECT_EQ(queue.events().size(), 4u);
  EXPECT_EQ(queue.pending_commands(), 0u);
  for (const EventId id : ids) {
    if (queue.has_event(id)) {
      EXPECT_TRUE(queue.event(id).completed);
    }
  }
  EXPECT_TRUE(queue.has_event(ids.back()));
}

// ---------------------------------------------------------------------------
// Profiling timestamps (clGetEventProfilingInfo semantics).

TEST(Profiling, OffByDefaultLeavesZeros) {
  Device device = make_device();
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer =
      context.create_buffer_of<double>(1, MemFlags::kReadWrite, "b");
  const std::vector<double> data(1, 1.0);
  const EventId id = queue.write<double>(buffer, data);
  const EventProfile& p = queue.event(id).profile;
  EXPECT_EQ(p.queued_ns, 0u);
  EXPECT_EQ(p.submitted_ns, 0u);
  EXPECT_EQ(p.start_ns, 0u);
  EXPECT_EQ(p.end_ns, 0u);
}

TEST(Profiling, ImmediateModeStampsOrderedTimestamps) {
  Device device = make_device();
  device.set_profiling(true);
  Context context(device);
  CommandQueue queue(context);
  Buffer& buffer =
      context.create_buffer_of<double>(1, MemFlags::kReadWrite, "b");
  const std::vector<double> data(1, 1.0);
  const EventId id = queue.write<double>(buffer, data);
  const EventProfile& p = queue.event(id).profile;
  EXPECT_GT(p.queued_ns, 0u);
  EXPECT_EQ(p.submitted_ns, p.queued_ns);  // immediate: submit == queue
  EXPECT_GE(p.start_ns, p.submitted_ns);
  EXPECT_GE(p.end_ns, p.start_ns);
}

TEST(Profiling, DeferredModeSubmitsAtFinish) {
  Device device = make_device();
  device.set_profiling(true);
  Context context(device);
  CommandQueue queue(context, QueueMode::kDeferred);
  Buffer& buffer =
      context.create_buffer_of<double>(1, MemFlags::kReadWrite, "b");
  const std::vector<double> data(1, 1.0);
  const EventId id = queue.write<double>(buffer, data);
  {
    const EventProfile& p = queue.event(id).profile;
    EXPECT_GT(p.queued_ns, 0u);
    EXPECT_EQ(p.submitted_ns, 0u);  // not handed to the device yet
    EXPECT_EQ(p.end_ns, 0u);
  }
  queue.finish();
  const EventProfile& p = queue.event(id).profile;
  EXPECT_GE(p.submitted_ns, p.queued_ns);
  EXPECT_GE(p.start_ns, p.submitted_ns);
  EXPECT_GE(p.end_ns, p.start_ns);
}

// ---------------------------------------------------------------------------
// Tracer: lanes, determinism, parity, and the off == bit-identical claim.

/// Runs the scale kernel on `units` compute units with `groups` groups,
/// returns the read-back result.
std::vector<double> run_traced_workload(Device& device, std::size_t groups) {
  Context context(device);
  CommandQueue queue(context);
  const std::size_t n = groups * 8;
  Buffer& buffer =
      context.create_buffer_of<double>(n, MemFlags::kReadWrite, "out");
  const Kernel kernel = make_scale_kernel(2.0);
  KernelArgs args;
  args.set(0, &buffer);
  queue.enqueue_ndrange(kernel, args, NDRange{n, 8});
  std::vector<double> out(n, 0.0);
  queue.read<double>(buffer, out);
  return out;
}

TEST(Tracer, CapturesQueueAndComputeUnitLanes) {
  trace::Tracer tracer;
  Device device = make_device(/*compute_units=*/4);
  device.set_tracer(&tracer);
  EXPECT_TRUE(device.profiling());  // tracer arms profiling
  (void)run_traced_workload(device, /*groups=*/16);

  const std::vector<trace::TraceEvent> events = tracer.events();
  std::size_t queue_cmds = 0;
  std::size_t cu_spans = 0;
  for (const trace::TraceEvent& e : events) {
    EXPECT_EQ(e.pid, device.trace_pid());
    if (e.category == "queue") {
      EXPECT_EQ(e.tid, 0u);
      ++queue_cmds;
    } else if (e.category == "cu") {
      EXPECT_GE(e.tid, 1u);
      EXPECT_LE(e.tid, 4u);
      EXPECT_EQ(e.name, "scale");
      ++cu_spans;
    }
  }
  EXPECT_EQ(queue_cmds, 2u);  // the ndrange + the read
  EXPECT_EQ(cu_spans, 16u);   // one span per work-group
  // Every group id 0..15 appears exactly once across the lanes.
  std::map<std::string, int> group_args;
  for (const trace::TraceEvent& e : events) {
    if (e.category != "cu") continue;
    ASSERT_EQ(e.args.size(), 1u);
    EXPECT_EQ(e.args[0].first, "group");
    ++group_args[e.args[0].second];
  }
  EXPECT_EQ(group_args.size(), 16u);
  for (const auto& [group, count] : group_args) EXPECT_EQ(count, 1) << group;
}

TEST(Tracer, SerialTraceIsStructurallyDeterministic) {
  // Two runs of the same workload on single-CU devices produce the same
  // event sequence (names, categories, lanes, args) — only timestamps
  // differ. CU > 1 cannot promise ordering (group->unit assignment is a
  // scheduling race by design), so the deterministic claim is serial.
  const auto structure = [](const trace::Tracer& tracer) {
    std::vector<std::string> s;
    for (const trace::TraceEvent& e : tracer.events()) {
      std::string row = e.category + "/" + e.name + "/tid=" +
                        std::to_string(e.tid);
      for (const auto& [k, v] : e.args) row += "/" + k + "=" + v;
      s.push_back(std::move(row));
    }
    return s;
  };

  trace::Tracer first_tracer;
  Device first_device = make_device(1);
  first_device.set_tracer(&first_tracer);
  const std::vector<double> first_out =
      run_traced_workload(first_device, /*groups=*/8);

  trace::Tracer second_tracer;
  Device second_device = make_device(1);
  second_device.set_tracer(&second_tracer);
  const std::vector<double> second_out =
      run_traced_workload(second_device, /*groups=*/8);

  EXPECT_EQ(structure(first_tracer), structure(second_tracer));
  EXPECT_EQ(first_out, second_out);
}

TEST(Tracer, MultiUnitTraceMatchesSerialAsAMultiset) {
  const auto multiset = [](const trace::Tracer& tracer) {
    std::vector<std::string> s;
    for (const trace::TraceEvent& e : tracer.events()) {
      std::string row = e.category + "/" + e.name;
      for (const auto& [k, v] : e.args) row += "/" + k + "=" + v;
      s.push_back(std::move(row));
    }
    std::sort(s.begin(), s.end());
    return s;
  };

  trace::Tracer serial_tracer;
  Device serial_device = make_device(1);
  serial_device.set_tracer(&serial_tracer);
  (void)run_traced_workload(serial_device, /*groups=*/12);

  trace::Tracer parallel_tracer;
  Device parallel_device = make_device(3);
  parallel_device.set_tracer(&parallel_tracer);
  (void)run_traced_workload(parallel_device, /*groups=*/12);

  // Same commands, same groups — only the (cu) lane assignment may differ,
  // and that lives in tid, which the multiset deliberately ignores.
  EXPECT_EQ(multiset(serial_tracer), multiset(parallel_tracer));
}

TEST(Tracer, TracingChangesNeitherResultsNorStats) {
  // The acceptance bar for "one-branch disabled cost": prices and
  // RuntimeStats must be bit-identical with the tracer on and off, for
  // both serial and parallel schedules.
  for (const std::size_t units : {std::size_t{1}, std::size_t{4}}) {
    Device plain_device = make_device(units);
    const std::vector<double> plain = run_traced_workload(plain_device, 16);

    trace::Tracer tracer;
    Device traced_device = make_device(units);
    traced_device.set_tracer(&tracer);
    const std::vector<double> traced = run_traced_workload(traced_device, 16);

    EXPECT_EQ(plain, traced) << units << " unit(s)";
    EXPECT_EQ(plain_device.stats(), traced_device.stats())
        << units << " unit(s)";
    EXPECT_GT(tracer.event_count(), 0u);
  }
}

TEST(Tracer, WritesChromeTraceJson) {
  trace::Tracer tracer;
  Device device = make_device(2);
  device.set_tracer(&tracer);
  (void)run_traced_workload(device, /*groups=*/4);

  std::ostringstream os;
  tracer.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"device d\""), std::string::npos);
  EXPECT_NE(json.find("\"cu 0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // No literal newlines inside any JSON string (labels are escaped).
  EXPECT_EQ(json.back(), '\n');
}

TEST(Tracer, SchedulerRebuildKeepsTracerAttached) {
  trace::Tracer tracer;
  Device device = make_device(1);
  device.set_tracer(&tracer);
  device.set_compute_units(3);  // rebuilds the scheduler
  (void)run_traced_workload(device, /*groups=*/6);
  std::size_t cu_spans = 0;
  for (const trace::TraceEvent& e : tracer.events()) {
    if (e.category == "cu") ++cu_spans;
  }
  EXPECT_EQ(cu_spans, 6u);
}

}  // namespace
}  // namespace binopt::ocl
