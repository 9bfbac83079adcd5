#include "perf/timeline.h"

#include <algorithm>
#include <array>
#include <utility>

namespace binopt::perf {

TaskId Timeline::add(std::string label, Resource resource, double duration_s,
                     std::vector<TaskId> deps) {
  BINOPT_REQUIRE(duration_s >= 0.0, "negative duration for task '", label,
                 "'");
  for (TaskId dep : deps) {
    BINOPT_REQUIRE(dep < tasks_.size(), "task '", label,
                   "' depends on unknown task ", dep);
  }
  tasks_.push_back(Task{std::move(label), resource, duration_s,
                        std::move(deps)});
  return tasks_.size() - 1;
}

const Task& Timeline::task(TaskId id) const {
  BINOPT_REQUIRE(id < tasks_.size(), "task id ", id, " out of range");
  return tasks_[id];
}

std::vector<ScheduledTask> Timeline::schedule() const {
  std::vector<ScheduledTask> out(tasks_.size());
  std::array<double, 4> resource_free{0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const Task& t = tasks_[i];
    double ready = resource_free[static_cast<std::size_t>(t.resource)];
    for (TaskId dep : t.deps) ready = std::max(ready, out[dep].finish_s);
    out[i].start_s = ready;
    out[i].finish_s = ready + t.duration_s;
    resource_free[static_cast<std::size_t>(t.resource)] = out[i].finish_s;
  }
  return out;
}

double Timeline::makespan() const {
  double end = 0.0;
  for (const ScheduledTask& t : schedule()) end = std::max(end, t.finish_s);
  return end;
}

double Timeline::busy_seconds(Resource resource) const {
  double busy = 0.0;
  for (const Task& t : tasks_) {
    if (t.resource == resource) busy += t.duration_s;
  }
  return busy;
}

Timeline make_kernel_a_timeline(std::size_t batches, double host_s,
                                double write_s, double kernel_s,
                                double read_s, bool overlapped) {
  BINOPT_REQUIRE(batches >= 1, "need at least one batch");
  Timeline timeline;
  TaskId prev_kernel = 0;
  TaskId prev_read = 0;
  bool have_prev = false;
  for (std::size_t b = 0; b < batches; ++b) {
    // Appended piecewise: GCC 12 misreports `"[" + to_string(b)` at -O3
    // as an overlapping memcpy (-Wrestrict).
    std::string suffix = "[";
    suffix += std::to_string(b);
    suffix += ']';
    // Host init: in the serial schedule it waits for the previous batch's
    // read; in the overlapped one it only competes for the host thread.
    std::vector<TaskId> init_deps;
    if (have_prev && !overlapped) init_deps.push_back(prev_read);
    const TaskId init =
        timeline.add("init" + suffix, Resource::kHost, host_s, init_deps);
    const TaskId write = timeline.add("write" + suffix, Resource::kDmaWrite,
                                      write_s, {init});
    std::vector<TaskId> kernel_deps{write};
    if (have_prev) kernel_deps.push_back(prev_kernel);
    // The ping-pong hazard the paper calls out: the kernel would
    // overwrite the buffer the host is still reading, so batch b's kernel
    // must also wait for batch b-1's readback.
    if (have_prev) kernel_deps.push_back(prev_read);
    const TaskId kernel = timeline.add("kernel" + suffix, Resource::kKernel,
                                       kernel_s, std::move(kernel_deps));
    const TaskId read = timeline.add("read" + suffix, Resource::kDmaRead,
                                     read_s, {kernel});
    prev_kernel = kernel;
    prev_read = read;
    have_prev = true;
  }
  return timeline;
}

}  // namespace binopt::perf
