#include "ocl/workgroup_executor.h"

namespace binopt::ocl {

void* WorkItemTask::promise_type::operator new(std::size_t bytes,
                                               WorkItemCtx& ctx,
                                               const KernelArgs& /*args*/) {
  BINOPT_REQUIRE(ctx.group_ != nullptr,
                 "kernel bodies run only inside a work-group executor");
  return ctx.group_->frames.allocate(bytes);
}

WorkGroupExecutor::WorkGroupExecutor(std::size_t local_mem_bytes,
                                     std::size_t max_workgroup_size)
    : local_mem_bytes_(local_mem_bytes),
      max_workgroup_size_(max_workgroup_size) {
  BINOPT_REQUIRE(max_workgroup_size_ >= 1, "device must allow work-groups");
}

void WorkGroupExecutor::validate(const Kernel& kernel, const KernelArgs& args,
                                 NDRange range) const {
  BINOPT_REQUIRE(static_cast<bool>(kernel.body), "kernel '", kernel.name,
                 "' has no body");
  BINOPT_REQUIRE(range.global_size >= 1, "empty NDRange");
  BINOPT_REQUIRE(range.local_size >= 1, "work-group size must be >= 1");
  BINOPT_REQUIRE(range.local_size <= max_workgroup_size_,
                 "work-group size ", range.local_size,
                 " exceeds device maximum ", max_workgroup_size_);
  BINOPT_REQUIRE(range.global_size % range.local_size == 0,
                 "global size ", range.global_size,
                 " is not a multiple of local size ", range.local_size);
  args.validate_complete();
}

void WorkGroupExecutor::execute(const Kernel& kernel, const KernelArgs& args,
                                NDRange range, RuntimeStats& stats) {
  validate(kernel, args, range);
  const std::size_t num_groups = range.num_groups();
  ++stats.kernels_enqueued;
  for (std::size_t g = 0; g < num_groups; ++g) {
    run_group(kernel, args, range, g, stats);
  }
}

void WorkGroupExecutor::execute_group(const Kernel& kernel,
                                      const KernelArgs& args, NDRange range,
                                      std::size_t group_id,
                                      RuntimeStats& stats) {
  run_group(kernel, args, range, group_id, stats);
}

void WorkGroupExecutor::enable_analysis(
    analyzer::HazardReport& report, const analyzer::AnalyzerConfig& config) {
  analysis_ = std::make_unique<analyzer::GroupAnalysis>(report, config);
}

void WorkGroupExecutor::flush_analysis() {
  if (analysis_ != nullptr) analysis_->flush_buffers();
}

void WorkGroupExecutor::run_group(const Kernel& kernel, const KernelArgs& args,
                                  NDRange range, std::size_t group_id,
                                  RuntimeStats& stats) {
  const std::size_t n = range.local_size;

  detail::GroupState& group = group_;
  if (arena_.size() < local_mem_bytes_) arena_.resize(local_mem_bytes_);
  group.kernel = &kernel;
  group.arena = arena_.data();
  group.arena_capacity = local_mem_bytes_;
  group.arena_used = 0;
  group.allocs.clear();
  group.frames.reset(n);
  group.stats = &stats;
  group.analysis = nullptr;
  if (analysis_ != nullptr) {
    analysis_->begin_group(kernel.name, group_id, local_mem_bytes_);
    group.analysis = analysis_.get();
  }

  // However the group ends, its frames are destroyed here: a parked
  // item's locals are unwound exactly once and never resumed.
  struct DestroyFrames {
    std::vector<WorkItemTask>& tasks;
    ~DestroyFrames() { tasks.clear(); }
  } destroy_frames{tasks_};

  if (items_.size() < n) items_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    WorkItemCtx& ctx = items_[i];
    ctx.local_id_ = i;
    ctx.group_id_ = group_id;
    ctx.global_id_ = group_id * n + i;
    ctx.local_size_ = n;
    ctx.global_size_ = range.global_size;
    ctx.alloc_cursor_ = 0;
    ctx.group_ = &group;
    tasks_.push_back(kernel.body(ctx, args));
  }

  // One pass per barrier phase: resume every live work-item in local-id
  // order until it either finishes or parks at the next barrier.
  std::size_t alive = n;
  while (alive > 0) {
    std::size_t at_barrier = 0;
    std::size_t finished_this_pass = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const WorkItemTask& task = tasks_[i];
      if (task.done()) continue;
      WorkItemCtx& ctx = items_[i];
      ctx.at_barrier_ = false;
      if (task.resume()) {
        BINOPT_ENSURE(ctx.at_barrier_,
                      "work-item suspended without reaching a barrier");
        ++at_barrier;
      } else {
        BINOPT_REQUIRE(!ctx.at_barrier_, "kernel '", kernel.name,
                       "': work-item ", i,
                       " finished with its barrier() never co_awaited");
        --alive;
        ++finished_this_pass;
      }
    }
    // Every live work-item is now parked at a barrier. OpenCL requires
    // the *whole* group at each barrier: if any work-item returned
    // during a pass in which others parked, the group has divergent
    // barrier counts (undefined behaviour on real hardware). Under the
    // analyzer this becomes a diagnostic and the group's frames are
    // destroyed so the rest of the range can still be checked; otherwise
    // we fail loudly.
    if (at_barrier != 0 && finished_this_pass != 0 && analysis_ != nullptr) {
      analysis_->record_barrier_divergence(at_barrier, finished_this_pass);
      return;
    }
    BINOPT_REQUIRE(at_barrier == 0 || finished_this_pass == 0,
                   "barrier divergence in kernel '", kernel.name, "': ",
                   at_barrier, " work-items at a barrier while ",
                   finished_this_pass, " returned in the same pass");
    // The whole group has crossed this barrier: accesses after it are
    // ordered against everything before it.
    if (at_barrier > 0 && analysis_ != nullptr) analysis_->advance_epoch();
  }

  ++stats.work_groups_executed;
  stats.work_items_executed += n;
}

}  // namespace binopt::ocl
