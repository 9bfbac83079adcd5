// NDRange execution engine: work-groups, work-items, barriers, local memory.
//
// One executor drives work-groups sequentially on the calling thread.
// Inside a group every work-item is a coroutine frame (see kernel.h), and
// the executor resumes the live items in local-id order once per barrier
// phase. This gives the paper's kernel IV.B its real OpenCL semantics: all
// work-items of a group observe local memory writes that precede a barrier.
// Frames and local memory come from executor-owned arenas that are reused
// across groups, so steady-state execution allocates nothing.
//
// Device-level parallelism (independent work-groups on parallel compute
// units) is layered on top by ComputeUnitScheduler: each worker thread
// owns a *private* executor — private frame arena, private local-memory
// arena — and pulls disjoint group ranges through execute_group(). An
// executor instance itself is strictly single-threaded.
//
// Barrier contract enforced (and its violation *detected*, where real
// OpenCL would be silently undefined): if any work-item of a group reaches
// a barrier, every work-item must reach it before finishing the kernel.
// A `ctx.barrier()` whose result is not co_awaited is detected too.
//
// With the hazard analyzer enabled (enable_analysis), the executor also
// maintains barrier-epoch bookkeeping: every time the whole group crosses
// a barrier the epoch advances, and every local/global access is recorded
// against the current epoch in the analyzer's shadow memory. Two accesses
// to the same local byte by different work-items in the same epoch have no
// barrier between them — OpenCL's intra-group race — and are reported with
// work-item coordinates and both access sites. Barrier divergence is then
// reported as a diagnostic (and the group's frames destroyed) instead of
// thrown.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/error.h"
#include "ocl/analyzer/shadow.h"
#include "ocl/buffer.h"
#include "ocl/kernel.h"
#include "ocl/stats.h"
#include "ocl/types.h"

namespace binopt::ocl {

class WorkGroupExecutor;

namespace detail {

/// One named local-memory allocation within a group's arena.
struct LocalAlloc {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

/// Bump arena for one group's coroutine frames. Every item of a group
/// runs the same body, so the first frame fixes the slot size and the
/// arena grows (only then) to local size x slot. Reset per group.
class FrameArena {
public:
  void reset(std::size_t items) {
    items_ = items;
    used_ = 0;
  }

  void* allocate(std::size_t bytes) {
    constexpr std::size_t kAlign = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
    const std::size_t slot = (bytes + kAlign - 1) / kAlign * kAlign;
    if (used_ == 0 && slot * items_ > capacity_) {
      capacity_ = slot * items_;
      storage_.reset(new std::byte[capacity_]);
    }
    BINOPT_REQUIRE(used_ + slot <= capacity_,
                   "work-items of one group must run one kernel body");
    void* frame = storage_.get() + used_;
    used_ += slot;
    return frame;
  }

private:
  std::unique_ptr<std::byte[]> storage_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::size_t items_ = 0;
};

/// Per-group shared state (local arena + allocation log + frame arena).
/// All storage is owned by the executor and reused across groups (real
/// local memory is likewise uninitialised between groups).
struct GroupState {
  const Kernel* kernel = nullptr;
  std::byte* arena = nullptr;
  std::size_t arena_capacity = 0;
  std::size_t arena_used = 0;
  std::vector<LocalAlloc> allocs;
  FrameArena frames;
  RuntimeStats* stats = nullptr;
  analyzer::GroupAnalysis* analysis = nullptr;  ///< null = analyzer off
};

}  // namespace detail

/// Typed, traffic-counted view of a local-memory array.
template <typename T>
class LocalSpan {
public:
  LocalSpan(T* data, std::size_t count, RuntimeStats& stats,
            analyzer::GroupAnalysis* analysis = nullptr,
            std::size_t work_item = 0, std::size_t arena_offset = 0,
            std::size_t alloc_index = 0)
      : data_(data),
        count_(count),
        stats_(&stats),
        analysis_(analysis),
        work_item_(work_item),
        arena_offset_(arena_offset),
        alloc_index_(alloc_index) {}

  [[nodiscard]] std::size_t size() const { return count_; }

  [[nodiscard]] T get(std::size_t i) const {
    if (analysis_ != nullptr) {
      // Analyzer mode: records races/uninitialised reads and suppresses
      // out-of-bounds accesses (returning T{}) so execution continues.
      if (!analysis_->local_read(work_item_, alloc_index_, arena_offset_, i,
                                 count_, sizeof(T))) {
        return T{};
      }
    } else {
      BINOPT_REQUIRE(i < count_, "local load out of bounds: ", i, " >= ",
                     count_);
    }
    stats_->local_load_bytes += sizeof(T);
    return data_[i];
  }

  void set(std::size_t i, T value) {
    if (analysis_ != nullptr) {
      if (!analysis_->local_write(work_item_, alloc_index_, arena_offset_, i,
                                  count_, sizeof(T))) {
        return;
      }
    } else {
      BINOPT_REQUIRE(i < count_, "local store out of bounds: ", i, " >= ",
                     count_);
    }
    stats_->local_store_bytes += sizeof(T);
    data_[i] = value;
  }

private:
  T* data_;
  std::size_t count_;
  RuntimeStats* stats_;
  analyzer::GroupAnalysis* analysis_;
  std::size_t work_item_;
  std::size_t arena_offset_;
  std::size_t alloc_index_;
};

/// Execution context handed to the kernel body — the work-item's window
/// onto ids, synchronisation, and the three OpenCL memory levels.
class WorkItemCtx {
public:
  [[nodiscard]] std::size_t global_id() const { return global_id_; }
  [[nodiscard]] std::size_t local_id() const { return local_id_; }
  [[nodiscard]] std::size_t group_id() const { return group_id_; }
  [[nodiscard]] std::size_t local_size() const { return local_size_; }
  [[nodiscard]] std::size_t global_size() const { return global_size_; }
  [[nodiscard]] std::size_t num_groups() const {
    return global_size_ / local_size_;
  }

  /// OpenCL barrier(CLK_LOCAL_MEM_FENCE). `co_await ctx.barrier()`
  /// suspends this work-item until every work-item of the group has
  /// reached the same barrier. The call counts the crossing and marks the
  /// item as arrived; the executor rejects an item that finishes, or calls
  /// barrier() again, while still marked (a result never co_awaited).
  [[nodiscard]] BarrierArrival barrier() {
    BINOPT_REQUIRE(!at_barrier_, "kernel '", group_->kernel->name,
                   "': work-item ", local_id_,
                   " called barrier() again without co_await-ing the last "
                   "one");
    at_barrier_ = true;
    ++group_->stats->barriers_executed;
    return {};
  }

  /// Global-memory accessor for a bound buffer.
  template <typename T>
  [[nodiscard]] GlobalSpan<T> global(Buffer& buffer) const {
    return GlobalSpan<T>(buffer, *group_->stats, group_->analysis, local_id_);
  }

  /// Local-memory array, shared across the group. Every work-item must
  /// issue the same sequence of local_array calls (sizes included), which
  /// is exactly OpenCL's static local allocation discipline.
  template <typename T>
  [[nodiscard]] LocalSpan<T> local_array(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    detail::GroupState& g = *group_;
    if (alloc_cursor_ < g.allocs.size()) {
      const detail::LocalAlloc& a = g.allocs[alloc_cursor_];
      BINOPT_REQUIRE(a.bytes == bytes,
                     "divergent local allocation: work-item ", local_id_,
                     " requested ", bytes, " bytes, group allocated ",
                     a.bytes);
      const std::size_t index = alloc_cursor_++;
      return LocalSpan<T>(reinterpret_cast<T*>(g.arena + a.offset), count,
                          *g.stats, g.analysis, local_id_, a.offset, index);
    }
    constexpr std::size_t kAlign = 16;
    const std::size_t offset = (g.arena_used + kAlign - 1) / kAlign * kAlign;
    BINOPT_REQUIRE(offset + bytes <= g.arena_capacity,
                   "local memory exhausted: need ", offset + bytes,
                   " bytes, device local size is ", g.arena_capacity);
    g.allocs.push_back(detail::LocalAlloc{offset, bytes});
    g.arena_used = offset + bytes;
    const std::size_t index = alloc_cursor_++;
    if (g.analysis != nullptr) g.analysis->on_local_alloc(offset, bytes);
    return LocalSpan<T>(reinterpret_cast<T*>(g.arena + offset), count,
                        *g.stats, g.analysis, local_id_, offset, index);
  }

private:
  friend class WorkGroupExecutor;
  friend struct WorkItemTask::promise_type;

  std::size_t global_id_ = 0;
  std::size_t local_id_ = 0;
  std::size_t group_id_ = 0;
  std::size_t local_size_ = 0;
  std::size_t global_size_ = 0;
  std::size_t alloc_cursor_ = 0;
  detail::GroupState* group_ = nullptr;
  bool at_barrier_ = false;  ///< barrier() called, not yet resumed past
};

/// Drives a full NDRange, one work-group at a time.
class WorkGroupExecutor {
public:
  WorkGroupExecutor(std::size_t local_mem_bytes,
                    std::size_t max_workgroup_size);

  /// Executes every work-group of `range` with the given kernel and args.
  /// Updates `stats` with work-item counts, barrier counts, and memory
  /// traffic generated through the ctx accessors.
  void execute(const Kernel& kernel, const KernelArgs& args, NDRange range,
               RuntimeStats& stats);

  /// Throws unless (kernel, args, range) form a launchable NDRange on this
  /// executor. execute() calls this itself; the compute-unit scheduler
  /// calls it once on the enqueuing thread before fanning groups out.
  void validate(const Kernel& kernel, const KernelArgs& args,
                NDRange range) const;

  /// Executes ONE work-group of an already-validated range. Counts the
  /// group's work-items/barriers/traffic into `stats` (does not touch
  /// kernels_enqueued). Used by compute-unit workers to run disjoint
  /// group subsets on private executors.
  void execute_group(const Kernel& kernel, const KernelArgs& args,
                     NDRange range, std::size_t group_id, RuntimeStats& stats);

  /// Arms the hazard analyzer for every group this executor runs: accesses
  /// are shadow-tracked and diagnostics delivered to `report`. Call before
  /// execution starts (the compute-unit scheduler does this per worker).
  void enable_analysis(analyzer::HazardReport& report,
                       const analyzer::AnalyzerConfig& config);

  /// Merges this executor's per-buffer written-byte shards into the
  /// buffers' base shadows (no-op with the analyzer off). Called on the
  /// enqueuing thread after a range completes.
  void flush_analysis();

  [[nodiscard]] analyzer::GroupAnalysis* analysis() {
    return analysis_.get();
  }

private:
  void run_group(const Kernel& kernel, const KernelArgs& args, NDRange range,
                 std::size_t group_id, RuntimeStats& stats);

  std::size_t local_mem_bytes_;
  std::size_t max_workgroup_size_;
  // Reused per group, so group execution allocates nothing once warm.
  std::vector<std::byte> arena_;  ///< local-memory storage
  detail::GroupState group_;
  std::vector<WorkItemCtx> items_;
  std::vector<WorkItemTask> tasks_;  ///< owns the group's frames
  std::unique_ptr<analyzer::GroupAnalysis> analysis_;  ///< null = off
};

}  // namespace binopt::ocl
