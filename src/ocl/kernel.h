// Kernel objects and argument binding (the simulator's cl_kernel).
//
// A kernel is a name plus a C++20 coroutine invoked once per work-item with
// a WorkItemCtx (ids, barriers, local memory) and its bound arguments.
// `co_await ctx.barrier()` is the body's only suspension point; the
// work-group executor resumes the group's items in local-id order once per
// barrier phase, which is how pocl runs barrier kernels (its compiler
// splits the body at each barrier; here the coroutine transform does).
// A body without a barrier is a coroutine that never suspends.
// Arguments are position-indexed like clSetKernelArg: buffers or scalars.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.h"
#include "ocl/buffer.h"

namespace binopt::ocl {

class WorkItemCtx;  // defined in workgroup_executor.h
class KernelArgs;

/// What `co_await ctx.barrier()` awaits: it always suspends, and the
/// executor resumes the work-item once the whole group has arrived.
struct BarrierArrival {
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

/// One work-item's run of a kernel body: the owning handle of its
/// coroutine frame. Frames come from the executor's per-group bump arena,
/// so a body can only be started by the executor (through its ctx).
class [[nodiscard]] WorkItemTask {
public:
  struct promise_type {
    WorkItemTask get_return_object() noexcept {
      return WorkItemTask(Handle::from_promise(*this));
    }
    // Created parked, so the executor starts items in local-id order.
    std::suspend_always initial_suspend() const noexcept { return {}; }
    std::suspend_always final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    // Rethrown out of resume(); the frame counts as finished.
    void unhandled_exception() const { throw; }
    // A barrier is the only thing a kernel body may co_await.
    BarrierArrival await_transform(BarrierArrival arrival) const noexcept {
      return arrival;
    }

    static void* operator new(std::size_t bytes, WorkItemCtx& ctx,
                              const KernelArgs& args);
    /// Lambda bodies also pass their closure object first.
    template <typename Closure>
    static void* operator new(std::size_t bytes, const Closure& /*closure*/,
                              WorkItemCtx& ctx, const KernelArgs& args) {
      return operator new(bytes, ctx, args);
    }
    /// The arena is reset per work-group, never per frame.
    static void operator delete(void* /*frame*/) noexcept {}
  };

  WorkItemTask(WorkItemTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  WorkItemTask& operator=(WorkItemTask&&) = delete;
  ~WorkItemTask() {
    if (handle_) handle_.destroy();
  }

  /// Runs the work-item to its next barrier or to its end; returns true
  /// while it is parked at a barrier. Rethrows what the body throws.
  bool resume() const {
    handle_.resume();
    return !handle_.done();
  }
  [[nodiscard]] bool done() const { return handle_.done(); }

private:
  using Handle = std::coroutine_handle<promise_type>;
  explicit WorkItemTask(Handle handle) : handle_(handle) {}
  Handle handle_;
};

/// Bound argument list for one kernel enqueue.
class KernelArgs {
public:
  using Value = std::variant<Buffer*, double, std::int64_t, std::uint64_t>;

  /// Binds argument `index` (gaps are allowed until launch time).
  void set(std::size_t index, Value value);

  [[nodiscard]] std::size_t size() const { return args_.size(); }

  [[nodiscard]] Buffer& buffer(std::size_t index) const;
  [[nodiscard]] double f64(std::size_t index) const;
  [[nodiscard]] std::int64_t i64(std::size_t index) const;
  [[nodiscard]] std::uint64_t u64(std::size_t index) const;

  /// Throws unless every argument slot in [0, size) has been bound.
  void validate_complete() const;

private:
  [[nodiscard]] const Value& at(std::size_t index) const;

  std::vector<std::optional<Value>> args_;
};

/// A compiled kernel: body invoked once per work-item. A lambda body's
/// frames refer to its captures inside `body`, so the Kernel must outlive
/// every launch of it (launches are synchronous, so a caller's Kernel does).
struct Kernel {
  std::string name;
  std::function<WorkItemTask(WorkItemCtx&, const KernelArgs&)> body;
};

}  // namespace binopt::ocl
