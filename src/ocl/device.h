// Simulated OpenCL devices.
//
// An ocl::Device enforces the *functional* limits OpenCL exposes to the
// programmer (local memory size, max work-group size, global memory size,
// compute units) and owns the execution engine and traffic counters.
// NDRanges are dispatched through a ComputeUnitScheduler: one persistent
// worker thread per modelled compute unit, each with a private executor
// (coroutine-frame and local-memory arenas), pulling independent
// work-groups from a shared queue. Microarchitectural parameters used for
// timing/energy (ALU counts, bandwidths, TDP) live in src/devices/ and
// src/perf/ — the functional runtime does not need them.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "ocl/analyzer/hazard.h"
#include "ocl/cu_scheduler.h"
#include "ocl/faults/fault_plan.h"
#include "ocl/stats.h"
#include "ocl/trace/tracer.h"
#include "ocl/types.h"

namespace binopt::ocl {

/// Functional limits a device advertises (clGetDeviceInfo subset).
struct DeviceLimits {
  std::size_t global_mem_bytes = 0;
  std::size_t local_mem_bytes = 0;
  std::size_t max_workgroup_size = 0;
  /// Parallel compute units (CL_DEVICE_MAX_COMPUTE_UNITS): how many
  /// work-groups may execute concurrently. 0 = resolve automatically
  /// (BINOPT_OCL_COMPUTE_UNITS env var, else hardware concurrency).
  std::size_t compute_units = 0;
};

class Device {
public:
  Device(std::string name, DeviceKind kind, DeviceLimits limits);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] DeviceKind kind() const { return kind_; }
  [[nodiscard]] const DeviceLimits& limits() const { return limits_; }

  /// Number of compute units the scheduler actually runs with (after
  /// env-var/limits/hardware resolution, or a set_compute_units call).
  [[nodiscard]] std::size_t compute_units() const {
    return scheduler_->compute_units();
  }

  /// Re-sizes the worker pool (API override; beats the env var and the
  /// constructor limits). Must not be called while a kernel is executing.
  void set_compute_units(std::size_t units);

  [[nodiscard]] RuntimeStats& stats() { return stats_; }
  [[nodiscard]] const RuntimeStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// The kernel hazard analyzer (see src/ocl/analyzer/). Off by default
  /// and resolved from BINOPT_OCL_ANALYZE at construction; set_analyzer()
  /// overrides per device. Enable it *before* creating buffers so they
  /// get written-byte shadows. Must not be called mid-kernel.
  void set_analyzer(analyzer::AnalyzerConfig config);
  [[nodiscard]] bool analyzer_enabled() const {
    return analyzer_config_.enabled;
  }
  [[nodiscard]] const analyzer::AnalyzerConfig& analyzer_config() const {
    return analyzer_config_;
  }
  /// Diagnostics accumulated across every range run under the analyzer.
  [[nodiscard]] analyzer::HazardReport& hazard_report() {
    return hazard_report_;
  }
  [[nodiscard]] const analyzer::HazardReport& hazard_report() const {
    return hazard_report_;
  }

  /// Attaches this device to a tracer (DESIGN.md §2.4): registers a trace
  /// process ("device <name>") with a command-queue lane plus one lane per
  /// compute unit, enables event profiling, and arms per-work-group span
  /// capture in the scheduler. Resolved from BINOPT_OCL_TRACE at
  /// construction; nullptr detaches (profiling stays as set). Must not be
  /// called mid-kernel.
  void set_tracer(trace::Tracer* tracer);
  [[nodiscard]] trace::Tracer* tracer() const { return tracer_; }
  /// The tracer process id this device's lanes live under.
  [[nodiscard]] std::uint32_t trace_pid() const { return trace_pid_; }

  /// Arms deterministic fault injection (DESIGN.md §2.5): the plan is
  /// compiled into a FaultInjector whose per-domain ordinal counters
  /// decide, on every kernel launch / buffer read / buffer write, whether
  /// an injected fault fires. Resolved from BINOPT_OCL_FAULTS at
  /// construction; set_fault_plan() overrides per device. Must not be
  /// called mid-kernel. With no plan armed the cost is one branch per
  /// injection point and behavior is bit-identical.
  void set_fault_plan(faults::FaultPlan plan);
  void clear_fault_plan() { injector_.reset(); }
  /// The armed injector, or nullptr when fault injection is off.
  [[nodiscard]] faults::FaultInjector* fault_injector() const {
    return injector_.get();
  }
  /// Records a fired fault in the injector's log and, when a tracer is
  /// attached, emits an 'i' (instant) trace marker on the command-queue
  /// lane. Called by the device itself and by CommandQueue for
  /// read/write/watchdog faults.
  void note_fault(faults::FaultKind kind, const faults::FaultContext& context);

  /// Event profiling (CL_QUEUE_PROFILING_ENABLE equivalent, device-wide):
  /// when on, queues stamp queued/submitted/start/end host-nanosecond
  /// timestamps into their events. Off by default — one branch per
  /// command when disabled; prices and RuntimeStats are unaffected either
  /// way.
  void set_profiling(bool enabled) { profiling_ = enabled; }
  [[nodiscard]] bool profiling() const { return profiling_; }

  /// Runs one NDRange synchronously (called by CommandQueue). Work-groups
  /// are spread across the compute units; stats_ totals are bit-identical
  /// to a serial execution of the same kernel.
  void execute(const Kernel& kernel, const KernelArgs& args, NDRange range);

private:
  void rebuild_scheduler(std::size_t units);
  void name_trace_lanes();

  std::string name_;
  DeviceKind kind_;
  DeviceLimits limits_;
  RuntimeStats stats_;
  analyzer::AnalyzerConfig analyzer_config_;
  analyzer::HazardReport hazard_report_;
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t trace_pid_ = 0;
  bool profiling_ = false;
  std::unique_ptr<ComputeUnitScheduler> scheduler_;
  std::unique_ptr<faults::FaultInjector> injector_;
};

}  // namespace binopt::ocl
