#include "ocl/cu_scheduler.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "common/error.h"

namespace binopt::ocl {

std::size_t resolve_compute_units(std::size_t limit_value) {
  if (const char* env = std::getenv("BINOPT_OCL_COMPUTE_UNITS")) {
    // strtoul quietly wraps negative input ("-1" -> ULONG_MAX) and signals
    // overflow only through errno, so a bare `parsed >= 1` check would
    // accept both and try to spawn an absurd worker count. Require a pure
    // digit string (no sign, no whitespace), check errno, and cap at
    // kMaxComputeUnits.
    const bool digits_only =
        *env != '\0' &&
        [env] {
          for (const char* p = env; *p != '\0'; ++p) {
            if (!std::isdigit(static_cast<unsigned char>(*p))) return false;
          }
          return true;
        }();
    errno = 0;
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    BINOPT_REQUIRE(digits_only && end != env && *end == '\0' &&
                       errno != ERANGE && parsed >= 1 &&
                       parsed <= kMaxComputeUnits,
                   "BINOPT_OCL_COMPUTE_UNITS must be an unsigned integer in "
                   "[1, ", kMaxComputeUnits, "], got '", env, "'");
    return static_cast<std::size_t>(parsed);
  }
  if (limit_value >= 1) return limit_value;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<std::size_t>(hw) : 1;
}

ComputeUnitScheduler::ComputeUnitScheduler(std::size_t compute_units,
                                           std::size_t local_mem_bytes,
                                           std::size_t max_workgroup_size) {
  BINOPT_REQUIRE(compute_units >= 1, "need at least one compute unit");
  units_.reserve(compute_units);
  for (std::size_t i = 0; i < compute_units; ++i) {
    units_.push_back(std::make_unique<Unit>(static_cast<std::uint32_t>(i),
                                            local_mem_bytes,
                                            max_workgroup_size));
  }
}

ComputeUnitScheduler::~ComputeUnitScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  job_ready_.notify_all();
  for (auto& unit : units_) {
    if (unit->thread.joinable()) unit->thread.join();
  }
}

void ComputeUnitScheduler::start_workers() {
  if (workers_started_) return;
  workers_started_ = true;
  for (std::size_t i = 0; i < units_.size(); ++i) {
    units_[i]->thread =
        std::thread([this, i] { worker_loop(i); });
  }
}

void ComputeUnitScheduler::enable_analysis(
    analyzer::HazardReport& report, const analyzer::AnalyzerConfig& config) {
  for (auto& unit : units_) unit->executor.enable_analysis(report, config);
}

void ComputeUnitScheduler::set_tracer(trace::Tracer* tracer,
                                      std::uint32_t pid) {
  tracer_ = tracer;
  trace_pid_ = pid;
}

void ComputeUnitScheduler::arm_worker_death(std::size_t cu,
                                            faults::FaultContext context) {
  death_cu_ = cu % units_.size();
  death_context_ = std::move(context);
  death_context_.cu = death_cu_;
}

void ComputeUnitScheduler::flush_spans(const Kernel& kernel) {
  if (tracer_ == nullptr) return;
  for (auto& unit : units_) {
    for (const trace::WorkGroupSpan& span : unit->spans) {
      trace::TraceEvent te;
      te.name = kernel.name;
      te.category = "cu";
      te.start_ns = span.start_ns;
      te.dur_ns = span.end_ns - span.start_ns;
      te.pid = trace_pid_;
      te.tid = 1 + span.cu;  // lane 0 is the command queue
      te.args.emplace_back("group", std::to_string(span.group_id));
      tracer_->record(std::move(te));
    }
    unit->spans.clear();
  }
}

void ComputeUnitScheduler::execute(const Kernel& kernel,
                                   const KernelArgs& args, NDRange range,
                                   RuntimeStats& stats) {
  units_[0]->executor.validate(kernel, args, range);
  const std::size_t num_groups = range.num_groups();

  // Consume an armed worker death (one-shot, whatever the outcome).
  const std::size_t kill_cu = death_cu_;
  const faults::FaultContext death_context = std::move(death_context_);
  death_cu_ = kNoDeath;
  death_context_ = {};

  // Serial fast path: a single unit (or a single group) gains nothing
  // from the worker pool — run inline on the enqueuing thread with zero
  // scheduling overhead. Counter-wise this is the definitional baseline
  // the parallel path must (and does) reproduce exactly.
  if (units_.size() == 1 || num_groups == 1) {
    if (kill_cu != kNoDeath) {
      // The lone serving unit dies before pulling any work: no group ran,
      // no counters moved — the same observable contract as the parallel
      // path's cancel-before-first-chunk.
      throw faults::TransientDeviceError(
          faults::FaultKind::kCuDeath, death_context,
          "injected fault: compute-unit worker " +
              std::to_string(death_context.cu) + " died (" +
              death_context.describe() + ")");
    }
    Unit& unit = *units_[0];
    if (tracer_ == nullptr) {
      try {
        unit.executor.execute(kernel, args, range, stats);
      } catch (...) {
        unit.executor.flush_analysis();
        throw;
      }
      unit.executor.flush_analysis();
      return;
    }
    // Traced serial path: same group loop as WorkGroupExecutor::execute
    // (validate above, one kernels_enqueued bump, in-order groups) so the
    // stats stay bit-identical, plus a span per group.
    unit.spans.clear();
    ++stats.kernels_enqueued;
    try {
      for (std::size_t g = 0; g < num_groups; ++g) {
        trace::WorkGroupSpan span;
        span.cu = 0;
        span.group_id = g;
        span.start_ns = trace::monotonic_ns();
        unit.executor.execute_group(kernel, args, range, g, stats);
        span.end_ns = trace::monotonic_ns();
        unit.spans.push_back(span);
      }
    } catch (...) {
      unit.executor.flush_analysis();
      flush_spans(kernel);
      throw;
    }
    unit.executor.flush_analysis();
    flush_spans(kernel);
    return;
  }

  ++stats.kernels_enqueued;

  // Chunked distribution: consecutive group ids in chunks large enough to
  // amortise the atomic cursor, small enough to load-balance groups of
  // uneven cost (~4 chunks per unit).
  const std::size_t chunk =
      std::max<std::size_t>(1, num_groups / (units_.size() * 4));

  {
    std::lock_guard<std::mutex> lock(mutex_);
    start_workers();
    job_kernel_ = &kernel;
    job_args_ = &args;
    job_range_ = range;
    job_num_groups_ = num_groups;
    job_chunk_groups_ = chunk;
    job_kill_cu_ = kill_cu;
    if (kill_cu != kNoDeath) death_context_ = death_context;
    next_group_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    workers_remaining_ = units_.size();
    ++job_generation_;
  }
  job_ready_.notify_all();

  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [this] { return workers_remaining_ == 0; });
  }

  // Deterministic merge: shards are folded in unit order on this thread.
  // (Every counter is an unsigned sum, so any order would produce the
  // same bits — fixing the order keeps that property self-evident.)
  // Analyzer written-byte shards merge the same way (bit-wise OR, so
  // order cannot matter there either).
  for (auto& unit : units_) {
    stats += unit->shard;
    unit->executor.flush_analysis();
  }
  flush_spans(kernel);

  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ComputeUnitScheduler::worker_loop(std::size_t unit_index) {
  Unit& unit = *units_[unit_index];
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_ready_.wait(lock, [this, seen_generation] {
        return stopping_ || job_generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = job_generation_;
    }

    run_chunks(unit);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_remaining_ == 0) job_done_.notify_one();
    }
  }
}

void ComputeUnitScheduler::run_chunks(Unit& unit) {
  unit.shard.reset();
  unit.spans.clear();
  if (unit.index == job_kill_cu_) {
    // Injected worker death: this unit dies before pulling any work.
    // Group id 0 makes this error win record_error's lowest-group
    // preference, mirroring what a serial run would have surfaced first.
    record_error(
        std::make_exception_ptr(faults::TransientDeviceError(
            faults::FaultKind::kCuDeath, death_context_,
            "injected fault: compute-unit worker " +
                std::to_string(unit.index) + " died (" +
                death_context_.describe() + ")")),
        0);
    cancelled_.store(true, std::memory_order_release);
    return;
  }
  const bool tracing = tracer_ != nullptr;
  while (!cancelled_.load(std::memory_order_acquire)) {
    const std::size_t begin =
        next_group_.fetch_add(job_chunk_groups_, std::memory_order_relaxed);
    if (begin >= job_num_groups_) break;
    const std::size_t end =
        std::min(begin + job_chunk_groups_, job_num_groups_);
    for (std::size_t g = begin; g < end; ++g) {
      if (cancelled_.load(std::memory_order_acquire)) return;
      try {
        if (tracing) {
          trace::WorkGroupSpan span;
          span.cu = unit.index;
          span.group_id = g;
          span.start_ns = trace::monotonic_ns();
          unit.executor.execute_group(*job_kernel_, *job_args_, job_range_, g,
                                      unit.shard);
          span.end_ns = trace::monotonic_ns();
          unit.spans.push_back(span);
        } else {
          unit.executor.execute_group(*job_kernel_, *job_args_, job_range_, g,
                                      unit.shard);
        }
      } catch (...) {
        // run_group has already destroyed this group's frames; remember
        // the error, stop the fleet, and let execute() rethrow.
        record_error(std::current_exception(), g);
        cancelled_.store(true, std::memory_order_release);
        return;
      }
    }
  }
}

void ComputeUnitScheduler::record_error(std::exception_ptr error,
                                        std::size_t group_id) {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!error_ || group_id < error_group_) {
    error_ = error;
    error_group_ = group_id;
  }
}

}  // namespace binopt::ocl
