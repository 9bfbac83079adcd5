#include "core/service/pricing_service.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <utility>

#include "common/statistics.h"
#include "finance/binomial_batch.h"
#include "ocl/faults/fault_plan.h"

namespace binopt::core {

using service::CacheKey;
using service::ServiceStats;

namespace {

/// steady_clock time_point -> the tracer/histogram nanosecond timebase
/// (trace::monotonic_ns() reads the same clock).
std::uint64_t to_ns(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return to > from ? to_ns(to) - to_ns(from) : 0;
}

/// Safety-net nap bounds for the EventGate waits: wakeups are normally
/// delivered by notify(), these only cap how long a (theoretically) lost
/// one can delay progress.
constexpr std::chrono::milliseconds kIdleNap{2};
constexpr std::chrono::milliseconds kBackpressureNap{1};

/// Parks on `gate` until `pred` holds or `wake` passes. A wait that ran to
/// `nap_end`, its safety-net bound, and only then found `pred` true with no
/// notify on the way lost its wake-up; it is counted in `rescues`.
template <typename Pred>
void nap_until(service::EventGate& gate,
               std::chrono::steady_clock::time_point wake,
               std::chrono::steady_clock::time_point nap_end,
               std::atomic<std::uint64_t>& rescues, Pred&& pred) {
  bool lost = false;
  gate.wait_until(wake, std::forward<Pred>(pred), &lost);
  if (lost && wake == nap_end) rescues.fetch_add(1, std::memory_order_relaxed);
}

/// Armed EDF collection weighs this many queued requests per free batch
/// slot (DESIGN.md §2.10).
constexpr std::size_t kEdfWindow = 4;

/// RAII registration of a submitter inside admission; the destructor
/// spins on this count so no push can land after teardown.
class AdmissionScope {
public:
  explicit AdmissionScope(std::atomic<std::size_t>& counter)
      : counter_(counter) {
    counter_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~AdmissionScope() { counter_.fetch_sub(1, std::memory_order_acq_rel); }
  AdmissionScope(const AdmissionScope&) = delete;
  AdmissionScope& operator=(const AdmissionScope&) = delete;

private:
  std::atomic<std::size_t>& counter_;
};

/// Reduced-fidelity sibling used by brownout: the single-precision
/// variant where the paper implements one, otherwise the same target
/// (the step reduction alone is then the fidelity cut).
Target brownout_target_for(Target target) {
  switch (target) {
    case Target::kCpuReference: return Target::kCpuReferenceSingle;
    case Target::kGpuKernelB: return Target::kGpuKernelBSingle;
    default: return target;
  }
}

/// Fixed calibration grid for the brownout accuracy bound: moneyness x
/// volatility x maturity, call/put alternating — small enough to run once
/// per worker, wide enough that the RMSE is not a single-point fluke.
std::vector<finance::OptionSpec> brownout_calibration_specs() {
  std::vector<finance::OptionSpec> specs;
  const double spots[] = {80.0, 100.0, 120.0};
  const double vols[] = {0.15, 0.35};
  const double maturities[] = {0.5, 2.0};
  bool call = true;
  for (const double spot : spots) {
    for (const double vol : vols) {
      for (const double maturity : maturities) {
        finance::OptionSpec spec;
        spec.spot = spot;
        spec.strike = 100.0;
        spec.rate = 0.03;
        spec.dividend = 0.01;
        spec.volatility = vol;
        spec.maturity = maturity;
        spec.type =
            call ? finance::OptionType::kCall : finance::OptionType::kPut;
        call = !call;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

ServiceOverloadError make_shed_error(Priority priority, std::size_t occupancy,
                                     std::size_t threshold) {
  std::ostringstream os;
  os << "pricing service shed " << to_string(priority)
     << "-priority request at admission: queue occupancy " << occupancy
     << " >= " << to_string(priority) << " shed threshold " << threshold;
  return ServiceOverloadError(priority, occupancy, threshold, os.str());
}

}  // namespace

ServiceConfig PricingService::resolve(ServiceConfig config) {
  BINOPT_REQUIRE(!config.targets.empty(),
                 "service needs at least one Target backend");
  BINOPT_REQUIRE(config.max_batch >= 1, "max_batch must be >= 1");
  BINOPT_REQUIRE(config.queue_capacity >= 1, "queue_capacity must be >= 1");
  BINOPT_REQUIRE(config.steps >= 2, "need at least two tree steps");
  config.retry.validate();
  config.health.validate();
  BINOPT_REQUIRE(config.worker_fault_plans.empty() ||
                     config.worker_fault_plans.size() ==
                         config.targets.size(),
                 "worker_fault_plans must be empty or carry exactly one "
                 "plan per target (got ", config.worker_fault_plans.size(),
                 " plans for ", config.targets.size(), " targets)");

  // Routing: an explicit policy wins; kOff consults BINOPT_SERVICE_ROUTER
  // so deployments can turn the fleet router on without a code change.
  config.router.validate();
  if (config.router.policy == service::RouterPolicy::kOff) {
    config.router.policy = service::router_policy_from_env();
  }

  // Overload layer (DESIGN.md §2.10): an explicit config wins; fields
  // left at zero fall back to BINOPT_SERVICE_SHED_WATERMARK /
  // BINOPT_SERVICE_SOJOURN_TARGET_US, mirroring the router's env knob.
  config.overload.validate();
  config.overload.apply_env();
  config.overload.validate();

  // BINOPT_SIMD picks the CPU kernel that kCpuReference workers and the
  // degrade-to-cpu route run: a bad value refuses to start the service,
  // naming the knob, instead of failing every batch they would price.
  (void)finance::BatchPricer::simd_width();
  return config;
}

PricingService::PricingService(ServiceConfig config)
    : config_(resolve(std::move(config))),
      cache_(config_.cache_capacity, config_.cache_shards),
      router_(config_.targets, config_.steps, config_.router),
      // The admission credit, not the ring's rounded-up size, bounds the
      // logical occupancy to queue_capacity.
      ring_(service::next_pow2(config_.queue_capacity)) {
  // Disarmed (the default), overload_armed_ stays false and every
  // overload branch in the hot path is one never-taken comparison.
  overload_armed_ = config_.overload.enabled();
  if (overload_armed_) {
    controller_.emplace(config_.overload, config_.queue_capacity);
  }

  // Arena bound: everything that can hold a slot at once — the queued
  // population, every worker's in-flight batch, and a margin of
  // submitters blocked mid-admission. Past the bound, acquire() waits for
  // recycling instead of growing (a second backpressure layer).
  arena_.emplace(ring_.capacity() + config_.targets.size() * config_.max_batch +
                 1024);

  tracer_ = config_.tracer ? config_.tracer : ocl::trace::env_tracer();
  if (tracer_ != nullptr) {
    trace_pid_ = tracer_->register_process("pricing-service");
    for (std::size_t i = 0; i < config_.targets.size(); ++i) {
      tracer_->set_thread_name(trace_pid_, i,
                               "worker " + std::to_string(i) + " (" +
                                   to_string(config_.targets[i]) + ")");
    }
  }
  workers_.reserve(config_.targets.size());
  for (std::size_t i = 0; i < config_.targets.size(); ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->target = config_.targets[i];
    workers_.back()->index = i;
    workers_.back()->health = service::BackendHealth(config_.health);
    // Distinct jitter streams per worker (any distinct seeds do).
    workers_.back()->rng = 0x9E3779B97F4A7C15ull * (i + 1);
  }
  // Spawn only after every Worker slot exists: workers index into workers_.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

PricingService::~PricingService() {
  stopping_.store(true, std::memory_order_release);
  not_empty_.notify();
  not_full_.notify();
  linger_gate_.notify();
  placement_changed_.notify();
  // Let every submitter leave admission first (blocked ones wake, see
  // stopping_, and bail), so no push can race the workers' final drain.
  while (admissions_in_flight_.load(std::memory_order_acquire) > 0) {
    not_full_.notify();
    not_empty_.notify();
    linger_gate_.notify();
    std::this_thread::sleep_for(std::chrono::microseconds{50});
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Belt and braces: workers drain every admitted request before exiting,
  // but a request admitted in the closing race window (after the last
  // worker's final empty-check) would otherwise dangle its future.
  const auto error = std::make_exception_ptr(
      ServiceShutdownError("pricing service is shutting down"));
  Request* request = nullptr;
  while (ring_.try_pop(request)) {
    queue_count_.fetch_sub(1, std::memory_order_acq_rel);
    fail(*request, error);
    release_request(request);
  }
  {
    const std::lock_guard<std::mutex> lock(retry_mutex_);
    for (Request* r : retry_queue_) {
      fail(*r, error);
      release_request(r);
    }
    retry_queue_.clear();
    retry_count_.store(0, std::memory_order_release);
  }
}

void PricingService::fulfil(Request& request, const Quote& quote) {
  if (request.resolved) return;  // at-most-once, by construction
  request.resolved = true;
  Sink& sink = *request.sink;
  if (sink.quotes != nullptr) {
    sink.quotes[request.index] = quote;
  } else {
    sink.prices[request.index] = quote.price;
  }
  count_down(sink, 1);
}

void PricingService::fail(Request& request, const std::exception_ptr& error) {
  if (request.resolved) return;  // at-most-once, by construction
  request.resolved = true;
  fail_sink(*request.sink, error, 1);
}

void PricingService::fail_sink(Sink& sink, const std::exception_ptr& error,
                               std::size_t n) {
  // First failure wins; later outcomes only count down.
  if (!sink.failed.exchange(true)) {
    sink.error = error;
  }
  count_down(sink, n);
}

void PricingService::count_down(Sink& sink, std::size_t n) {
  // Every element's write (price or first error) happens-before the last
  // count-down, which alone reads them.
  if (sink.remaining.fetch_sub(n) != n) return;
  if (!sink.quote_promise && !sink.batch_promise) {
    // Stack sink: wake the blocked caller. Notify under the lock — the
    // sink dies with the caller's frame right after it sees `done`.
    const std::lock_guard<std::mutex> lock(sink.mutex);
    sink.done = true;
    sink.cv.notify_all();
    return;
  }
  // Heap sink: take what the promise needs, return the sink to the pool,
  // and only then publish. A client woken by its future thus always finds
  // the sink recycled, so its next call never grows the pool.
  auto quote_promise = std::exchange(sink.quote_promise, std::nullopt);
  auto batch_promise = std::exchange(sink.batch_promise, std::nullopt);
  const Quote quote = sink.quote;
  std::vector<double> results = std::exchange(sink.results, {});
  const std::exception_ptr error =
      sink.failed.load() ? std::exchange(sink.error, nullptr) : nullptr;
  sink.failed.store(false);
  {
    const std::lock_guard<std::mutex> lock(sink_mutex_);
    free_sinks_.push_back(&sink);
  }
  if (quote_promise) {
    if (error) {
      quote_promise->set_exception(error);
    } else {
      quote_promise->set_value(quote);
    }
  } else if (error) {
    batch_promise->set_exception(error);
  } else {
    batch_promise->set_value(std::move(results));
  }
}

PricingService::Sink& PricingService::lease_sink(std::size_t n) {
  Sink* sink = nullptr;
  {
    const std::lock_guard<std::mutex> lock(sink_mutex_);
    if (free_sinks_.empty()) {
      sink = &sink_storage_.emplace_back();
    } else {
      sink = free_sinks_.back();
      free_sinks_.pop_back();
    }
  }
  sink->prices = nullptr;
  sink->quotes = nullptr;
  sink->remaining.store(n);
  return *sink;
}

void PricingService::check_admissible(const finance::OptionSpec& spec) {
  // Field-by-field finiteness first so the rejection names the culprit:
  // a NaN/Inf field would be undefined behaviour in the quote cache's
  // llround-based key quantization, not merely a bad price.
  const std::pair<const char*, double> fields[] = {
      {"spot", spec.spot},           {"strike", spec.strike},
      {"rate", spec.rate},           {"dividend", spec.dividend},
      {"volatility", spec.volatility}, {"maturity", spec.maturity}};
  for (const auto& [name, value] : fields) {
    if (!std::isfinite(value)) {
      std::ostringstream os;
      os << "pricing service rejected request: OptionSpec field '" << name
         << "' is not finite (" << value << ")";
      throw ServiceRejectedError(name, os.str());
    }
  }
  // Range checks (positive spot/strike/vol/maturity, non-negative
  // dividend) reuse the spec's own contract.
  try {
    spec.validate();
  } catch (const PreconditionError& error) {
    throw ServiceRejectedError(
        "spec", std::string("pricing service rejected request: ") +
                    error.what());
  }
}

std::chrono::steady_clock::time_point PricingService::deadline_for(
    std::chrono::milliseconds timeout, bool& has_deadline) const {
  has_deadline = timeout >= std::chrono::milliseconds::zero();
  return has_deadline ? std::chrono::steady_clock::now() + timeout
                      : std::chrono::steady_clock::time_point{};
}

void PricingService::release_request(Request* request) {
  request->sink = nullptr;
  request->resolved = false;
  arena_->release(request);
}

std::future<Quote> PricingService::submit(const finance::OptionSpec& spec) {
  return submit(spec, config_.default_timeout);
}

std::future<Quote> PricingService::submit(const finance::OptionSpec& spec,
                                          std::chrono::milliseconds timeout,
                                          std::uint32_t cache_tag,
                                          Priority priority) {
  check_admissible(spec);
  Sink& sink = lease_sink(1);
  sink.quotes = &sink.quote;
  sink.quote_promise.emplace();
  // Taken first: once admitted, the sink may settle and recycle before
  // admit() returns.
  std::future<Quote> future = sink.quote_promise->get_future();
  if (const auto refusal =
          admit(&spec, &cache_tag, 0, 1, sink, timeout, priority).refusal) {
    std::rethrow_exception(refusal);
  }
  return future;
}

std::future<std::vector<double>> PricingService::submit_batch(
    const std::vector<finance::OptionSpec>& specs) {
  return submit_batch(specs, config_.default_timeout);
}

std::future<std::vector<double>> PricingService::submit_batch(
    const std::vector<finance::OptionSpec>& specs,
    std::chrono::milliseconds timeout, std::uint32_t cache_tag,
    Priority priority) {
  if (specs.empty()) {
    std::promise<std::vector<double>> empty;
    empty.set_value({});
    return empty.get_future();
  }
  // Validate before leasing anything, so a rejected spec leaks nothing.
  for (const finance::OptionSpec& spec : specs) check_admissible(spec);
  Sink& sink = lease_sink(specs.size());
  sink.results.assign(specs.size(), 0.0);
  sink.prices = sink.results.data();
  sink.batch_promise.emplace();
  std::future<std::vector<double>> future = sink.batch_promise->get_future();
  const Admission admission = admit(specs.data(), &cache_tag, 0,
                                    specs.size(), sink, timeout, priority);
  if (admission.refusal) std::rethrow_exception(admission.refusal);
  return future;
}

void PricingService::price_book_blocking(const finance::OptionSpec* specs,
                                         const std::uint32_t* cache_tags,
                                         std::size_t n, Quote* out,
                                         OverlapStep overlap) {
  BINOPT_REQUIRE(cache_tags != nullptr || n == 0, "null cache tag array");
  Sink sink;
  sink.quotes = out;
  settle_blocking(specs, cache_tags, 1, n, sink, config_.default_timeout,
                  Priority::kNormal, overlap);
}

void PricingService::price_batch_blocking(const finance::OptionSpec* specs,
                                          std::size_t n, double* out) {
  price_batch_blocking(specs, n, out, config_.default_timeout);
}

void PricingService::price_batch_blocking(const finance::OptionSpec* specs,
                                          std::size_t n, double* out,
                                          std::chrono::milliseconds timeout,
                                          std::uint32_t cache_tag,
                                          Priority priority) {
  Sink sink;
  sink.prices = out;
  settle_blocking(specs, &cache_tag, 0, n, sink, timeout, priority, {});
}

void PricingService::settle_blocking(const finance::OptionSpec* specs,
                                     const std::uint32_t* tags,
                                     std::size_t tag_stride, std::size_t n,
                                     Sink& sink,
                                     std::chrono::milliseconds timeout,
                                     Priority priority, OverlapStep overlap) {
  BINOPT_REQUIRE(specs != nullptr || n == 0, "null spec array");
  BINOPT_REQUIRE((sink.prices != nullptr || sink.quotes != nullptr) || n == 0,
                 "null output array");
  for (std::size_t i = 0; i < n; ++i) check_admissible(specs[i]);
  if (n == 0) {
    overlap(0);
    return;
  }
  // A refusal is already failed into the sink; like every other error it
  // surfaces below, once the admitted elements have settled.
  sink.remaining.store(n);
  const std::size_t admitted =
      admit(specs, tags, tag_stride, n, sink, timeout, priority).admitted;
  // Wakes a worker lingering on this book's last partial batch.
  sink.admitted.store(true, std::memory_order_release);
  linger_gate_.notify();
  try {
    overlap(admitted);
  } catch (...) {
    // Joins the sink's first-failure race; the workers may still be
    // writing into the caller's buffer, so wait before throwing.
    if (!sink.failed.exchange(true)) sink.error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(sink.mutex);
  sink.cv.wait(lock, [&] { return sink.done; });
  if (sink.failed.load()) {
    std::rethrow_exception(sink.error);
  }
}

PricingService::Admission PricingService::admit(
    const finance::OptionSpec* specs, const std::uint32_t* tags,
    std::size_t tag_stride, std::size_t n, Sink& sink,
    std::chrono::milliseconds timeout, Priority priority) {
  bool has_deadline = false;
  const auto deadline = deadline_for(timeout, has_deadline);
  const auto admitted_at = std::chrono::steady_clock::now();
  const AdmissionScope scope(admissions_in_flight_);
  for (std::size_t i = 0; i < n; ++i) {
    Request* request = arena_->acquire();
    *request = Request{.spec = specs[i],
                       .deadline = deadline,
                       .admitted_at = admitted_at,
                       .has_deadline = has_deadline,
                       .cache_tag = tags[i * tag_stride],
                       .priority = priority,
                       .sink = &sink,
                       .index = i};
    const AdmitOutcome outcome = admit_one(request);
    switch (outcome.result) {
      case AdmitResult::kAdmitted:
        // The worker owns the request now; it may already be recycled.
        submitted_.fetch_add(1, std::memory_order_relaxed);
        continue;
      case AdmitResult::kTimedOut:
        // The deadline fired at admission or while parked on backpressure.
        // The request never held a queue slot; settle it in place and keep
        // going — it still counts as submitted (the client handed it over)
        // and as an admission timeout (folded into requests_timed_out by
        // stats()).
        submitted_.fetch_add(1, std::memory_order_relaxed);
        admission_timeouts_.fetch_add(1, std::memory_order_relaxed);
        fail(*request,
             std::make_exception_ptr(ServiceTimeoutError(
                 "quote request expired at admission (deadline passed "
                 "before a queue slot freed)")));
        release_request(request);
        continue;
      case AdmitResult::kShutdown:
      case AdmitResult::kShed: {
        // Refuse this element and the rest of the batch; the admitted
        // prefix still resolves through the workers.
        release_request(request);
        const std::exception_ptr refusal =
            outcome.result == AdmitResult::kShed
                ? std::make_exception_ptr(make_shed_error(
                      priority, outcome.occupancy, outcome.threshold))
                : std::make_exception_ptr(ServiceShutdownError(
                      "pricing service is shutting down"));
        fail_sink(sink, refusal, n - i);
        return {i, refusal};
      }
    }
  }
  return {n, nullptr};
}

PricingService::AdmitOutcome PricingService::admit_one(Request* request) {
  // Overload shedding (armed only): refuse below-realtime classes at
  // their watermark BEFORE the credit CAS, so a shed never consumes a
  // queue slot, never blocks, and never silently drops — the caller gets
  // the typed refusal with the occupancy/threshold it was judged by.
  // kRealtime traffic always keeps the blocking path. The check happens
  // once, at admission entry: a request that passed it may still block on
  // a queue that fills behind it (shed-at-admission, not shed-while-
  // parked).
  if (overload_armed_ && request->priority != Priority::kRealtime) {
    const std::size_t occupancy = queue_count_.load(std::memory_order_acquire);
    const std::size_t threshold = request->priority == Priority::kBatch
                                      ? controller_->batch_watermark()
                                      : controller_->normal_watermark();
    if (occupancy >= threshold) {
      (request->priority == Priority::kBatch ? shed_batch_ : shed_normal_)
          .fetch_add(1, std::memory_order_relaxed);
      return {AdmitResult::kShed, occupancy, threshold};
    }
  }
  // Deadline gate (satellite 1): a request whose deadline fires before a
  // credit frees is refused here instead of entering the queue already
  // dead. The block start is stamped once so admission_block_ns measures
  // the whole backpressure wait the submitter experienced.
  const auto block_start = std::chrono::steady_clock::now();
  bool blocked = false;
  const auto settle_block = [&](std::chrono::steady_clock::time_point end) {
    if (blocked) {
      const std::lock_guard<std::mutex> lock(admission_hist_mutex_);
      admission_block_.record(elapsed_ns(block_start, end));
    } else {
      admissions_unblocked_.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (request->has_deadline &&
      deadline_expired(block_start, request->deadline)) {
    settle_block(block_start);
    return {AdmitResult::kTimedOut};
  }
  // Acquire one admission credit: the credit count — not the ring's
  // rounded-up physical size — is what bounds queued_requests() to
  // queue_capacity.
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) {
      settle_block(std::chrono::steady_clock::now());
      return {AdmitResult::kShutdown};
    }
    std::size_t count = queue_count_.load(std::memory_order_relaxed);
    bool acquired = false;
    while (count < config_.queue_capacity) {
      if (queue_count_.compare_exchange_weak(count, count + 1,
                                             std::memory_order_acq_rel)) {
        acquired = true;
        break;
      }
    }
    if (acquired) break;
    const auto now = std::chrono::steady_clock::now();
    if (request->has_deadline && deadline_expired(now, request->deadline)) {
      // Parked on a full queue past the request's own deadline: refuse
      // without a slot (the pre-fix service blocked here indefinitely,
      // honouring the deadline only after admission).
      settle_block(now);
      return {AdmitResult::kTimedOut};
    }
    blocked = true;
    auto wake = now + kBackpressureNap;
    if (request->has_deadline) {
      // Wake at the deadline (plus a tick past the strict `>` edge) so a
      // doomed wait ends on time instead of at the next nap boundary.
      wake = std::min(wake, request->deadline + std::chrono::microseconds{1});
    }
    nap_until(not_full_, wake, now + kBackpressureNap, nap_rescues_, [&] {
      return stopping_.load(std::memory_order_relaxed) ||
             queue_count_.load(std::memory_order_relaxed) <
                 config_.queue_capacity;
    });
  }
  settle_block(std::chrono::steady_clock::now());
  // With a credit held the ring has logical room; a failed push only
  // means a consumer is mid-recycle on that slot — yield and retry.
  while (!ring_.try_push(request)) std::this_thread::yield();
  // Idle workers wake on every arrival; a lingering one only once the
  // ring can fill its batch. notify()'s seq_cst fence orders the push
  // before the need is read.
  not_empty_.notify();
  const std::size_t need = linger_need_.load(std::memory_order_relaxed);
  if (need != 0 && queue_count_.load(std::memory_order_relaxed) >= need) {
    linger_gate_.notify();
  }
  return {AdmitResult::kAdmitted};
}

std::size_t PricingService::pop_available(
    std::chrono::steady_clock::time_point now, std::vector<Request*>& out,
    std::size_t limit, Worker& self, bool probing) {
  std::size_t popped = 0;
  // Armed overload layer: requests already past their deadline are
  // eagerly dropped while scanning the queues, so a dead request never
  // occupies an accelerator batch slot that live work could use. Drops
  // are staged in worker scratch and resolved AFTER the retry lock is
  // released (one shard-lock pass, then the sinks).
  const bool armed = overload_armed_;
  // Ready retries first: redelivered work is older than anything fresh.
  // A probe is the exception: it takes fresh work while there is any, so
  // a request that already failed moves to a surviving backend instead of
  // re-testing a quarantined one. The atomic guard keeps the fault-free
  // hot path off the retry lock.
  if (retry_count_.load(std::memory_order_acquire) > 0 &&
      (!probing || queue_count_.load(std::memory_order_acquire) == 0)) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    const std::lock_guard<std::mutex> lock(retry_mutex_);
    for (auto it = retry_queue_.begin();
         it != retry_queue_.end() && out.size() < limit;) {
      Request* request = *it;
      // Expired retries are dead regardless of their backoff window.
      if (armed && !stopping && request->has_deadline &&
          deadline_expired(now, request->deadline)) {
        self.eager_drops.push_back(request);
        it = retry_queue_.erase(it);
        continue;
      }
      // During shutdown backoffs are ignored so draining stays fast.
      if (stopping || !request->has_ready_at || request->ready_at <= now) {
        out.push_back(request);
        it = retry_queue_.erase(it);
        ++popped;
      } else {
        ++it;
      }
    }
    retry_count_.store(retry_queue_.size(), std::memory_order_release);
  }
  // The ring. Disarmed, it pops FIFO up to the free slots. Armed, this is
  // the EDF collection step: drain a window of kEdfWindow x the free
  // slots, stage the expired, keep the earliest deadlines (deadlined
  // before undeadlined, admission order as the tie-break) and push the
  // rest back. Their admission credits are still held, so the push-back
  // always fits. The window keeps a batch's cost bounded by its size, not
  // by the queue depth. nth_element works in place and `out` is reserved
  // to the window, so arming the layer keeps the zero-allocation path.
  const std::size_t first = out.size();
  const std::size_t window = (armed ? kEdfWindow : 1) * (limit - first);
  std::size_t expired = 0;
  Request* request = nullptr;
  while (out.size() - first < window && ring_.try_pop(request)) {
    if (armed && request->has_deadline &&
        deadline_expired(now, request->deadline)) {
      self.eager_drops.push_back(request);
      ++expired;
    } else {
      out.push_back(request);
    }
  }
  if (out.size() > limit) {
    const auto kept = out.begin() + static_cast<std::ptrdiff_t>(limit);
    std::nth_element(out.begin() + static_cast<std::ptrdiff_t>(first), kept,
                     out.end(), [](const Request* a, const Request* b) {
                       return service::edf_before(
                           {a->has_deadline, a->deadline, a->admitted_at},
                           {b->has_deadline, b->deadline, b->admitted_at});
                     });
    for (auto it = kept; it != out.end(); ++it) {
      while (!ring_.try_push(*it)) std::this_thread::yield();
    }
    out.resize(limit);
  }
  popped += out.size() - first;
  if (out.size() - first + expired > 0) {
    queue_count_.fetch_sub(out.size() - first + expired,
                           std::memory_order_acq_rel);
  }
  if (armed && !self.eager_drops.empty()) {
    // Resolve the staged drops. Their queue credits were returned when
    // they left the ring (retry-queue entries never held one — requeue()
    // bypasses admission credits).
    const auto error = std::make_exception_ptr(ServiceTimeoutError(
        "quote request expired in queue (eagerly dropped before "
        "occupying a batch slot)"));
    {
      const std::lock_guard<std::mutex> lock(self.shard_mutex);
      for (const Request* request : self.eager_drops) {
        self.shard.queue_wait_ns.record(elapsed_ns(request->admitted_at, now));
        self.shard.request_latency_ns.record(
            elapsed_ns(request->admitted_at, now));
        ++self.shard.requests_timed_out;
        ++self.shard.eager_deadline_drops;
      }
    }
    for (Request* request : self.eager_drops) {
      fail(*request, error);
      release_request(request);
    }
    popped += self.eager_drops.size();
    self.eager_drops.clear();
  }
  if (popped > 0) not_full_.notify();
  return popped;
}

bool PricingService::retry_ready(std::chrono::steady_clock::time_point now) {
  if (retry_count_.load(std::memory_order_acquire) == 0) return false;
  if (stopping_.load(std::memory_order_acquire)) return true;
  const std::lock_guard<std::mutex> lock(retry_mutex_);
  for (const Request* request : retry_queue_) {
    if (!request->has_ready_at || request->ready_at <= now) return true;
  }
  return false;
}

bool PricingService::collect_batch(Worker& self, std::vector<Request*>& out,
                                   std::size_t limit, bool probing) {
  out.clear();
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    // The claim rule. The epoch is read first, so a peer claiming or
    // settling during the decision ends the wait below at once instead of
    // being missed.
    const std::uint64_t epoch =
        placement_epoch_.load(std::memory_order_acquire);
    const std::size_t queued = queue_count_.load(std::memory_order_acquire) +
                               retry_count_.load(std::memory_order_acquire);
    if (!probing && queued > 0 && !stopping_.load(std::memory_order_acquire) &&
        !router_.should_claim(self.index, std::min(limit, queued))) {
      // A peer is the better placement: leave the chunk to it and look
      // again once some worker claims or settles a batch.
      nap_until(placement_changed_, now + kIdleNap, now + kIdleNap,
                nap_rescues_, [&] {
                  return stopping_.load(std::memory_order_relaxed) ||
                         placement_epoch_.load(std::memory_order_relaxed) !=
                             epoch;
                });
      continue;
    }
    pop_available(now, out, limit, self, probing);
    if (!out.empty()) break;
    if (stopping_.load(std::memory_order_acquire) &&
        queue_count_.load(std::memory_order_acquire) == 0 &&
        retry_count_.load(std::memory_order_acquire) == 0) {
      return false;  // fully drained
    }
    // Idle: park until an arrival, the earliest pending retry, or
    // shutdown (the nap caps a theoretically-lost wakeup, nothing more).
    auto wake = now + kIdleNap;
    if (retry_count_.load(std::memory_order_acquire) > 0) {
      const std::lock_guard<std::mutex> lock(retry_mutex_);
      for (const Request* request : retry_queue_) {
        if (request->has_ready_at) wake = std::min(wake, request->ready_at);
      }
    }
    nap_until(not_empty_, wake, now + kIdleNap, nap_rescues_, [&] {
      return stopping_.load(std::memory_order_relaxed) ||
             queue_count_.load(std::memory_order_relaxed) > 0 ||
             retry_ready(std::chrono::steady_clock::now());
    });
  }

  // Micro-batching: hold a partial batch open for up to `linger` so that a
  // burst of single submits coalesces into one NDRange launch instead of
  // many tiny ones. The worker sleeps on linger_gate_, which admission
  // notifies only once the ring can fill the batch; a marked book, a
  // requeue and shutdown notify it too. It stops early on a full batch,
  // on shutdown, or once every request in it belongs to a blocking book
  // that is wholly admitted: nothing more can arrive for those callers.
  // Otherwise it drains the ring in one pop at the deadline.
  if (out.size() < limit &&
      config_.linger > std::chrono::microseconds::zero() &&
      !stopping_.load(std::memory_order_acquire)) {
    const auto linger_deadline =
        std::chrono::steady_clock::now() + config_.linger;
    const auto books_admitted = [&out] {
      return std::all_of(out.begin(), out.end(), [](const Request* request) {
        return request->sink->admitted.load(std::memory_order_acquire);
      });
    };
    // The need this worker published in linger_need_; 0 while a peer
    // holds it (this worker then wakes on the peer's notifies or at its
    // deadline).
    std::size_t published = 0;
    for (;;) {
      // Read before the pop: a book is marked only after its last push, so
      // once the mark reads true, one more pop takes every request of it
      // that fits and the batch closes.
      const bool admitted = books_admitted();
      bool expired = false;
      if (!admitted) {
        const std::size_t need = limit - out.size();
        std::size_t held = published;
        if (linger_need_.compare_exchange_strong(held, need)) published = need;
        expired = !linger_gate_.wait_until(linger_deadline, [&] {
          return stopping_.load(std::memory_order_relaxed) ||
                 queue_count_.load(std::memory_order_relaxed) >= need ||
                 retry_ready(std::chrono::steady_clock::now()) ||
                 books_admitted();
        });
        if (!expired) {
          linger_early_wakes_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      pop_available(std::chrono::steady_clock::now(), out, limit, self,
                    probing);
      if (expired || admitted || out.size() >= limit ||
          stopping_.load(std::memory_order_acquire)) {
        break;
      }
    }
    if (published != 0) linger_need_.store(0, std::memory_order_release);
  }
  publish_in_flight(self.index, out.size());
  return true;
}

void PricingService::publish_in_flight(std::size_t backend, std::size_t n) {
  router_.set_in_flight(backend, n);
  placement_epoch_.fetch_add(1, std::memory_order_acq_rel);
  placement_changed_.notify();
}

void PricingService::requeue(Request* const* requests, std::size_t n) {
  if (n == 0) return;
  {
    const std::lock_guard<std::mutex> lock(retry_mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      retry_queue_.push_back(requests[i]);
    }
    retry_count_.store(retry_queue_.size(), std::memory_order_release);
  }
  not_empty_.notify();
  linger_gate_.notify();
}

void PricingService::run_alternate(
    Worker& worker, Target target, std::size_t steps,
    const std::vector<finance::OptionSpec>& specs) {
  if (!worker.alternate || worker.alternate_target != target ||
      worker.alternate_steps != steps) {
    PricingAccelerator::Config config;
    config.target = target;
    config.steps = steps;
    config.compute_rmse = false;
    config.compute_units = config_.compute_units;
    // Deliberately no fault plan: the alternate is a fallback and a
    // capacity valve, not a fault-injection subject.
    worker.alternate = std::make_unique<PricingAccelerator>(std::move(config));
    worker.alternate_target = target;
    worker.alternate_steps = steps;
  }
  worker.alternate_prices.resize(specs.size());
  worker.alternate->run_prices(specs.data(), specs.size(),
                               worker.alternate_prices.data());
}

void PricingService::worker_loop(std::size_t worker_index) {
  Worker& worker = *workers_[worker_index];
  PricingAccelerator::Config acfg;
  acfg.target = worker.target;
  acfg.steps = config_.steps;
  acfg.compute_rmse = false;
  acfg.compute_units = config_.compute_units;
  if (worker.index < config_.worker_fault_plans.size()) {
    acfg.fault_plan = config_.worker_fault_plans[worker.index];
  }
  PricingAccelerator accelerator(std::move(acfg));
  // Reserve every scratch vector once: the steady-state collect -> price
  // -> resolve cycle then allocates nothing.
  // Armed EDF collection pops up to one window into the batch.
  worker.batch.reserve((overload_armed_ ? kEdfWindow : 1) *
                       config_.max_batch);
  worker.completions.reserve(config_.max_batch);
  worker.failures.reserve(config_.max_batch);
  worker.to_price.reserve(config_.max_batch);
  worker.to_requeue.reserve(config_.max_batch);
  worker.requeue_ptrs.reserve(config_.max_batch);
  worker.to_degrade.reserve(config_.max_batch);
  worker.to_brownout.reserve(config_.max_batch);
  worker.alternate_specs.reserve(config_.max_batch);
  worker.alternate_prices.reserve(config_.max_batch);
  if (overload_armed_) worker.eager_drops.reserve(config_.queue_capacity);
  worker.specs.reserve(config_.max_batch);
  worker.tags.reserve(config_.max_batch);
  worker.prices.reserve(config_.max_batch);
  // Pre-size the per-backend attribution vectors in both the reusable
  // batch delta and this worker's shard: ServiceStats::bump() then never
  // resizes and `shard += delta` (add_padded) never grows, so per-batch
  // stats accounting stays allocation-free.
  worker.delta.routed_by_backend.resize(workers_.size(), 0);
  worker.delta.served_by_backend.resize(workers_.size(), 0);
  {
    std::lock_guard<std::mutex> lock(worker.shard_mutex);
    worker.shard.routed_by_backend.resize(workers_.size(), 0);
    worker.shard.served_by_backend.resize(workers_.size(), 0);
  }
  for (;;) {
    bool probing = false;
    // Quarantine gate: while this backend's circuit is open and the next
    // half-open probe is not due, pull no traffic — the shared queue
    // fails the load over to the surviving workers, which stopped
    // deferring to this backend when its batch settled unroutable.
    // Shutdown overrides the gate so a broken backend cannot strand
    // queued requests.
    while (!stopping_.load(std::memory_order_acquire) &&
           !worker.health.serving() &&
           !worker.health.probe_due(std::chrono::steady_clock::now())) {
      not_empty_.wait_until(worker.health.next_probe_at(), [&] {
        return stopping_.load(std::memory_order_relaxed);
      });
    }
    probing = !stopping_.load(std::memory_order_acquire) &&
              worker.health.state() == service::HealthState::kQuarantined;
    // A probe is one request: the smallest blast radius that still
    // exercises the real pricing path end to end. It bypasses the claim
    // rule, so a quarantined backend always gets to prove itself.
    if (!collect_batch(worker, worker.batch,
                       probing ? 1 : config_.max_batch, probing)) {
      break;
    }
    try {
      process_batch(worker, accelerator, probing);
    } catch (...) {
      // Last-resort guard: process_batch resolves every request itself,
      // but if it ever unwinds (allocation failure, a bug), no admitted
      // promise may dangle — fail whatever is still unresolved and keep
      // serving. Requeued/resolved entries were nulled out and stay
      // untouched.
      const std::exception_ptr error = std::current_exception();
      for (Request*& request : worker.batch) {
        if (request == nullptr) continue;
        if (!request->resolved) fail(*request, error);
        release_request(request);
        request = nullptr;
      }
    }
    // Publish this backend's health and idle state.
    router_.set_routable(worker.index, worker.health.serving());
    publish_in_flight(worker.index, 0);
  }
}

void PricingService::process_batch(Worker& worker,
                                   PricingAccelerator& accelerator,
                                   bool probing) {
  const Target target = worker.target;
  std::vector<Request*>& batch = worker.batch;
  const auto now = std::chrono::steady_clock::now();
  // Reusable scratch (pre-sized in worker_loop): cleared in place so a
  // steady-state batch records stats without heap traffic.
  ServiceStats& delta = worker.delta;
  delta.clear_keep_capacity();

  const auto note_health =
      [&delta](const service::BackendHealth::Event& event) {
        if (event.changed()) ++delta.health_transitions;
        if (event.entered_quarantine()) ++delta.quarantines_entered;
        if (event.recovered()) {
          ++delta.recoveries;
          delta.time_to_recovery_ns.record(event.recovered_after_ns);
        }
      };

  // Outcomes are computed first and the sinks resolved LAST, after the
  // stats delta lands in the worker shard: a client that calls stats()
  // right after future.get() must already see its own request counted.
  std::vector<Completion>& completions = worker.completions;
  std::vector<Failure>& failures = worker.failures;
  std::vector<std::size_t>& to_price = worker.to_price;
  std::vector<std::size_t>& to_requeue = worker.to_requeue;
  std::vector<std::size_t>& to_degrade = worker.to_degrade;
  std::vector<std::size_t>& to_brownout = worker.to_brownout;
  std::vector<finance::OptionSpec>& specs = worker.specs;
  std::vector<std::uint32_t>& tags = worker.tags;
  std::vector<double>& prices = worker.prices;
  completions.clear();
  failures.clear();
  to_price.clear();
  to_requeue.clear();
  to_degrade.clear();
  to_brownout.clear();
  specs.clear();
  tags.clear();
  prices.clear();

  // Accuracy-bounded brownout trigger (DESIGN.md §2.10), sampled once per
  // batch: the controller's sustained-delay state, or instantaneous
  // pressure (this batch plus the standing queue) at/above the kBatch
  // watermark. Opt-in and kBatch-only — realtime/normal work always gets
  // full fidelity.
  const bool brownout_active =
      overload_armed_ && config_.overload.brownout &&
      (controller_->overloaded() ||
       batch.size() + queue_count_.load(std::memory_order_acquire) >=
           controller_->batch_watermark());

  auto earliest_admission = now;
  for (std::size_t pos = 0; pos < batch.size(); ++pos) {
    Request& request = *batch[pos];
    // Queue wait: admission to batch collection, for every popped request
    // (expired ones included — that wait is *why* they expired).
    const std::uint64_t sojourn_ns = elapsed_ns(request.admitted_at, now);
    delta.queue_wait_ns.record(sojourn_ns);
    if (overload_armed_) controller_->observe(sojourn_ns, now);
    earliest_admission = std::min(earliest_admission, request.admitted_at);
    // Placement accounting: a request is placed where it is first
    // collected (retries of it must not inflate requests_routed), and
    // misrouted per later collection by another worker (retry, failover).
    if (request.attempts == 0) {
      request.routed_worker = worker.index;
      ++delta.requests_routed;
      ServiceStats::bump(delta.routed_by_backend, worker.index);
    }
    if (request.routed_worker != worker.index) ++delta.requests_misrouted;
    // Expiry first: a stale quote is worthless even if cached — serving it
    // would hide that the client's deadline was missed.
    if (request.has_deadline && deadline_expired(now, request.deadline)) {
      failures.push_back(
          {pos, std::make_exception_ptr(ServiceTimeoutError(
                    "quote request expired before pricing"))});
      ++delta.requests_timed_out;
      continue;
    }
    if (cache_.enabled()) {
      const CacheKey key = CacheKey::from(request.spec, config_.steps, target,
                                          request.cache_tag);
      if (const auto hit = cache_.lookup(key)) {
        completions.push_back({pos, *hit, /*from_cache=*/true,
                               /*degraded=*/false});
        ++delta.cache_hits;
        continue;
      }
      ++delta.cache_misses;
    }
    // Brownout: kBatch-class cache misses under sustained overload price
    // on the reduced-fidelity sibling instead of the full path.
    if (brownout_active && request.priority == Priority::kBatch) {
      to_brownout.push_back(pos);
      continue;
    }
    to_price.push_back(pos);
    specs.push_back(request.spec);
    tags.push_back(request.cache_tag);
  }

  auto launch_start = now;
  auto launch_end = now;
  if (!to_price.empty()) {
    ++delta.batches_launched;
    delta.options_priced += to_price.size();
    delta.batch_fill.record(to_price.size());
    if (probing) ++delta.probes_launched;
    launch_start = std::chrono::steady_clock::now();
    std::exception_ptr fault_error;
    bool fatal = false;
    try {
      prices.resize(to_price.size());
      accelerator.run_prices(specs.data(), specs.size(), prices.data());
      launch_end = std::chrono::steady_clock::now();
      note_health(worker.health.record_success(launch_end));
      if (probing) ++delta.probes_succeeded;
      for (std::size_t i = 0; i < to_price.size(); ++i) {
        if (cache_.enabled()) {
          delta.cache_evictions += cache_.insert(
              CacheKey::from(specs[i], config_.steps, target, tags[i]),
              prices[i]);
        }
        completions.push_back({to_price[i], prices[i],
                               /*from_cache=*/false, /*degraded=*/false});
      }
    } catch (const ocl::faults::DeviceLostError&) {
      launch_end = std::chrono::steady_clock::now();
      fault_error = std::current_exception();
      fatal = true;
    } catch (const ocl::faults::TransientDeviceError&) {
      launch_end = std::chrono::steady_clock::now();
      fault_error = std::current_exception();
    } catch (...) {
      // A non-fault error (contract violation, kernel bug) is not a device
      // failure: retrying or failing over would just re-run the bug
      // elsewhere. Fail the batch, leave the backend's health alone.
      launch_end = std::chrono::steady_clock::now();
      const std::exception_ptr error = std::current_exception();
      for (const std::size_t pos : to_price) {
        failures.push_back({pos, error});
        ++delta.requests_failed;
      }
    }
    // Model-vs-measured feedback, faulted launches included: wasted wall
    // time on a flaky backend is exactly the signal that should push
    // traffic elsewhere before its circuit breaker trips. The histogram
    // keeps the ratio in permille (1000 = model exact). A worker's first
    // launch also pays one-time setup, which says nothing about its rate:
    // fed back, it would make the backend look slow, and a backend that
    // looks slow is rarely the one that claims, so it could not correct.
    if (worker.warm) {
      const double ratio = router_.record_measurement(
          worker.index, to_price.size(),
          elapsed_ns(launch_start, launch_end));
      delta.predicted_vs_measured.record(
          static_cast<std::uint64_t>(std::llround(ratio * 1000.0)));
    }
    worker.warm = true;
    if (fault_error) {
      note_health(fatal ? worker.health.record_fatal(launch_end)
                        : worker.health.record_transient(launch_end));
      if (probing) ++delta.probes_failed;
      for (const std::size_t pos : to_price) {
        Request& request = *batch[pos];
        ++request.attempts;
        if (request.attempts < config_.retry.max_attempts) {
          if (fatal) {
            // Failover: the backend is quarantined; a surviving worker may
            // pick the request up immediately.
            request.has_ready_at = false;
            ++delta.failovers;
          } else {
            request.ready_at =
                launch_end + config_.retry.backoff_for(
                                 request.attempts + 1, worker.rng);
            request.has_ready_at = true;
            ++delta.retries;
          }
          to_requeue.push_back(pos);
        } else if (config_.degrade_to_cpu &&
                   target != Target::kCpuReference) {
          to_degrade.push_back(pos);
        } else {
          failures.push_back({pos, fault_error});
          ++delta.requests_failed;
        }
      }
    }
  }

  // Requests the configured backend cannot answer at full fidelity are
  // priced on the worker's alternate accelerator. Never cached: such a
  // price must not outlive the emergency or overload that justified it.
  const auto price_on_alternate = [&](const std::vector<std::size_t>& positions,
                                      Target alternate, std::size_t steps,
                                      bool browned_out) {
    worker.alternate_specs.clear();
    for (const std::size_t pos : positions) {
      worker.alternate_specs.push_back(batch[pos]->spec);
    }
    run_alternate(worker, alternate, steps, worker.alternate_specs);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      completions.push_back({positions[i], worker.alternate_prices[i],
                             /*from_cache=*/false, /*degraded=*/!browned_out,
                             browned_out,
                             browned_out ? worker.brownout_rmse : 0.0});
    }
  };

  // Graceful degradation: requests out of retry budget are answered by the
  // CPU reference — a worse (not bit-identical) answer, flagged as such,
  // instead of no answer.
  if (!to_degrade.empty()) {
    price_on_alternate(to_degrade, Target::kCpuReference, config_.steps,
                       /*browned_out=*/false);
    delta.degraded_completions += to_degrade.size();
  }

  // Accuracy-bounded brownout (DESIGN.md §2.10): under sustained overload
  // kBatch-class work is priced by the reduced-fidelity sibling — the
  // single-precision variant where the paper implements one, at half the
  // configured lattice steps. Each browned quote is stamped with the
  // calibrated RMSE of that configuration.
  if (!to_brownout.empty()) {
    const Target reduced_target = brownout_target_for(target);
    const std::size_t reduced_steps =
        std::max<std::size_t>(2, config_.steps / 2);
    if (!worker.has_brownout_rmse) {
      // One-time calibration: the reduced configuration against the
      // fault-free full-fidelity one over a fixed moneyness x volatility x
      // maturity grid (the Table II RMSE metric).
      const std::vector<finance::OptionSpec> calibration =
          brownout_calibration_specs();
      run_alternate(worker, target, config_.steps, calibration);
      const std::vector<double> reference = worker.alternate_prices;
      run_alternate(worker, reduced_target, reduced_steps, calibration);
      worker.brownout_rmse = rmse(worker.alternate_prices, reference);
      worker.has_brownout_rmse = true;
    }
    price_on_alternate(to_brownout, reduced_target, reduced_steps,
                       /*browned_out=*/true);
  }

  // Every outcome is decided here; request latency runs from admission to
  // this point (sink resolution below is the client's own wakeup cost).
  // The absolute deadline is enforced AGAIN at this point: a price decided
  // past its request's deadline resolves as ServiceTimeoutError — pricing
  // time counts against the deadline, not just queue wait.
  const auto decided = std::chrono::steady_clock::now();
  std::size_t completed = 0;
  for (std::size_t i = 0; i < completions.size(); ++i) {
    const Completion& done = completions[i];
    const Request& request = *batch[done.pos];
    if (request.has_deadline && deadline_expired(decided, request.deadline)) {
      failures.push_back(
          {done.pos, std::make_exception_ptr(ServiceTimeoutError(
                         "quote request expired during pricing "
                         "(absolute deadline passed)"))});
      ++delta.requests_timed_out;
    } else {
      completions[completed++] = done;  // compact in place, order kept
      ++delta.requests_completed;
      if (done.browned_out) ++delta.brownout_completions;
      // Serving attribution (router on or off): who actually answered.
      ServiceStats::bump(delta.served_by_backend, worker.index);
    }
  }
  completions.resize(completed);
  for (const Completion& done : completions) {
    delta.request_latency_ns.record(
        elapsed_ns(batch[done.pos]->admitted_at, decided));
  }
  for (const Failure& failure : failures) {
    delta.request_latency_ns.record(
        elapsed_ns(batch[failure.pos]->admitted_at, decided));
  }

  {
    const std::lock_guard<std::mutex> lock(worker.shard_mutex);
    worker.shard += delta;
  }
  // Redeliver retries/failovers before resolving this batch's outcomes so
  // surviving workers can start on them immediately. The batch slots are
  // nulled first: the instant a pointer is requeued, another worker may
  // pop and mutate it, and nothing here may touch it again.
  if (!to_requeue.empty()) {
    std::vector<Request*>& staged = worker.requeue_ptrs;
    staged.clear();
    for (const std::size_t pos : to_requeue) {
      staged.push_back(batch[pos]);
      batch[pos] = nullptr;
    }
    requeue(staged.data(), staged.size());
  }
  for (const Completion& done : completions) {
    Request* request = batch[done.pos];
    // `target` is always the backend that priced the quote: the cache key
    // pins hits to this worker's target, degradation reports the fallback.
    // routed_target preserves the placement for attribution — after a
    // failover or degradation the two legitimately differ.
    const Target priced_by =
        done.degraded ? Target::kCpuReference
                      : (done.browned_out ? brownout_target_for(target)
                                          : target);
    fulfil(*request,
           Quote{done.price, priced_by, config_.targets[request->routed_worker],
                 done.from_cache, done.degraded, done.browned_out,
                 done.accuracy_bound});
    release_request(request);
    batch[done.pos] = nullptr;
  }
  for (const Failure& failure : failures) {
    Request* request = batch[failure.pos];
    fail(*request, failure.error);
    release_request(request);
    batch[failure.pos] = nullptr;
  }
  // Belt and braces: every batch element must have been resolved or
  // requeued above; a request falling through would hang its client
  // forever, so surface the bug as a typed error instead.
  for (Request*& request : batch) {
    if (request == nullptr) continue;
    fail(*request, std::make_exception_ptr(InvariantError(
                       "pricing-service batch left a request unresolved")));
    release_request(request);
    request = nullptr;
  }

  if (tracer_ != nullptr) {
    const auto resolved_at = std::chrono::steady_clock::now();
    // Batch lifecycle on this worker's lane: the enclosing "batch" span
    // starts at the earliest admission (so queueing/linger time is the
    // visible gap before "launch") and closes once every sink resolved.
    ocl::trace::TraceEvent batch_span;
    batch_span.name = "batch";
    batch_span.category = "service";
    batch_span.start_ns = to_ns(earliest_admission);
    batch_span.dur_ns = to_ns(resolved_at) - to_ns(earliest_admission);
    batch_span.pid = trace_pid_;
    batch_span.tid = worker.index;
    batch_span.args.emplace_back("requests", std::to_string(batch.size()));
    batch_span.args.emplace_back("priced", std::to_string(to_price.size()));
    batch_span.args.emplace_back(
        "cache_hits", std::to_string(delta.cache_hits));
    batch_span.args.emplace_back(
        "timed_out", std::to_string(delta.requests_timed_out));
    tracer_->record(std::move(batch_span));

    if (!to_price.empty()) {
      ocl::trace::TraceEvent launch_span;
      launch_span.name = "launch " + to_string(target);
      launch_span.category = "service";
      launch_span.start_ns = to_ns(launch_start);
      launch_span.dur_ns = to_ns(launch_end) - to_ns(launch_start);
      launch_span.pid = trace_pid_;
      launch_span.tid = worker.index;
      launch_span.args.emplace_back("options",
                                    std::to_string(to_price.size()));
      tracer_->record(std::move(launch_span));
    }

    ocl::trace::TraceEvent resolve_span;
    resolve_span.name = "resolve";
    resolve_span.category = "service";
    resolve_span.start_ns = to_ns(decided);
    resolve_span.dur_ns = to_ns(resolved_at) - to_ns(decided);
    resolve_span.pid = trace_pid_;
    resolve_span.tid = worker.index;
    tracer_->record(std::move(resolve_span));
  }
}

ServiceStats PricingService::stats() const {
  ServiceStats total;
  total.requests_submitted = submitted_.load();
  total.requests_shed_normal = shed_normal_.load();
  total.requests_shed_batch = shed_batch_.load();
  total.admission_timeouts = admission_timeouts_.load();
  total.linger_early_wakes = linger_early_wakes_.load();
  total.nap_rescues = nap_rescues_.load();
  // Admission-deadline expiries are timeouts the client observed: fold
  // them into the headline counter (admission_timeouts stays readable as
  // the documented subset).
  total.requests_timed_out = total.admission_timeouts;
  {
    const std::lock_guard<std::mutex> lock(admission_hist_mutex_);
    total.admission_block_ns = admission_block_;
  }
  // Never-blocked admissions recorded only an atomic bump; fold them in
  // as zero-valued samples so count() covers every admission attempt that
  // reached the credit gate.
  total.admission_block_ns.record_many(0, admissions_unblocked_.load());
  // Merge in worker-index order; addition commutes, so totals are the same
  // regardless of which worker served which request.
  for (const auto& worker : workers_) {
    const std::lock_guard<std::mutex> lock(worker->shard_mutex);
    total += worker->shard;
  }
  return total;
}

std::size_t PricingService::queued_requests() const {
  return queue_count_.load(std::memory_order_acquire) +
         retry_count_.load(std::memory_order_acquire);
}

}  // namespace binopt::core
