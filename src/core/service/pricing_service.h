// PricingService — asynchronous batched serving front-end over
// PricingAccelerator.
//
// The paper's deployment story (Section I) is a request-batching problem:
// a trader's 2000-option volatility curve is recomputed on every market
// tick, and the accelerator only earns its throughput when the host keeps
// it saturated with full batches. This service is the seam between "many
// small concurrent quote requests" and "few large NDRange launches":
//
//   submit()/submit_batch()  futures for single quotes / whole curves
//   price_book_blocking()    synchronous zero-allocation path: a tagged
//                            book's Quotes land in a caller buffer and the
//                            caller blocks on a stack-allocated countdown
//                            sink — no promise, no future, no heap — after
//                            running its own overlap step (the Greeks
//                            book's lattice fronts) between admission and
//                            the wait
//   price_batch_blocking()   the same path with one tag and prices out
//                            (the benchmark hot path)
//   micro-batcher            per-backend workers coalesce queued requests
//                            into one accelerator run (up to max_batch,
//                            lingering up to `linger` for stragglers)
//   sharding                 one worker per configured Target backend, all
//                            pulling from one FIFO — an oversized batch
//                            naturally spreads across backends
//   fleet routing            (DESIGN.md §2.8) a free worker claims the next
//                            chunk only when the FleetRouter's policy says
//                            so: always (off), unless a peer is predicted
//                            to finish it sooner (latency), or only on the
//                            most frugal backend under a watts budget
//                            (energy); an EWMA of model-vs-measured error
//                            corrects the predictions per launch
//   admission control        bounded queue; submitters block (backpressure)
//                            when it is full; per-request timeouts expire
//                            stale quotes instead of wasting device time —
//                            the deadline is absolute (stamped at
//                            admission) and enforced both before AND after
//                            pricing: a result decided past the deadline
//                            resolves as ServiceTimeoutError, never as a
//                            stale price
//   result cache             sharded LRU keyed by (quantized OptionSpec,
//                            steps, target); repeat ticks become O(1) hits
//                            that contend only per shard
//   fault tolerance          (DESIGN.md §2.5) retryable backend failures
//                            re-enqueue the affected requests with
//                            jittered exponential backoff (RetryPolicy);
//                            fatal failures quarantine the backend
//                            (BackendHealth circuit breaker with half-open
//                            probes) and fail its in-flight work over to
//                            the surviving workers via the shared queue;
//                            optionally, requests that exhaust their retry
//                            budget degrade to a CPU-reference fallback
//                            instead of failing (Quote.degraded)
//
// Hot-path architecture (DESIGN.md §2.6). Requests live in stable slots
// leased from a slab arena (SlabArena) and travel as raw pointers — never
// copied — through a bounded lock-free MPMC ring (MpmcRing). Submitters
// bound the ring's logical occupancy to queue_capacity with an atomic
// admission credit, so backpressure semantics are exactly the old mutexed
// queue's while the push/pop themselves are CAS-only; threads park on
// EventGates only when genuinely idle, and a worker lingering on a partial
// batch parks on a gate of its own that only a fill, a marked book, a
// requeue or shutdown wakes. Retries and failovers ride a small
// mutexed side queue (they need ready_at-ordered scanning, and they are
// rare by construction), guarded by an atomic counter so the fault-free
// hot path never takes its lock.
//
// One admission loop serves all four front-ends, and every request
// resolves into one kind of completion sink: a countdown shared by the
// requests of one call. The last count-down either wakes the blocked
// caller (a stack sink) or publishes the call's promise (a heap sink,
// recycled through its own arena).
//
// Resolution contract: every admitted request resolves EXACTLY once — with
// a price, a typed error, or a failover to another worker — even when a
// worker dies mid-batch or the service shuts down with a broken backend.
// A per-request latch makes resolution at-most-once by construction, and a
// catch-all guard in the worker loop makes it at-least-once: any request
// still unresolved when a batch unwinds is failed with the unwinding
// error. Retries are bounded by RetryPolicy::max_attempts, so resolution
// always terminates. A request's arena slot is recycled only after its
// resolution, so queued pointers are always live.
//
// Prices are bit-identical to a direct PricingAccelerator::run of the same
// options on the same target: batching only regroups per-option-independent
// work, and cache hits replay exact previous results (asserted by
// tests/core/test_pricing_service.cpp, including under ThreadSanitizer).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/thread_annotations.h"
#include "core/accelerator.h"
#include "core/service/backend_health.h"
#include "core/service/mpmc_ring.h"
#include "core/service/overload.h"
#include "core/service/quote_cache.h"
#include "core/service/router.h"
#include "core/service/service_stats.h"
#include "core/service/slab_arena.h"
#include "finance/option.h"
#include "ocl/trace/tracer.h"

namespace binopt::core {

/// A request sat in the queue past its deadline.
class ServiceTimeoutError : public Error {
public:
  explicit ServiceTimeoutError(const std::string& what) : Error(what) {}
};

/// The service refused a request at admission (malformed OptionSpec —
/// e.g. a NaN/Inf field, which would be UB in the quote cache's key
/// quantization). Derives from PreconditionError so existing callers that
/// catch contract violations keep working; field() names the offending
/// spec field for structured handling.
class ServiceRejectedError : public PreconditionError {
public:
  ServiceRejectedError(std::string field, const std::string& what)
      : PreconditionError(what), field_(std::move(field)) {}
  [[nodiscard]] const std::string& field() const { return field_; }

private:
  std::string field_;
};

/// The service is shutting down and cannot accept (or finish admitting)
/// the request.
class ServiceShutdownError : public Error {
public:
  explicit ServiceShutdownError(const std::string& what) : Error(what) {}
};

/// The overload layer (DESIGN.md §2.10) refused the request at admission:
/// logical queue occupancy had crossed the shed threshold for its
/// priority class. Never silent — every shed is counted per class in
/// ServiceStats (requests_shed_normal / requests_shed_batch) and surfaces
/// as this typed error. kRealtime requests are never shed (they block on
/// backpressure instead), so priority() is always kNormal or kBatch.
class ServiceOverloadError : public Error {
public:
  ServiceOverloadError(Priority priority, std::size_t occupancy,
                       std::size_t threshold, const std::string& what)
      : Error(what),
        priority_(priority),
        occupancy_(occupancy),
        threshold_(threshold) {}
  [[nodiscard]] Priority priority() const { return priority_; }
  /// Logical queue occupancy observed at the shed decision.
  [[nodiscard]] std::size_t occupancy() const { return occupancy_; }
  /// The class's shed threshold at that instant (adaptive under the
  /// sojourn controller).
  [[nodiscard]] std::size_t threshold() const { return threshold_; }

private:
  Priority priority_;
  std::size_t occupancy_;
  std::size_t threshold_;
};

/// Sentinel: no per-request deadline.
inline constexpr std::chrono::milliseconds kNoTimeout{-1};

struct ServiceConfig {
  /// One worker (and one PricingAccelerator instance) per entry; repeat a
  /// target to shard homogeneous load, mix targets to tier the fleet
  /// (e.g. CPU reference + kernel A GPU + kernel B FPGA).
  std::vector<Target> targets{Target::kCpuReference};
  std::size_t steps = 1024;
  /// Largest number of options coalesced into one accelerator run.
  std::size_t max_batch = 256;
  /// How long a worker holds a partial batch open for stragglers. 0 means
  /// launch whatever is queued immediately.
  std::chrono::microseconds linger{200};
  /// Bounded admission queue (in options). Submitters block when full.
  /// The lock-free ring is sized to the next power of two >= this, but
  /// the admission credit keeps the *logical* occupancy bound exactly
  /// here.
  std::size_t queue_capacity = 8192;
  /// Deadline applied when submit() is not given one explicitly.
  /// kNoTimeout disables; 0 expires immediately (useful in tests).
  std::chrono::milliseconds default_timeout = kNoTimeout;
  /// LRU quote-cache entries; 0 disables caching.
  std::size_t cache_capacity = 0;
  /// Forwarded to every worker's PricingAccelerator (0 = device default).
  std::size_t compute_units = 0;
  /// Tracer receiving batch-lifecycle spans (admit -> linger -> launch ->
  /// resolve) on one lane per worker. nullptr = use the process tracer
  /// armed by BINOPT_OCL_TRACE, if any.
  ocl::trace::Tracer* tracer = nullptr;
  /// Retry budget and backoff for retryable backend failures. Validated
  /// strictly at construction (zero backoffs rejected).
  service::RetryPolicy retry;
  /// Circuit-breaker thresholds and half-open probe cadence, one
  /// BackendHealth per worker. Validated strictly at construction.
  service::HealthPolicy health;
  /// When a request exhausts its retry budget on a faulting backend, price
  /// it on a private CPU-reference fallback instead of failing. The Quote
  /// reports target = kCpuReference and degraded = true, and the
  /// completion counts in ServiceStats::degraded_completions. Off by
  /// default: the fallback's prices are NOT bit-identical to the OCL
  /// targets', so parity-sensitive callers must opt in.
  bool degrade_to_cpu = false;
  /// Per-worker fault plans (chaos testing): empty = no injection, else
  /// exactly one plan per target, index-matched (an engaged-but-empty plan
  /// explicitly disarms BINOPT_OCL_FAULTS for that worker's devices).
  std::vector<ocl::faults::FaultPlan> worker_fault_plans;
  /// Quote-cache shard count; 0 picks automatically from cache_capacity
  /// (small caches stay one exact global LRU — see QuoteCache).
  std::size_t cache_shards = 0;
  /// Cost-based fleet routing (DESIGN.md §2.8): the claim rule a free
  /// worker applies before collecting from the shared queue. kOff (the
  /// default) always claims; kLatency/kEnergyBudget leave the chunk to the
  /// backend the FleetRouter predicts cheapest. When left at kOff the
  /// constructor consults BINOPT_SERVICE_ROUTER (off|latency|energy).
  /// Routing moves work, never math: prices stay bit-identical to a
  /// direct run on whichever backend priced them.
  service::RouterConfig router;
  /// Overload control (DESIGN.md §2.10): priority-class shedding at
  /// admission, CoDel-style adaptive watermark, EDF drain with eager
  /// expiry, and (separately opted into) accuracy-bounded brownout.
  /// Disabled by default — the null path is one branch, and behaviour and
  /// stats stay bit-identical to the pre-overload spine. Unset knobs fall
  /// back to BINOPT_SERVICE_SHED_WATERMARK /
  /// BINOPT_SERVICE_SOJOURN_TARGET_US.
  service::OverloadConfig overload;
};

/// Resolution of one single-quote request.
struct Quote {
  double price = 0.0;
  /// Backend that actually priced it. Attribution is honest under every
  /// indirection: a cache hit reports the target that originally priced
  /// the entry (the cache key pins it), a failover reports the surviving
  /// backend, a degraded quote reports kCpuReference — never merely the
  /// backend the request was routed to.
  Target target = Target::kCpuReference;
  /// Backend of the worker that first collected the request (where the
  /// claim rule placed it); == target unless the request was moved
  /// (retry or failover onto another worker, degradation, brownout).
  Target routed_target = Target::kCpuReference;
  bool from_cache = false;
  /// True when the configured backend gave up and the CPU-reference
  /// fallback priced this quote instead (degrade_to_cpu).
  bool degraded = false;
  /// True when overload brownout priced this quote on the cheaper
  /// configuration (single-precision sibling / reduced lattice steps)
  /// instead of the full-fidelity path. Browned-out prices are NOT
  /// bit-identical to a direct run, which is why parity gates exclude
  /// them; accuracy_bound quantifies what was given up.
  bool browned_out = false;
  /// Measured RMSE of the brownout configuration against this worker's
  /// full-fidelity configuration over a fixed calibration curve (the
  /// Table II metric, computed once per worker on first brownout).
  /// 0 when browned_out is false.
  double accuracy_bound = 0.0;
};

/// The caller's own work between admission and the wait of
/// PricingService::price_book_blocking: a non-owning reference to a
/// `void(std::size_t admitted)` callable, so passing one never allocates.
/// `admitted` is how many elements the service took (each counted in
/// requests_submitted): all n, or fewer when a shed or shutdown refused
/// the rest of the book. Default-constructed, it does nothing.
class OverlapStep {
public:
  OverlapStep() = default;
  template <typename F>
    requires(std::is_invocable_v<F&, std::size_t> &&
             !std::is_same_v<std::remove_cvref_t<F>, OverlapStep>)
  OverlapStep(F&& step)  // NOLINT(google-explicit-constructor)
      : step_(const_cast<void*>(
            static_cast<const void*>(std::addressof(step)))),
        run_([](void* s, std::size_t admitted) {
          (*static_cast<std::remove_reference_t<F>*>(s))(admitted);
        }) {}
  void operator()(std::size_t admitted) const {
    if (run_ != nullptr) run_(step_, admitted);
  }

private:
  void* step_ = nullptr;
  void (*run_)(void*, std::size_t) = nullptr;
};

class PricingService {
public:
  explicit PricingService(ServiceConfig config);
  /// Drains every admitted request (their futures all resolve), then joins
  /// the workers. Submitters still blocked on backpressure receive
  /// ServiceShutdownError.
  ~PricingService();

  PricingService(const PricingService&) = delete;
  PricingService& operator=(const PricingService&) = delete;

  /// Queues one quote request; the future resolves with the priced Quote,
  /// or with ServiceTimeoutError / the accelerator's error. Blocks while
  /// the admission queue is full. `timeout` overrides the config default.
  /// `cache_tag` widens the quote-cache key (see CacheKey::tag): requests
  /// carrying different tags never share a cache entry even when their
  /// specs quantize identically — the Greeks/sweep path (DESIGN.md §2.9)
  /// tags bump legs and sweep epochs; plain quotes keep tag 0.
  /// `priority` is the admission class (DESIGN.md §2.10): with the
  /// overload layer armed, kNormal/kBatch requests are refused with
  /// ServiceOverloadError once queue occupancy crosses their shed
  /// threshold; kRealtime always blocks instead of shedding. With the
  /// layer disabled the class is carried but never acted on.
  std::future<Quote> submit(const finance::OptionSpec& spec);
  std::future<Quote> submit(const finance::OptionSpec& spec,
                            std::chrono::milliseconds timeout,
                            std::uint32_t cache_tag = 0,
                            Priority priority = Priority::kNormal);

  /// Queues a whole batch (e.g. one volatility curve); the future resolves
  /// with the prices in input order once every element is priced, or with
  /// the first element's error once every element has settled. Blocks
  /// while the queue is full. A shed mid-batch fails the rest of the batch
  /// with ServiceOverloadError and rethrows it to the submitter; elements
  /// admitted before it are still priced and counted.
  std::future<std::vector<double>> submit_batch(
      const std::vector<finance::OptionSpec>& specs);
  std::future<std::vector<double>> submit_batch(
      const std::vector<finance::OptionSpec>& specs,
      std::chrono::milliseconds timeout, std::uint32_t cache_tag = 0,
      Priority priority = Priority::kNormal);

  /// Synchronous pricing of a tagged book into a caller buffer: out[i] is
  /// the Quote of specs[i] under cache tag cache_tags[i] (see submit).
  /// Every spec is checked before any is admitted; all n then share one
  /// countdown sink on the caller's stack, `overlap` runs, and the call
  /// waits until every element has settled, also when `overlap` throws,
  /// so no worker writes into a dead frame. It then rethrows the first
  /// failure to happen (an element's error or the step's exception), not
  /// the first in book order. Same admission, batching, caching, retry and
  /// deadline semantics as submit_batch; a steady-state call makes ZERO
  /// heap allocations (asserted by tests/core/test_alloc_hotpath.cpp). A
  /// shed or shutdown mid-book fails the rest of the book. Elements run
  /// at Priority::kNormal under config().default_timeout.
  void price_book_blocking(const finance::OptionSpec* specs,
                           const std::uint32_t* cache_tags, std::size_t n,
                           Quote* out, OverlapStep overlap = {});

  /// price_book_blocking with one tag for every element, no overlap step,
  /// and prices out: out[i] = price of specs[i].
  void price_batch_blocking(const finance::OptionSpec* specs, std::size_t n,
                            double* out);
  void price_batch_blocking(const finance::OptionSpec* specs, std::size_t n,
                            double* out, std::chrono::milliseconds timeout,
                            std::uint32_t cache_tag = 0,
                            Priority priority = Priority::kNormal);

  /// Per-worker shards merged in worker-index order, plus the admission
  /// counter. Safe to call while requests are in flight.
  [[nodiscard]] service::ServiceStats stats() const;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  /// Logical queue occupancy (admission credits held + pending retries);
  /// never exceeds queue_capacity while no retries are in flight.
  [[nodiscard]] std::size_t queued_requests() const;
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] std::size_t cache_shard_count() const {
    return cache_.shard_count();
  }

private:
  /// The one completion sink: a countdown shared by the requests of one
  /// front-end call. fulfil() writes prices[index] (or the whole Quote
  /// into quotes[index] when the caller asked for attribution), fail()
  /// keeps the first error, and the last count-down settles the call. A
  /// stack sink (price_book_blocking) wakes its blocked caller; a heap
  /// sink (submit, submit_batch — leased from the sink pool) publishes its
  /// engaged promise and returns to the pool.
  struct Sink {
    double* prices = nullptr;
    Quote* quotes = nullptr;
    std::atomic<std::size_t> remaining{0};
    std::atomic<bool> failed{false};
    /// Stack sinks: set (release) once admit() has taken the whole book,
    /// so a worker lingering on a partial batch of its requests knows no
    /// more of them can arrive. Heap sinks never set it.
    std::atomic<bool> admitted{false};
    /// First failure; read only after the last count-down.
    std::exception_ptr error;
    /// Heap sinks: exactly one promise is engaged, and `quote` / `results`
    /// are the storage quotes / prices point into.
    std::optional<std::promise<Quote>> quote_promise;
    std::optional<std::promise<std::vector<double>>> batch_promise;
    Quote quote;
    std::vector<double> results;
    /// Stack sinks: the caller waits on `cv` until `done`. The last
    /// count-down sets it and notifies under `mutex`, so the caller can
    /// only return (popping the sink off its stack) after that unlock.
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
  };

  /// One queued option, living in a stable arena slot and queued by
  /// pointer. The slot is recycled only after resolution.
  struct Request {
    finance::OptionSpec spec;
    /// Absolute deadline, stamped once at admission. Enforced before
    /// pricing (a stale request never reaches the device) and again after
    /// the outcome is decided (a result computed past the deadline
    /// resolves as ServiceTimeoutError, never as a late price).
    std::chrono::steady_clock::time_point deadline{};
    /// When the submitter handed the request to the service (set at
    /// admission entry, so measured latency includes backpressure
    /// blocking — the wait the client actually experienced).
    std::chrono::steady_clock::time_point admitted_at{};
    bool has_deadline = false;
    /// Pricing attempts consumed so far; requeues are bounded by
    /// RetryPolicy::max_attempts so resolution always terminates.
    std::size_t attempts = 0;
    /// Retry backoff: the request is not collectable before ready_at
    /// (ignored during shutdown so draining stays fast).
    std::chrono::steady_clock::time_point ready_at{};
    bool has_ready_at = false;
    /// At-most-once latch: fulfil/fail flip it and refuse a second
    /// resolution.
    bool resolved = false;
    /// Quote-cache key widening (CacheKey::tag): 0 for plain quotes,
    /// non-zero for Greeks bump legs / sweep-epoch legs so they can never
    /// alias a quantization-equal plain quote.
    std::uint32_t cache_tag = 0;
    /// Admission class (DESIGN.md §2.10): drives shed thresholds at
    /// admission and brownout eligibility at pricing time. Carried but
    /// inert while the overload layer is disarmed.
    Priority priority = Priority::kNormal;
    /// Placement: the worker that first collected the request (stamped
    /// when attempts == 0). It survives retries and failovers so the
    /// serving worker can count the misroute and report routed_target.
    std::size_t routed_worker = 0;
    Sink* sink = nullptr;
    std::size_t index = 0;  ///< position within the sink
  };

  /// One decided outcome, indexed into the worker's current batch.
  struct Completion {
    std::size_t pos = 0;
    double price = 0.0;
    bool from_cache = false;
    bool degraded = false;
    bool browned_out = false;     ///< priced at reduced fidelity (§2.10)
    double accuracy_bound = 0.0;  ///< calibrated RMSE of the brownout config
  };
  struct Failure {
    std::size_t pos = 0;
    std::exception_ptr error;
  };

  /// One modelled backend: worker thread + stats shard + reusable batch
  /// scratch. alignas(64) (and the member alignments below) keep one
  /// worker's hot state — its stats shard a submitter merges from, its
  /// health machine — off every other worker's cache lines: with the
  /// queue lock gone, shard false-sharing was the next coherence
  /// bottleneck.
  struct alignas(64) Worker {
    Target target = Target::kCpuReference;
    std::size_t index = 0;  ///< worker number (trace lane tid)
    std::thread thread;
    /// Stats shard on its own cache line (written per batch by the owner,
    /// read by stats() callers).
    alignas(64) mutable std::mutex shard_mutex;
    service::ServiceStats shard BINOPT_GUARDED_BY(shard_mutex);
    /// Circuit breaker for this backend; touched only by the owning
    /// worker thread (transitions surface through shard counters). Own
    /// cache line: its state flips exactly when fault storms make every
    /// worker's loop hot.
    alignas(64) service::BackendHealth health;
    /// Per-worker SplitMix64 state for backoff jitter.
    std::uint64_t rng = 0;
    /// Set after the first launch: only launches after it feed the router.
    bool warm = false;
    /// Lazily-built fault-free alternate accelerator for the
    /// (target, steps) last asked of run_alternate(): the CPU-reference
    /// fallback for degrade_to_cpu, the brownout sibling (DESIGN.md
    /// §2.10), or the full-fidelity reference of brownout calibration.
    std::unique_ptr<PricingAccelerator> alternate;
    Target alternate_target = Target::kCpuReference;
    std::size_t alternate_steps = 0;
    /// One-time brownout calibration: RMSE of the reduced config against
    /// a fresh fault-free full-fidelity run over fixed calibration specs.
    /// Stamped on every browned quote as its accuracy bound.
    double brownout_rmse = 0.0;
    bool has_brownout_rmse = false;
    /// Batch scratch, reserved once to max_batch: the worker's collect ->
    /// price -> resolve cycle reuses these and allocates nothing in
    /// steady state.
    std::vector<Request*> batch;
    std::vector<Completion> completions;
    std::vector<Failure> failures;
    std::vector<std::size_t> to_price;    ///< positions into batch
    std::vector<std::size_t> to_requeue;  ///< positions into batch
    std::vector<Request*> requeue_ptrs;   ///< staging for requeue()
    std::vector<std::size_t> to_degrade;  ///< positions into batch
    std::vector<std::size_t> to_brownout;  ///< positions into batch (§2.10)
    std::vector<finance::OptionSpec> alternate_specs;
    std::vector<double> alternate_prices;
    /// Expired requests found while scanning the queues (armed overload
    /// layer only): staged here so resolution happens outside spine locks.
    std::vector<Request*> eager_drops;
    std::vector<finance::OptionSpec> specs;
    std::vector<std::uint32_t> tags;  ///< cache tags parallel to `specs`
    std::vector<double> prices;
    /// Reusable per-batch stats delta (owner thread only; merged into
    /// `shard` under shard_mutex). Its per-backend vectors are pre-sized
    /// once in worker_loop() and cleared in place per batch, keeping the
    /// steady-state path free of heap allocations.
    service::ServiceStats delta;
  };

  /// Resolve one request into its sink (at most once per request).
  void fulfil(Request& request, const Quote& quote);
  void fail(Request& request, const std::exception_ptr& error);
  /// Fails `n` elements of `sink` at once (the refused rest of a batch).
  void fail_sink(Sink& sink, const std::exception_ptr& error, std::size_t n);
  /// Counts `n` elements down; the last one settles the sink.
  void count_down(Sink& sink, std::size_t n);
  /// Leases a heap sink expecting `n` outcomes.
  Sink& lease_sink(std::size_t n);

  /// Validates `config` and applies the BINOPT_SERVICE_* env fallbacks
  /// (router policy, overload knobs) before any member is built from it.
  static ServiceConfig resolve(ServiceConfig config);

  /// Admission gate: rejects specs the service must not accept (non-finite
  /// fields, out-of-range economics) with a ServiceRejectedError naming
  /// the offending field.
  static void check_admissible(const finance::OptionSpec& spec);

  [[nodiscard]] std::chrono::steady_clock::time_point deadline_for(
      std::chrono::milliseconds timeout, bool& has_deadline) const;

  /// Clears per-lease state and returns the slot to the arena. Only after
  /// resolution (or for never-admitted requests).
  void release_request(Request* request);

  /// Why admit_one declined (or didn't).
  enum class AdmitResult {
    kAdmitted,  ///< published on the spine; worker owns resolution
    kShutdown,  ///< service stopping; request untouched, caller settles it
    kTimedOut,  ///< deadline fired at/before admission or while blocked on
                ///< backpressure — never consumed a queue slot (satellite 1)
    kShed,      ///< overload refusal for the request's priority class
  };
  struct AdmitOutcome {
    AdmitResult result = AdmitResult::kAdmitted;
    std::size_t occupancy = 0;  ///< kShed only: occupancy seen at refusal
    std::size_t threshold = 0;  ///< kShed only: the class's shed threshold
  };

  /// Admits one request: sheds at the class watermark when the overload
  /// layer is armed, otherwise blocks on backpressure until a credit
  /// frees (honouring the request's own deadline while blocked), then
  /// publishes the pointer on the configured spine. On anything but
  /// kAdmitted the request was NOT queued and the caller resolves it.
  AdmitOutcome admit_one(Request* request);

  /// The one admission loop behind submit, submit_batch and
  /// price_book_blocking. Leases a slot per spec (element i resolves
  /// into sink index i, under cache tag tags[i * tag_stride]: stride 1
  /// gives every element its own tag, 0 shares tags[0]) and admits it,
  /// blocking per element (backpressure is per option, so an oversized
  /// curve streams in as workers drain). Admission-deadline expiries are
  /// settled in place. A shed or shutdown stops the loop: the refused
  /// element and the rest of the batch are failed into the sink with the
  /// typed error, which is returned as the refusal; `admitted` counts the
  /// elements taken before it (all n when the refusal is null).
  struct Admission {
    std::size_t admitted = 0;
    std::exception_ptr refusal;
  };
  Admission admit(const finance::OptionSpec* specs, const std::uint32_t* tags,
                  std::size_t tag_stride, std::size_t n, Sink& sink,
                  std::chrono::milliseconds timeout, Priority priority);

  /// The stack-sink path behind price_book_blocking and
  /// price_batch_blocking: `sink` names the caller's output buffer.
  void settle_blocking(const finance::OptionSpec* specs,
                       const std::uint32_t* tags, std::size_t tag_stride,
                       std::size_t n, Sink& sink,
                       std::chrono::milliseconds timeout, Priority priority,
                       OverlapStep overlap);

  /// Non-blocking: moves every currently-collectable request (ready
  /// retries first — for a probe, only once the ring is empty — then the
  /// ring) into `out`, up to `limit` total. The ring pops FIFO; with the
  /// overload layer armed it instead yields the earliest deadlines in a
  /// window at the ring's head. Returns the number popped.
  std::size_t pop_available(std::chrono::steady_clock::time_point now,
                            std::vector<Request*>& out, std::size_t limit,
                            Worker& self, bool probing);

  /// True when a retry is collectable right now (cheap atomic check
  /// first; takes the retry lock only when retries exist).
  [[nodiscard]] bool retry_ready(std::chrono::steady_clock::time_point now);

  /// Pops up to `limit` requests, blocking while nothing is collectable
  /// and lingering for stragglers. A worker first asks the router whether
  /// to claim the next chunk; while a peer is the better placement it
  /// parks until some worker claims or settles a batch. Probes and
  /// shutdown bypass the claim rule, and during shutdown retry backoffs
  /// are ignored so draining stays fast. Returns false when the service
  /// is stopping and the queues are drained.
  bool collect_batch(Worker& self, std::vector<Request*>& out,
                     std::size_t limit, bool probing);

  /// Tells the router `backend` now has n options in flight (0 once its
  /// batch settled) and wakes every worker that declined a chunk, so it
  /// weighs the chunk again against the new load.
  void publish_in_flight(std::size_t backend, std::size_t n);

  /// Internal redelivery (retry / failover): pushes requests onto the
  /// mutexed side queue, bypassing the admission capacity bound — workers
  /// must never block as producers on a queue they are the consumers of.
  /// Bounded naturally by the in-flight request count.
  void requeue(Request* const* requests, std::size_t n);

  /// Prices `specs` on the worker's alternate accelerator into
  /// worker.alternate_prices, rebuilding it when (target, steps) changes.
  void run_alternate(Worker& worker, Target target, std::size_t steps,
                     const std::vector<finance::OptionSpec>& specs);

  void worker_loop(std::size_t worker_index);
  void process_batch(Worker& worker, PricingAccelerator& accelerator,
                     bool probing);

  ServiceConfig config_;
  service::QuoteCache cache_;
  /// Placement policy (config_.router after the BINOPT_SERVICE_ROUTER
  /// fallback); kOff makes every claim trivially true.
  service::FleetRouter router_;
  ocl::trace::Tracer* tracer_ = nullptr;
  std::uint32_t trace_pid_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Stable storage for every in-flight request (see SlabArena); sized to
  /// cover the ring + all workers' batches + blocked submitters.
  std::optional<service::SlabArena<Request>> arena_;
  /// Heap sinks for submit/submit_batch, recycled so a steady-state call
  /// allocates only its promise. The pool grows to the peak number of
  /// outstanding calls and never shrinks; the deque keeps sinks in place.
  std::mutex sink_mutex_;
  std::deque<Sink> sink_storage_ BINOPT_GUARDED_BY(sink_mutex_);
  std::vector<Sink*> free_sinks_ BINOPT_GUARDED_BY(sink_mutex_);
  /// The one request queue every policy collects from.
  service::MpmcRing<Request*> ring_;

  /// Admission credits: logical main-queue occupancy, bounded by
  /// queue_capacity regardless of the ring's rounded-up size. On its own
  /// cache line — every submitter CASes it.
  alignas(64) std::atomic<std::size_t> queue_count_{0};
  /// Pending retries/failovers; lets the hot path skip the retry lock.
  alignas(64) std::atomic<std::size_t> retry_count_{0};
  std::mutex retry_mutex_;
  std::deque<Request*> retry_queue_ BINOPT_GUARDED_BY(retry_mutex_);

  /// Park/wake gates: consumers idle on not_empty_, backpressured
  /// submitters on not_full_. Untouched while the queues keep moving.
  service::EventGate not_empty_;
  service::EventGate not_full_;
  /// A worker lingering on a partial batch parks on linger_gate_, not on
  /// not_empty_, and publishes how many more requests would fill its
  /// batch in linger_need_ (0: nobody lingers). Admission notifies the
  /// gate only once queue_count_ reaches that need; a marked book, a
  /// requeue and shutdown notify it too. Any other arrival costs the
  /// submitter a fence and a few loads, no lock, and the worker sleeps to
  /// its linger deadline. One lingering worker at a time owns
  /// linger_need_; another lingers unpublished (DESIGN.md §2.3).
  alignas(64) std::atomic<std::size_t> linger_need_{0};
  service::EventGate linger_gate_;
  /// Workers that declined a chunk park on placement_changed_ until a
  /// peer claims or settles a batch (placement_epoch_ moves). Its notify
  /// is one atomic load while nobody declined, so routing off never pays
  /// for it.
  alignas(64) std::atomic<std::uint64_t> placement_epoch_{0};
  service::EventGate placement_changed_;

  std::atomic<bool> stopping_{false};
  /// Submitters currently inside admission; the destructor waits for this
  /// to drain before joining workers so no push lands after teardown.
  std::atomic<std::size_t> admissions_in_flight_{0};
  std::atomic<std::uint64_t> submitted_{0};

  /// ---- Overload layer (DESIGN.md §2.10) -------------------------------
  /// True when config_.overload.enabled() after env fallback. The single
  /// branch the disarmed hot path pays: with this false, admission,
  /// collection, and pricing are bit-identical to the pre-overload
  /// service (asserted by ControllerDisabledIsNullPath).
  bool overload_armed_ = false;
  /// Engaged when armed: owns the shed watermark and the CoDel-style
  /// sojourn controller (adaptive only when a sojourn target is set).
  std::optional<service::OverloadController> controller_;
  /// Per-class admission refusals; shed requests never enter submitted_.
  alignas(64) std::atomic<std::uint64_t> shed_normal_{0};
  std::atomic<std::uint64_t> shed_batch_{0};
  /// Deadlines that fired at admission or while the submitter was blocked
  /// on backpressure (satellite 1) — a documented subset of
  /// requests_timed_out, folded in by stats().
  std::atomic<std::uint64_t> admission_timeouts_{0};
  /// Wake-up accounting (ServiceStats::linger_early_wakes / nap_rescues),
  /// bumped by workers and submitters alike.
  std::atomic<std::uint64_t> linger_early_wakes_{0};
  std::atomic<std::uint64_t> nap_rescues_{0};
  /// Admissions that never blocked: folded into admission_block_ns as
  /// zero-valued samples at stats() time via record_many, keeping the
  /// uncontended admission path free of the histogram lock.
  std::atomic<std::uint64_t> admissions_unblocked_{0};
  /// Blocked-admission wait times; only the (already slow, already
  /// sleeping) backpressured path takes this lock.
  mutable std::mutex admission_hist_mutex_;
  LogHistogram admission_block_ BINOPT_GUARDED_BY(admission_hist_mutex_);
};

}  // namespace binopt::core
