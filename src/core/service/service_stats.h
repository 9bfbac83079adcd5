// Operational counters for the PricingService front-end.
//
// Mirrors the ocl::RuntimeStats scheme: the field set is an X-macro so
// reset(), minus(), operator+= (the per-worker shard merge), equality and
// the visitor all derive from ONE list. Each service worker accumulates
// into a private shard (guarded by a per-worker mutex so stats() can read
// mid-flight); stats() merges shards in worker-index order, and since every
// counter is an unsigned sum the merged totals are independent of request
// interleaving.
// Latency histograms ride along in the same shards: LogHistogram merges
// bucket-wise (associative, commutative — see src/common/histogram.h), so
// the shard-then-merge discipline extends from plain counters to whole
// distributions. Histograms are NOT part of the counter X-macro: the
// visitor keeps exposing scalar counters only (tests pin that set), while
// the histogram fields travel through reset/minus/+=/== alongside it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/histogram.h"

namespace binopt::core::service {

/// The single source of truth for every ServiceStats counter.
///   Admission: requests accepted into the bounded queue.
///   Outcomes: exactly one of completed / timed_out / failed per request.
///   Cache: LRU quote-cache hits, misses, and evictions.
///   Batching: NDRange-sized launches actually sent to an accelerator and
///   the options they carried (occupancy = options_priced / slots).
///   Robustness (DESIGN.md §2.5): retries counts re-enqueues after a
///   retryable failure; failovers counts re-enqueues after a fatal one
///   (the request moves to a surviving backend); degraded_completions are
///   requests answered by the CPU-reference fallback after the primary
///   gave up. Health: every BackendHealth transition, quarantine entries,
///   half-open probe outcomes, and full recoveries (circuit closed).
///   Routing (DESIGN.md §2.8): requests_routed counts requests placed on
///   a worker (once, at their first collection, under every router
///   policy); requests_misrouted counts later collections by a worker
///   other than that one (retry, failover) — honest attribution the
///   router's accounting depends on.
///   Overload (DESIGN.md §2.10): requests_shed_normal/_batch count
///   admission refusals per priority class (kRealtime never sheds, so it
///   needs no counter; shed requests are NOT counted in
///   requests_submitted — the service never took responsibility for
///   them). admission_timeouts is the SUBSET of requests_timed_out whose
///   deadline expired at the admission gate (immediately, or while
///   blocked on backpressure) before ever occupying a queue slot.
///   eager_deadline_drops is the SUBSET of requests_timed_out expired at
///   collection time, before occupying an accelerator batch slot.
///   brownout_completions is the SUBSET of requests_completed answered by
///   the cheaper brownout configuration (Quote::browned_out).
///   Wake-ups (DESIGN.md §2.3): linger_early_wakes counts lingering
///   workers woken before their linger deadline (a batch the ring can
///   fill, a marked book, a requeue, shutdown); nap_rescues counts
///   safety-net naps (idle, backpressure, declined claim) that ran to
///   their bound and only then found their condition true, i.e. lost
///   wake-ups.
#define BINOPT_SERVICE_STATS_COUNTERS(X) \
  X(requests_submitted)                  \
  X(requests_completed)                  \
  X(requests_timed_out)                  \
  X(requests_failed)                     \
  X(cache_hits)                          \
  X(cache_misses)                        \
  X(cache_evictions)                     \
  X(batches_launched)                    \
  X(options_priced)                      \
  X(retries)                             \
  X(failovers)                           \
  X(degraded_completions)                \
  X(health_transitions)                  \
  X(quarantines_entered)                 \
  X(probes_launched)                     \
  X(probes_succeeded)                    \
  X(probes_failed)                       \
  X(recoveries)                          \
  X(requests_routed)                     \
  X(requests_misrouted)                  \
  X(requests_shed_normal)                \
  X(requests_shed_batch)                 \
  X(admission_timeouts)                  \
  X(eager_deadline_drops)                \
  X(brownout_completions)                \
  X(linger_early_wakes)                  \
  X(nap_rescues)

struct ServiceStats {
#define BINOPT_SERVICE_STATS_DECLARE(field) std::uint64_t field = 0;
  BINOPT_SERVICE_STATS_COUNTERS(BINOPT_SERVICE_STATS_DECLARE)
#undef BINOPT_SERVICE_STATS_DECLARE

  /// Latency distributions (host steady-clock nanoseconds, except
  /// batch_fill which counts options). Recorded into the worker's shard
  /// delta *before* the request's promise resolves — same visibility
  /// invariant as the counters.
  LogHistogram request_latency_ns;  ///< admission -> outcome decided
  LogHistogram queue_wait_ns;       ///< admission -> batch collected
  LogHistogram batch_fill;          ///< options per launched batch
  /// Quarantine entry -> circuit closed, one sample per recovery (spans
  /// failed probes: the whole outage, not the last probe gap).
  LogHistogram time_to_recovery_ns;
  /// Router feedback quality: per-launch measured/predicted wall-time
  /// ratio in permille (1000 = the model was exact). Empty when routing
  /// is off.
  LogHistogram predicted_vs_measured;
  /// Time a submitter spent blocked on backpressure BEFORE admission —
  /// distinct from queue_wait_ns, which starts at admission. One sample
  /// per admission attempt that reached the credit gate: admissions that
  /// never blocked record 0 (folded in O(1) from an atomic at stats()
  /// time, so the uncontended fast path touches no lock), blocked ones
  /// record the measured wait — including attempts whose deadline expired
  /// while blocked (admission_timeouts). Shed requests never reach the
  /// gate and record nothing.
  LogHistogram admission_block_ns;

  /// Per-backend placement, indexed by worker. routed_by_backend[i] =
  /// requests worker i collected first (the placement its claim rule
  /// made); served_by_backend[i] = requests worker i completed (the fleet
  /// benchmark derives modelled J/option from it). Vectors merge element-wise with zero-padding, so shards
  /// that never touched a high index (router-induced load skew) merge
  /// bit-identically in any order — see add_padded().
  std::vector<std::uint64_t> routed_by_backend;
  std::vector<std::uint64_t> served_by_backend;

  /// Bumps vec[index], growing it as needed (shards start empty).
  static void bump(std::vector<std::uint64_t>& vec, std::size_t index,
                   std::uint64_t by = 1) {
    if (index >= vec.size()) vec.resize(index + 1, 0);
    vec[index] += by;
  }

  void reset() { *this = ServiceStats{}; }

  /// Zeroes every counter, histogram and per-backend element while KEEPING
  /// the vectors' storage. The service hot path reuses one pre-sized delta
  /// per worker so steady-state batches never touch the heap (the zero-alloc
  /// gate in test_alloc_hotpath.cpp pins this); reset() would free the
  /// vectors and re-trigger an allocation on the next bump().
  void clear_keep_capacity() {
#define BINOPT_SERVICE_STATS_CLEAR(field) field = 0;
    BINOPT_SERVICE_STATS_COUNTERS(BINOPT_SERVICE_STATS_CLEAR)
#undef BINOPT_SERVICE_STATS_CLEAR
    request_latency_ns = LogHistogram{};
    queue_wait_ns = LogHistogram{};
    batch_fill = LogHistogram{};
    time_to_recovery_ns = LogHistogram{};
    predicted_vs_measured = LogHistogram{};
    admission_block_ns = LogHistogram{};
    std::fill(routed_by_backend.begin(), routed_by_backend.end(), 0);
    std::fill(served_by_backend.begin(), served_by_backend.end(), 0);
  }

  /// Counter-wise difference (per-interval deltas of cumulative counters).
  [[nodiscard]] ServiceStats minus(const ServiceStats& earlier) const {
    ServiceStats d;
#define BINOPT_SERVICE_STATS_MINUS(field) d.field = field - earlier.field;
    BINOPT_SERVICE_STATS_COUNTERS(BINOPT_SERVICE_STATS_MINUS)
#undef BINOPT_SERVICE_STATS_MINUS
    d.request_latency_ns = request_latency_ns.minus(earlier.request_latency_ns);
    d.queue_wait_ns = queue_wait_ns.minus(earlier.queue_wait_ns);
    d.batch_fill = batch_fill.minus(earlier.batch_fill);
    d.time_to_recovery_ns =
        time_to_recovery_ns.minus(earlier.time_to_recovery_ns);
    d.predicted_vs_measured =
        predicted_vs_measured.minus(earlier.predicted_vs_measured);
    d.admission_block_ns = admission_block_ns.minus(earlier.admission_block_ns);
    d.routed_by_backend = routed_by_backend;
    sub_padded(d.routed_by_backend, earlier.routed_by_backend);
    d.served_by_backend = served_by_backend;
    sub_padded(d.served_by_backend, earlier.served_by_backend);
    return d;
  }

  /// Counter-wise accumulation — how per-worker shards merge into the
  /// service totals. Unsigned addition commutes (bucket-wise for the
  /// histograms, element-wise with zero-padding for the per-backend
  /// vectors), so the merged totals do not depend on which worker served
  /// which request.
  ServiceStats& operator+=(const ServiceStats& shard) {
#define BINOPT_SERVICE_STATS_ADD(field) field += shard.field;
    BINOPT_SERVICE_STATS_COUNTERS(BINOPT_SERVICE_STATS_ADD)
#undef BINOPT_SERVICE_STATS_ADD
    request_latency_ns += shard.request_latency_ns;
    queue_wait_ns += shard.queue_wait_ns;
    batch_fill += shard.batch_fill;
    time_to_recovery_ns += shard.time_to_recovery_ns;
    predicted_vs_measured += shard.predicted_vs_measured;
    admission_block_ns += shard.admission_block_ns;
    add_padded(routed_by_backend, shard.routed_by_backend);
    add_padded(served_by_backend, shard.served_by_backend);
    return *this;
  }

  /// Equality treats a missing tail of a per-backend vector as zeros:
  /// {5, 0} and {5} are the SAME placement (a shard that never served
  /// backend 1 stays short), so merge order can never manufacture an
  /// inequality out of vector lengths.
  friend bool operator==(const ServiceStats& a, const ServiceStats& b) {
    bool counters_equal = true;
#define BINOPT_SERVICE_STATS_EQ(field) \
  counters_equal = counters_equal && a.field == b.field;
    BINOPT_SERVICE_STATS_COUNTERS(BINOPT_SERVICE_STATS_EQ)
#undef BINOPT_SERVICE_STATS_EQ
    return counters_equal && a.request_latency_ns == b.request_latency_ns &&
           a.queue_wait_ns == b.queue_wait_ns &&
           a.batch_fill == b.batch_fill &&
           a.time_to_recovery_ns == b.time_to_recovery_ns &&
           a.predicted_vs_measured == b.predicted_vs_measured &&
           a.admission_block_ns == b.admission_block_ns &&
           equal_padded(a.routed_by_backend, b.routed_by_backend) &&
           equal_padded(a.served_by_backend, b.served_by_backend);
  }

  /// Visits every counter as (name, value); keeps tests honest about the
  /// field list and the derived arithmetic never drifting apart.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
#define BINOPT_SERVICE_STATS_VISIT(field) fn(#field, field);
    BINOPT_SERVICE_STATS_COUNTERS(BINOPT_SERVICE_STATS_VISIT)
#undef BINOPT_SERVICE_STATS_VISIT
  }

  /// Fraction of cache lookups that hit (0 when the cache is unused).
  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups ? static_cast<double>(cache_hits) /
                         static_cast<double>(lookups)
                   : 0.0;
  }

  /// Mean fill of launched batches relative to the configured max_batch.
  [[nodiscard]] double batch_occupancy(std::size_t max_batch) const {
    const std::uint64_t slots = batches_launched * max_batch;
    return slots ? static_cast<double>(options_priced) /
                       static_cast<double>(slots)
                 : 0.0;
  }

  /// into[i] += from[i], growing `into` first: element-wise unsigned sums
  /// commute and associate, so any shard merge order yields bit-identical
  /// vectors (trailing zeros equal to absent entries by operator==).
  static void add_padded(std::vector<std::uint64_t>& into,
                         const std::vector<std::uint64_t>& from) {
    if (from.size() > into.size()) into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
  }

  /// into[i] -= from[i] with the same zero-padding convention.
  static void sub_padded(std::vector<std::uint64_t>& into,
                         const std::vector<std::uint64_t>& from) {
    if (from.size() > into.size()) into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i) into[i] -= from[i];
  }

  static bool equal_padded(const std::vector<std::uint64_t>& a,
                           const std::vector<std::uint64_t>& b) {
    const std::size_t n = std::max(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t av = i < a.size() ? a[i] : 0;
      const std::uint64_t bv = i < b.size() ? b[i] : 0;
      if (av != bv) return false;
    }
    return true;
  }
};

}  // namespace binopt::core::service
