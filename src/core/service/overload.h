// Overload control for the PricingService (DESIGN.md §2.10).
//
// The paper's energy argument (Section V) assumes the accelerator is
// saturated-but-not-swamped; a market-open storm breaks that in two ways:
// every submitter parks on the admission credit (uniform degradation), or
// deadlines expire *after* requests have consumed queue slots and batch
// capacity (wasted device time). This layer gives the service a
// mixed-criticality answer, in the spirit of Inggs' data-centre FPGA
// pricing deployment (PAPERS.md):
//
//   priority admission   requests carry a Priority class; when logical
//                        queue occupancy crosses a watermark, kBatch (then
//                        kNormal) requests are refused at the gate with a
//                        typed ServiceOverloadError instead of parking —
//                        kRealtime never sheds, it only blocks
//   queue-delay control  a CoDel-style controller tracks the MINIMUM queue
//                        sojourn per interval against a target; sustained
//                        delay above target tightens the watermark
//                        (multiplicative), delay back under target relaxes
//                        it toward the configured base (additive) — so
//                        shedding engages from measured delay, not just
//                        occupancy
//   EDF drain            workers drain deque spines earliest-deadline-
//                        first and eagerly expire already-dead requests on
//                        every spine before they occupy batch slots
//   brownout             under sustained overload, kBatch work may be
//                        downshifted to a cheaper configuration (single
//                        precision and/or reduced lattice steps) whose
//                        RMSE the Table II machinery quantifies — each
//                        such Quote is stamped browned_out with the
//                        measured accuracy bound
//
// Everything here is opt-in: with OverloadConfig disabled (the default)
// the service behaviour and stats are bit-identical to the pre-overload
// spine — the null path costs one branch per admission/collection.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace binopt::core {

/// Mixed-criticality admission classes. Ordering is criticality: a lower
/// value is never shed before a higher one.
enum class Priority : std::uint8_t {
  kRealtime = 0,  ///< latency-sensitive; never shed, blocks on backpressure
  kNormal = 1,    ///< default class; shed only near saturation
  kBatch = 2,     ///< bulk revaluation; first to shed, brownout-eligible
};

inline constexpr std::size_t kPriorityCount = 3;

[[nodiscard]] const char* to_string(Priority priority);

/// The one deadline comparison used everywhere a deadline is enforced
/// (admission gate, eager expiry at collection, pre-pricing check,
/// post-pricing check): STRICTLY past-deadline only. A deadline exactly
/// equal to the observation instant is still live — in particular the
/// admission stamp itself is always admissible. Pinned by
/// tests/core/test_overload.cpp.
[[nodiscard]] constexpr bool deadline_expired(
    std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point deadline) {
  return now > deadline;
}

namespace service {

/// Earliest-deadline-first ordering key. Requests with a deadline come
/// before requests without one; among deadlined requests the earlier
/// deadline wins; ties (and the undeadlined tail) fall back to admission
/// order, so EDF degrades to exactly the old FIFO when no deadlines are in
/// play.
struct EdfKey {
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  std::chrono::steady_clock::time_point admitted_at{};
};

[[nodiscard]] constexpr bool edf_before(const EdfKey& a, const EdfKey& b) {
  if (a.has_deadline != b.has_deadline) return a.has_deadline;
  if (a.has_deadline && a.deadline != b.deadline) {
    return a.deadline < b.deadline;
  }
  return a.admitted_at < b.admitted_at;
}

/// Overload-control knobs (ServiceConfig::overload). Disabled by default;
/// enabled() arms the whole layer (priority shedding, EDF drain, eager
/// expiry, the controller, and — separately opted into — brownout).
struct OverloadConfig {
  /// Fraction of queue_capacity at which kBatch-class admission sheds;
  /// kNormal sheds midway between the watermark and full. 0 disables
  /// static shedding. When 0, BINOPT_SERVICE_SHED_WATERMARK (a float in
  /// (0, 1]) supplies it, mirroring the router's env fallback.
  double shed_watermark = 0.0;
  /// CoDel-style sojourn target: when the minimum admission->collection
  /// wait observed over a control interval stays above this, the watermark
  /// tightens; once back under target it relaxes toward the configured
  /// base. 0 disables the controller. When 0,
  /// BINOPT_SERVICE_SOJOURN_TARGET_US (a positive integer) supplies it.
  std::chrono::microseconds sojourn_target{0};
  /// Controller update cadence (how often the watermark may move).
  std::chrono::milliseconds control_interval{100};
  /// Accuracy-bounded brownout: under sustained overload, price
  /// kBatch-class requests on a cheaper configuration (the target's
  /// single-precision sibling where one exists, at half the service's
  /// lattice steps, never below 2), stamping Quote::browned_out and the
  /// measured RMSE bound.
  /// Off by default, like degrade_to_cpu: browned-out prices are NOT
  /// bit-identical to the full-fidelity path, so parity-sensitive callers
  /// must opt in. Requires enabled().
  bool brownout = false;

  /// True when any overload machinery is armed.
  [[nodiscard]] bool enabled() const {
    return shed_watermark > 0.0 || sojourn_target.count() > 0;
  }

  /// Strict validation (construction-time): watermark in [0, 1], no
  /// negative durations, brownout only with the layer enabled.
  void validate() const;

  /// Fills unset knobs from the environment
  /// (BINOPT_SERVICE_SHED_WATERMARK / BINOPT_SERVICE_SOJOURN_TARGET_US),
  /// strictly validated — a typo'd knob fails loudly. Explicit config
  /// always wins over the environment.
  void apply_env();
};

/// Strict parsers for the env knobs (exposed for tests): throw
/// PreconditionError on anything but a float in (0, 1] / a positive
/// integer count of microseconds.
[[nodiscard]] double parse_shed_watermark(const char* text);
[[nodiscard]] std::chrono::microseconds parse_sojourn_target_us(
    const char* text);

/// Parses a "realtime/normal/batch" percentage mix (e.g. "20/30/50") for
/// the CLI/bench --priority-mix flag. Strict: three non-negative integers
/// summing to 100.
struct PriorityMix {
  unsigned realtime = 0;
  unsigned normal = 100;
  unsigned batch = 0;

  /// Deterministically assigns the k-th request of a stream to a class so
  /// every window of 100 requests matches the mix exactly (no RNG, so two
  /// runs of a bench submit identical class sequences).
  [[nodiscard]] Priority pick(std::uint64_t k) const {
    const auto slot = static_cast<unsigned>(k % 100);
    if (slot < realtime) return Priority::kRealtime;
    if (slot < realtime + normal) return Priority::kNormal;
    return Priority::kBatch;
  }
};

[[nodiscard]] PriorityMix parse_priority_mix(const std::string& text);

/// The adaptive shed watermark (one per service, shared by every
/// submitter and worker; all atomics, so observing and reading allocate
/// nothing and take no locks).
///
/// Admission side: batch_watermark() is the logical-occupancy threshold at
/// which kBatch requests shed; normal_watermark() derives the kNormal
/// threshold as the midpoint between the watermark and full capacity (the
/// class keeps admitting while the queue has headroom the batch class has
/// already been fenced out of). kRealtime has no threshold.
///
/// Worker side: observe() feeds one admission->collection sojourn sample
/// per collected request. Once per control interval the worker that rolls
/// the interval over applies CoDel-style AIMD: minimum sojourn above
/// target => watermark shrinks by 1/4 (multiplicative tighten, floored at
/// capacity/16), minimum back under target => watermark grows by base/8
/// (additive relax, capped at the configured base). The MINIMUM is what
/// CoDel tracks: a single fast-drained request proves the standing queue
/// cleared, while percentiles would keep shedding on burst noise.
class OverloadController {
public:
  OverloadController(const OverloadConfig& config, std::size_t queue_capacity);

  /// Current kBatch shed threshold (logical queue occupancy, in options).
  [[nodiscard]] std::size_t batch_watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }
  /// Current kNormal shed threshold: midpoint between the batch watermark
  /// and full capacity.
  [[nodiscard]] std::size_t normal_watermark() const {
    const std::size_t w = batch_watermark();
    return w + (capacity_ - w + 1) / 2;
  }
  /// Configured (fully relaxed) kBatch watermark.
  [[nodiscard]] std::size_t base_watermark() const { return base_; }
  /// Tightest the controller may clamp the watermark.
  [[nodiscard]] std::size_t floor_watermark() const { return floor_; }

  /// True while the controller is in its tightened (sustained-delay)
  /// state — the brownout trigger.
  [[nodiscard]] bool overloaded() const {
    return overloaded_.load(std::memory_order_acquire);
  }

  /// One sojourn sample (admission -> collection, nanoseconds) observed by
  /// a worker at `now`. Lock-free; at most one caller per interval applies
  /// the watermark adjustment.
  void observe(std::uint64_t sojourn_ns,
               std::chrono::steady_clock::time_point now);

private:
  std::size_t capacity_;
  std::size_t base_;
  std::size_t floor_;
  std::uint64_t target_ns_;
  std::uint64_t interval_ns_;
  std::atomic<std::size_t> watermark_;
  std::atomic<bool> overloaded_{false};
  /// Minimum sojourn seen this interval (UINT64_MAX = none yet).
  std::atomic<std::uint64_t> interval_min_ns_{~std::uint64_t{0}};
  /// Steady-clock ns at which the current interval rolls over (0 = not
  /// started); the worker that CASes it forward applies the adjustment.
  std::atomic<std::uint64_t> interval_end_ns_{0};
};

}  // namespace service
}  // namespace binopt::core
