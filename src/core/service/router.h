// FleetRouter — cost-based backend placement for the PricingService
// (DESIGN.md §2.8).
//
// Every worker pulls from the service's one shared queue. Left alone, a
// heterogeneous fleet then behaves as interchangeable pullers: a slow
// backend grabs the same batches as a fast one, and the paper's whole
// point — CPU/GPU/FPGA differ wildly in latency AND in joules per option
// — is invisible to placement. The router decides, at collection time,
// whether a free worker should claim the next chunk or leave it to a peer:
//
//   cost model    per backend, an affine fit of the calibrated analytic
//                 models (PricingAccelerator::modelled_batch_seconds):
//                 seconds(n) = fixed + n * per_option. Kernel IV.A's
//                 pipeline fill and IV.B's bulk transfer land in `fixed`,
//                 so small batches are costed honestly. Energy cost is the
//                 modelled watts / options-per-second, saturated to +inf
//                 for unmodelled operating points (never NaN — see
//                 energy::safe_joules_per_option).
//
//   policies      kOff: a free worker always claims (greedy work
//                 stealing off the shared queue).
//                 kLatency: a free worker claims unless a routable peer is
//                 predicted to finish the chunk sooner, counting the
//                 options that peer already has in flight.
//                 kEnergyBudget: only the backend with the lowest
//                 modelled J/option among those whose power draw fits
//                 `watts_budget` (0 = uncapped) claims; when nothing fits
//                 the budget, the lowest-J/option backend claims anyway —
//                 a budget must degrade placement, never deadlock it.
//
//   feedback      every launch reports measured wall time; the router
//                 keeps a per-backend EWMA of the measured/predicted
//                 ratio and multiplies it into subsequent latency
//                 predictions. A chronically slow backend (driver stall,
//                 thermal throttle, fault-injected delay) organically
//                 loses traffic long before its circuit breaker trips;
//                 workers additionally flip `routable` off while their
//                 BackendHealth is quarantined.
//
// Thread-safety: claim decisions, measurements, in-flight counts and
// routable flips all run on worker threads. All mutable state is
// per-backend atomics (EWMA as an atomic<double> with a CAS loop,
// in-flight options, routable flag) — no locks, and each backend sits on
// its own cache line.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/accelerator.h"

namespace binopt::core::service {

/// Placement policy for a heterogeneous fleet.
enum class RouterPolicy {
  kOff,           ///< every free worker claims (greedy work stealing)
  kLatency,       ///< minimize corrected completion time (default routing)
  kEnergyBudget,  ///< minimize modelled J/option under a watts budget
};

[[nodiscard]] std::string to_string(RouterPolicy policy);

/// Strict parse of "off" / "latency" / "energy" (PreconditionError
/// otherwise — a typo'd knob must fail loudly).
[[nodiscard]] RouterPolicy parse_router_policy(const std::string& text);

/// BINOPT_SERVICE_ROUTER env knob: unset -> kOff, else parsed strictly.
[[nodiscard]] RouterPolicy router_policy_from_env();

struct RouterConfig {
  RouterPolicy policy = RouterPolicy::kOff;
  /// kEnergyBudget: only backends drawing at most this many watts are
  /// preferred; 0 means uncapped. Ignored by kLatency.
  double watts_budget = 0.0;
  /// EWMA weight of the newest measured/predicted ratio, in (0, 1].
  double feedback_alpha = 0.35;
  /// Clamp on the EWMA correction factor (keeps one absurd measurement
  /// from zeroing or exploding a backend's predictions forever).
  double min_correction = 1e-3;
  double max_correction = 1e6;

  /// Rejects non-finite/negative budgets, alpha outside (0, 1], and
  /// inverted correction clamps with a PreconditionError naming the field.
  void validate() const;
};

class FleetRouter {
public:
  /// Modelled cost of one backend, fixed at construction.
  struct BackendCost {
    Target target = Target::kCpuReference;
    double watts = 0.0;
    double fixed_seconds = 0.0;       ///< per-launch overhead
    double seconds_per_option = 0.0;  ///< marginal cost
    double joules_per_option = 0.0;   ///< saturated; +inf when unmodelled
  };

  /// One backend per target, index-matched to the service's workers.
  FleetRouter(const std::vector<Target>& targets, std::size_t steps,
              RouterConfig config);

  [[nodiscard]] std::size_t backend_count() const { return backends_.size(); }
  [[nodiscard]] const BackendCost& cost(std::size_t backend) const;

  /// Model-only predicted wall seconds for one launch of n options.
  [[nodiscard]] double predicted_batch_seconds(std::size_t backend,
                                               std::size_t n) const;
  /// What the latency policy actually compares: EWMA-corrected model time
  /// for the backend's in-flight options plus a chunk of n.
  [[nodiscard]] double corrected_queue_seconds(std::size_t backend,
                                               std::size_t n) const;

  /// Whether `backend`, free right now, should claim the next chunk of n
  /// options from the shared queue under the configured policy. Unroutable
  /// (quarantined) peers are ignored while any backend is routable; ties
  /// claim, so identical backends never leave work waiting. Does not
  /// mutate router state.
  [[nodiscard]] bool should_claim(std::size_t backend, std::size_t n) const;

  /// `backend` now has n options in flight (0 once its batch settled).
  void set_in_flight(std::size_t backend, std::size_t n);

  /// One launch of n options on `backend` took `measured_ns` of wall time;
  /// folds measured/predicted into the EWMA correction and returns that
  /// ratio (for the predicted_vs_measured histogram).
  double record_measurement(std::size_t backend, std::size_t n,
                            std::uint64_t measured_ns);

  /// Worker-side health mirror: peers stop deferring to a quarantined
  /// backend without the router reading BackendHealth cross-thread.
  void set_routable(std::size_t backend, bool routable);
  [[nodiscard]] bool routable(std::size_t backend) const;

  [[nodiscard]] double correction(std::size_t backend) const;

private:
  /// Per-backend mutable state on its own cache line: a claiming worker
  /// reads every backend, each worker writes only its own.
  struct alignas(64) Backend {
    BackendCost cost;
    std::atomic<double> correction{1.0};
    std::atomic<std::uint64_t> in_flight{0};
    std::atomic<bool> routable{true};
  };

  [[nodiscard]] bool latency_claim(std::size_t backend, std::size_t n,
                                   bool routable_only) const;
  [[nodiscard]] std::size_t pick_energy(bool routable_only) const;
  [[nodiscard]] bool any_routable() const;

  RouterConfig config_;
  std::size_t steps_ = 0;
  std::vector<std::unique_ptr<Backend>> backends_;
};

}  // namespace binopt::core::service
