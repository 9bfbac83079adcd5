#include "core/service/router.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "energy/energy_model.h"

namespace binopt::core::service {

namespace {

/// Window for the affine fit of modelled_batch_seconds: one option pins
/// the fixed cost, a max_batch-sized span pins the marginal cost. The
/// models are affine in the batch size (fill/transfer + per-option work),
/// so the fit is exact, not an approximation.
constexpr std::size_t kFitSpan = 256;

}  // namespace

std::string to_string(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kOff: return "off";
    case RouterPolicy::kLatency: return "latency";
    case RouterPolicy::kEnergyBudget: return "energy";
  }
  return "unknown";
}

RouterPolicy parse_router_policy(const std::string& text) {
  if (text == "off") return RouterPolicy::kOff;
  if (text == "latency") return RouterPolicy::kLatency;
  if (text == "energy") return RouterPolicy::kEnergyBudget;
  throw PreconditionError("unknown router policy '" + text +
                          "' (expected off|latency|energy)");
}

RouterPolicy router_policy_from_env() {
  const char* env = std::getenv("BINOPT_SERVICE_ROUTER");
  if (env == nullptr || *env == '\0') return RouterPolicy::kOff;
  try {
    return parse_router_policy(env);
  } catch (const PreconditionError&) {
    throw PreconditionError(std::string("BINOPT_SERVICE_ROUTER must be "
                                        "off|latency|energy, got '") +
                            env + "'");
  }
}

void RouterConfig::validate() const {
  BINOPT_REQUIRE(std::isfinite(watts_budget) && watts_budget >= 0.0,
                 "router watts_budget must be finite and non-negative, got ",
                 watts_budget);
  BINOPT_REQUIRE(std::isfinite(feedback_alpha) && feedback_alpha > 0.0 &&
                     feedback_alpha <= 1.0,
                 "router feedback_alpha must be in (0, 1], got ",
                 feedback_alpha);
  BINOPT_REQUIRE(std::isfinite(min_correction) && min_correction > 0.0 &&
                     std::isfinite(max_correction) &&
                     max_correction >= min_correction,
                 "router correction clamp must satisfy 0 < min <= max, got [",
                 min_correction, ", ", max_correction, "]");
}

FleetRouter::FleetRouter(const std::vector<Target>& targets, std::size_t steps,
                         RouterConfig config)
    : config_(config), steps_(steps) {
  config_.validate();
  BINOPT_REQUIRE(!targets.empty(), "FleetRouter needs at least one backend");
  backends_.reserve(targets.size());
  for (const Target target : targets) {
    auto backend = std::make_unique<Backend>();
    BackendCost& cost = backend->cost;
    cost.target = target;
    cost.watts = PricingAccelerator::modelled_power_watts(target);
    // Exact affine decomposition of the model: t(n) = fixed + n * slope.
    const double t1 =
        PricingAccelerator::modelled_batch_seconds(target, steps, 1);
    const double t2 = PricingAccelerator::modelled_batch_seconds(
        target, steps, 1 + kFitSpan);
    cost.seconds_per_option =
        std::max((t2 - t1) / static_cast<double>(kFitSpan), 0.0);
    cost.fixed_seconds = std::max(t1 - cost.seconds_per_option, 0.0);
    BINOPT_REQUIRE(std::isfinite(cost.fixed_seconds) &&
                       std::isfinite(cost.seconds_per_option) &&
                       cost.seconds_per_option > 0.0,
                   "modelled batch cost for ", to_string(target),
                   " is not a positive finite rate");
    cost.joules_per_option = energy::safe_joules_per_option(
        PricingAccelerator::modelled_options_per_second(target, steps),
        cost.watts);
    backends_.push_back(std::move(backend));
  }
}

const FleetRouter::BackendCost& FleetRouter::cost(std::size_t backend) const {
  BINOPT_REQUIRE(backend < backends_.size(), "backend index out of range");
  return backends_[backend]->cost;
}

double FleetRouter::predicted_batch_seconds(std::size_t backend,
                                            std::size_t n) const {
  const BackendCost& c = cost(backend);
  return c.fixed_seconds + static_cast<double>(n) * c.seconds_per_option;
}

double FleetRouter::corrected_queue_seconds(std::size_t backend,
                                            std::size_t n) const {
  BINOPT_REQUIRE(backend < backends_.size(), "backend index out of range");
  const Backend& b = *backends_[backend];
  const double queued = static_cast<double>(
      b.in_flight.load(std::memory_order_relaxed) + n);
  const double model =
      b.cost.fixed_seconds + queued * b.cost.seconds_per_option;
  return model * b.correction.load(std::memory_order_relaxed);
}

bool FleetRouter::any_routable() const {
  for (const auto& backend : backends_) {
    if (backend->routable.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

bool FleetRouter::latency_claim(std::size_t backend, std::size_t n,
                                bool routable_only) const {
  // Claim unless some peer would finish this chunk strictly sooner, its
  // in-flight work included: a free backend that is merely the second
  // fastest still claims while the fastest is busy enough.
  const double own = corrected_queue_seconds(backend, n);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (i == backend) continue;
    if (routable_only &&
        !backends_[i]->routable.load(std::memory_order_relaxed)) {
      continue;
    }
    if (corrected_queue_seconds(i, n) < own) return false;
  }
  return true;
}

std::size_t FleetRouter::pick_energy(bool routable_only) const {
  // Two passes: first only backends under the watts budget, then — when
  // the budget excludes everything — all of them. A budget degrades
  // placement; it must never leave a chunk unclaimed.
  for (const bool budgeted : {true, false}) {
    bool found = false;
    std::size_t best = 0;
    double best_joules = std::numeric_limits<double>::infinity();
    double best_watts = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      const Backend& b = *backends_[i];
      if (routable_only && !b.routable.load(std::memory_order_relaxed)) {
        continue;
      }
      if (budgeted && config_.watts_budget > 0.0 &&
          b.cost.watts > config_.watts_budget) {
        continue;
      }
      // Strict lexicographic (J/option, watts) improvement; +inf J/option
      // (unmodelled) still participates so the fallback pass always finds
      // a backend.
      const bool better =
          !found || b.cost.joules_per_option < best_joules ||
          (b.cost.joules_per_option == best_joules &&
           b.cost.watts < best_watts);
      if (better) {
        found = true;
        best = i;
        best_joules = b.cost.joules_per_option;
        best_watts = b.cost.watts;
      }
    }
    if (found) return best;
  }
  return 0;
}

bool FleetRouter::should_claim(std::size_t backend, std::size_t n) const {
  BINOPT_REQUIRE(backend < backends_.size(), "backend index out of range");
  // Defer only to routable peers while any exists; with the whole fleet
  // quarantined, claim anyway (refusing would strand the queue).
  switch (config_.policy) {
    case RouterPolicy::kOff: return true;
    case RouterPolicy::kLatency:
      return latency_claim(backend, n, any_routable());
    case RouterPolicy::kEnergyBudget:
      return pick_energy(any_routable()) == backend;
  }
  return true;
}

void FleetRouter::set_in_flight(std::size_t backend, std::size_t n) {
  BINOPT_REQUIRE(backend < backends_.size(), "backend index out of range");
  backends_[backend]->in_flight.store(n, std::memory_order_relaxed);
}

double FleetRouter::record_measurement(std::size_t backend, std::size_t n,
                                       std::uint64_t measured_ns) {
  BINOPT_REQUIRE(backend < backends_.size(), "backend index out of range");
  BINOPT_REQUIRE(n >= 1, "measurement needs at least one option");
  Backend& b = *backends_[backend];
  const double predicted = predicted_batch_seconds(backend, n);
  const double measured = static_cast<double>(measured_ns) * 1e-9;
  // predicted > 0 by construction (seconds_per_option validated positive).
  double ratio = measured / predicted;
  if (!std::isfinite(ratio)) ratio = config_.max_correction;
  ratio = std::clamp(ratio, config_.min_correction, config_.max_correction);
  // CAS loop: only this backend's worker writes, but stats readers and a
  // future multi-writer stay correct for free.
  double old = b.correction.load(std::memory_order_relaxed);
  double next = 0.0;
  do {
    next = std::clamp((1.0 - config_.feedback_alpha) * old +
                          config_.feedback_alpha * ratio,
                      config_.min_correction, config_.max_correction);
  } while (!b.correction.compare_exchange_weak(old, next,
                                               std::memory_order_relaxed));
  return ratio;
}

void FleetRouter::set_routable(std::size_t backend, bool routable) {
  BINOPT_REQUIRE(backend < backends_.size(), "backend index out of range");
  backends_[backend]->routable.store(routable, std::memory_order_relaxed);
}

bool FleetRouter::routable(std::size_t backend) const {
  BINOPT_REQUIRE(backend < backends_.size(), "backend index out of range");
  return backends_[backend]->routable.load(std::memory_order_relaxed);
}

double FleetRouter::correction(std::size_t backend) const {
  BINOPT_REQUIRE(backend < backends_.size(), "backend index out of range");
  return backends_[backend]->correction.load(std::memory_order_relaxed);
}

}  // namespace binopt::core::service
