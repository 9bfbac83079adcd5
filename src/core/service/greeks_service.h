// GreeksService — streaming sensitivities and portfolio scenario sweeps on
// top of the batched PricingService (DESIGN.md §2.9).
//
// One Greeks request expands into the structured bump set of
// finance::GreeksBumpSet: delta/gamma/theta come from the interior lattice
// nodes, vega/rho from four re-pricing legs. A book of n requests is one
// PricingService::price_book_blocking call: its 4n tagged legs share one
// countdown sink on the caller's stack and flow through the service's
// batcher/router/lock-free spine like any other quotes, while the caller
// computes every front in one vectorised BatchPricer::fronts_into pass
// (bit-identical to finance::lattice_front_greeks). A single request is a
// one-option book. The assembled Greeks are bit-identical to direct
// binomial_greeks on the CPU-reference target because every moving part
// is shared: the same lattice-front arithmetic, the same clamped
// divisors, and leg prices the service already guarantees bit-identical
// to a direct accelerator run.
//
// A ScenarioSweep turns one submission into thousands of shocked legs
// (book × spot/vol/rate shock grid) and aggregates P&L into VaR-style
// summaries (OnlineStats + LogHistogram). Legs are cached under a
// surface/shock EPOCH tag: re-running a sweep against an unchanged surface
// re-prices nothing, while bumping the epoch invalidates every leg at
// once — no cache walking, the keys simply stop matching.
//
// Cache-tag discipline (the aliasing fix this file exists for): the quote
// cache quantizes specs onto a 1e-9 grid, so a bump smaller than the grid
// would collide a bumped leg with its unbumped neighbour and replay the
// wrong price into a finite difference. Every leg kind therefore carries
// its own CacheKey::tag namespace — plain quotes (0), the four bump legs,
// and sweep legs per epoch — so a bumped and an unbumped quote can never
// share a cache entry regardless of bump width.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/statistics.h"
#include "core/service/pricing_service.h"
#include "finance/greeks.h"
#include "finance/option.h"

namespace binopt::core {

/// CacheKey::tag namespaces. Plain quotes keep tag 0 (kPlain with epoch
/// 0); each Greeks bump leg and every sweep epoch gets a disjoint tag.
enum class QuoteTagKind : std::uint32_t {
  kPlain = 0,
  kVegaUp = 1,
  kVegaDown = 2,
  kRhoUp = 3,
  kRhoDown = 4,
  kSweepLeg = 5,
};

/// tag = (epoch << 3) | kind. The epoch wraps at 2^29 — after half a
/// billion surface revisions an entry from the same epoch modulo 2^29
/// could be replayed, long past any LRU entry's plausible lifetime.
[[nodiscard]] constexpr std::uint32_t make_cache_tag(QuoteTagKind kind,
                                                     std::uint64_t epoch = 0) {
  return (static_cast<std::uint32_t>(epoch & 0x1FFFFFFFull) << 3) |
         static_cast<std::uint32_t>(kind);
}

/// One assembled Greeks result with honest per-leg attribution: each
/// bump leg's Quote reports where that leg was actually priced (cache
/// hit, failover target, degraded CPU fallback) exactly as a plain
/// submit() would. A one-sided leg (see finance::GreeksBumpSet) repriced
/// the UNBUMPED spec — its quote is still real work the service did.
struct GreeksQuote {
  finance::Greeks greeks;
  Quote vega_up;
  Quote vega_down;
  Quote rho_up;
  Quote rho_down;
  bool vega_one_sided = false;
  bool rho_one_sided = false;
};

/// Shock grid for a scenario sweep: the cartesian product of the three
/// axes. Every axis must be non-empty; {1.0}/{0.0}/{0.0} is the identity
/// scenario.
struct ShockGrid {
  std::vector<double> spot_factors{1.0};  ///< multiplicative spot shocks
  std::vector<double> vol_shifts{0.0};    ///< additive volatility shocks
  std::vector<double> rate_shifts{0.0};   ///< additive rate shocks

  [[nodiscard]] std::size_t scenario_count() const {
    return spot_factors.size() * vol_shifts.size() * rate_shifts.size();
  }
};

/// A portfolio scenario sweep: price `book` under every grid scenario.
/// `epoch` names the market-surface revision the book is being swept
/// against; legs are cached per epoch (see file header).
struct SweepRequest {
  std::vector<finance::OptionSpec> book;
  ShockGrid grid;
  std::uint64_t epoch = 0;
};

/// Aggregated sweep outcome. Scenario index s enumerates the grid in
/// spot-major order: s = (i_spot * |vol_shifts| + i_vol) * |rate_shifts|
/// + i_rate.
struct SweepReport {
  std::size_t scenarios = 0;
  std::size_t legs = 0;     ///< shocked legs priced (book x scenarios)
  double book_value = 0.0;  ///< unshocked portfolio value
  /// Per-scenario portfolio P&L (shocked value - book_value), grid order.
  std::vector<double> scenario_pnl;
  OnlineStats pnl;  ///< mean/stddev/extrema over scenario_pnl
  /// Losses (max(0, -pnl)) in 1e-4 currency ticks; tail quantiles of the
  /// loss distribution without keeping every scenario.
  LogHistogram loss_ticks;
  /// Empirical loss quantiles of the scenario distribution (positive =
  /// loss; negative means the quantile scenario was profitable).
  double var95 = 0.0;
  double var99 = 0.0;
  double expected_shortfall95 = 0.0;  ///< mean loss at or beyond var95
  /// Service-side deltas attributable to this sweep (exact when no other
  /// traffic runs concurrently): how many legs the cache answered and how
  /// many reached an accelerator. An unchanged-epoch re-sweep shows
  /// options_priced == 0 — nothing was re-priced.
  std::uint64_t cache_hits = 0;
  std::uint64_t options_priced = 0;
};

/// Cumulative GreeksService counters (monotonic, snapshot via stats()).
/// greeks_legs + sweep_legs equals the number of service submissions this
/// layer generated — tests balance them against ServiceStats admission
/// counters. A sweep's legs are counted once it has priced, so the
/// balance holds for sweeps that did not throw.
struct GreeksServiceStats {
  std::uint64_t greeks_requests = 0;
  /// Bump legs the service took (counted in its requests_submitted): 4
  /// per request, fewer when a shed or shutdown refused part of a book.
  std::uint64_t greeks_legs = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t sweep_scenarios = 0;
  std::uint64_t sweep_legs = 0;  ///< shocked legs + base book legs
};

/// Bump widths for the vega/rho legs (forwarded to GreeksBumpSet::from).
struct GreeksConfig {
  double vol_bump = 1e-4;
  double rate_bump = 1e-4;
};

/// The reference a GreeksService result must match bit for bit: the same
/// lattice fronts and bump sets the service uses, with the four bump legs
/// of every request priced by one direct accelerator run on `target` — no
/// service, no batching, no cache. Parity gates compare against it.
[[nodiscard]] std::vector<finance::Greeks> direct_greeks(
    const std::vector<finance::OptionSpec>& book, Target target,
    std::size_t steps);

class GreeksService {
public:
  using Config = GreeksConfig;

  /// Borrows the service; the caller keeps it alive (and may share it
  /// with plain quote traffic — tags keep the cache honest).
  explicit GreeksService(PricingService& service, Config config = {});

  /// A one-option book: greeks_batch_blocking({spec}).
  [[nodiscard]] GreeksQuote greeks_blocking(const finance::OptionSpec& spec);

  /// Prices a book's Greeks through one PricingService::price_book_blocking
  /// call. Builds every bump set first (an invalid spec throws before any
  /// leg is admitted), lays the 4n legs out option-major — vega up, vega
  /// down, rho up, rho down, each under its kind's cache tag — and admits
  /// them into one stack sink; while the workers price them, computes the
  /// whole book's lattice fronts with one finance::BatchPricer::fronts_into
  /// pass, then assembles in input order. Returns only after every leg
  /// has settled, and throws the first leg failure to happen (timeout,
  /// backend error, shed, shutdown). Safe to call from many threads: the
  /// pricer and its scratch are local to the call.
  [[nodiscard]] std::vector<GreeksQuote> greeks_batch_blocking(
      const std::vector<finance::OptionSpec>& specs);

  /// Prices book x grid shocked legs (plus the unshocked book) through
  /// the service in one blocking submission and aggregates P&L/VaR.
  /// Shocked specs must remain valid (vol shifted below 0 is rejected at
  /// admission with ServiceRejectedError naming the field).
  [[nodiscard]] SweepReport sweep_blocking(const SweepRequest& request);

  [[nodiscard]] GreeksServiceStats stats() const;
  [[nodiscard]] PricingService& service() { return service_; }
  [[nodiscard]] const Config& config() const { return config_; }

private:
  PricingService& service_;
  Config config_;
  std::atomic<std::uint64_t> greeks_requests_{0};
  std::atomic<std::uint64_t> greeks_legs_{0};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> sweep_scenarios_{0};
  std::atomic<std::uint64_t> sweep_legs_{0};
};

}  // namespace binopt::core
