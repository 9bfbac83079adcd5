#include "core/service/greeks_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "finance/binomial_batch.h"

namespace binopt::core {

namespace {

/// Empirical q-quantile of an ascending-sorted sample (the ceil(q*n)-th
/// smallest element — same rank convention as LogHistogram::quantile).
double sorted_quantile(const std::vector<double>& sorted_ascending, double q) {
  if (sorted_ascending.empty()) return 0.0;
  const auto n = static_cast<double>(sorted_ascending.size());
  auto rank = static_cast<std::size_t>(q * n);
  if (static_cast<double>(rank) < q * n) ++rank;
  if (rank == 0) rank = 1;
  return sorted_ascending[std::min(rank, sorted_ascending.size()) - 1];
}

}  // namespace

std::vector<finance::Greeks> direct_greeks(
    const std::vector<finance::OptionSpec>& book, Target target,
    std::size_t steps) {
  std::vector<finance::GreeksBumpSet> sets;
  sets.reserve(book.size());
  std::vector<finance::OptionSpec> legs;
  legs.reserve(4 * book.size());
  for (const finance::OptionSpec& spec : book) {
    sets.push_back(finance::GreeksBumpSet::from(spec, steps));
    legs.push_back(sets.back().vega_up);
    legs.push_back(sets.back().vega_down);
    legs.push_back(sets.back().rho_up);
    legs.push_back(sets.back().rho_down);
  }
  PricingAccelerator::Config config;
  config.target = target;
  config.steps = steps;
  config.compute_rmse = false;
  PricingAccelerator direct(std::move(config));
  const std::vector<double> leg_prices = direct.run(legs).prices;
  std::vector<finance::Greeks> out;
  out.reserve(book.size());
  for (std::size_t i = 0; i < book.size(); ++i) {
    out.push_back(finance::assemble_greeks(
        finance::lattice_front_greeks(book[i], steps), sets[i],
        leg_prices[4 * i], leg_prices[4 * i + 1], leg_prices[4 * i + 2],
        leg_prices[4 * i + 3]));
  }
  return out;
}

GreeksService::GreeksService(PricingService& service, Config config)
    : service_(service), config_(config) {
  BINOPT_REQUIRE(config_.vol_bump > 0.0 && config_.rate_bump > 0.0,
                 "bumps must be positive");
}

GreeksQuote GreeksService::greeks_blocking(const finance::OptionSpec& spec) {
  return greeks_batch_blocking({spec}).front();
}

std::vector<GreeksQuote> GreeksService::greeks_batch_blocking(
    const std::vector<finance::OptionSpec>& specs) {
  if (specs.empty()) return {};
  const std::size_t n = specs.size();
  const std::size_t steps = service_.config().steps;
  // Every bump set first, so an invalid spec throws before any leg is
  // admitted.
  std::vector<finance::GreeksBumpSet> sets;
  sets.reserve(n);
  for (const finance::OptionSpec& spec : specs) {
    sets.push_back(finance::GreeksBumpSet::from(spec, steps, config_.vol_bump,
                                                config_.rate_bump));
  }
  // Option-major legs, each kind under its own cache-tag namespace so a
  // clamped (one-sided) leg — whose spec IS the unbumped spec — still never
  // shares an entry with a plain quote of the same contract.
  std::vector<finance::OptionSpec> legs;
  std::vector<std::uint32_t> tags;
  legs.reserve(4 * n);
  tags.reserve(4 * n);
  for (const finance::GreeksBumpSet& set : sets) {
    legs.insert(legs.end(),
                {set.vega_up, set.vega_down, set.rho_up, set.rho_down});
    tags.insert(tags.end(), {make_cache_tag(QuoteTagKind::kVegaUp),
                             make_cache_tag(QuoteTagKind::kVegaDown),
                             make_cache_tag(QuoteTagKind::kRhoUp),
                             make_cache_tag(QuoteTagKind::kRhoDown)});
  }
  greeks_requests_.fetch_add(n, std::memory_order_relaxed);
  // The micro-batcher sees all 4n legs at once — one many-kernel job —
  // while this thread computes the whole book's fronts in one vectorised
  // pass. The pricer is local, so concurrent callers share nothing. Only
  // the legs the service took are counted: a shed or shutdown refuses the
  // rest of the book.
  std::vector<Quote> quotes(4 * n);
  std::vector<finance::LatticeFront> fronts(n);
  service_.price_book_blocking(
      legs.data(), tags.data(), legs.size(), quotes.data(),
      [&](std::size_t admitted) {
        greeks_legs_.fetch_add(admitted, std::memory_order_relaxed);
        finance::BatchPricer(steps).fronts_into(specs.data(), n,
                                                fronts.data());
      });
  std::vector<GreeksQuote> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Quote* leg = &quotes[4 * i];
    GreeksQuote& quote = out[i];
    quote.vega_up = leg[0];
    quote.vega_down = leg[1];
    quote.rho_up = leg[2];
    quote.rho_down = leg[3];
    quote.vega_one_sided = sets[i].vega_one_sided;
    quote.rho_one_sided = sets[i].rho_one_sided;
    quote.greeks = finance::assemble_greeks(fronts[i], sets[i], leg[0].price,
                                            leg[1].price, leg[2].price,
                                            leg[3].price);
  }
  return out;
}

SweepReport GreeksService::sweep_blocking(const SweepRequest& request) {
  BINOPT_REQUIRE(!request.book.empty(), "sweep needs a non-empty book");
  BINOPT_REQUIRE(!request.grid.spot_factors.empty() &&
                     !request.grid.vol_shifts.empty() &&
                     !request.grid.rate_shifts.empty(),
                 "every shock axis needs at least one entry");

  const std::size_t scenarios = request.grid.scenario_count();
  const std::size_t book_size = request.book.size();
  const std::size_t shocked = scenarios * book_size;

  // Scenario-major leg layout, unshocked book appended last so the base
  // value rides the same submission (and the same epoch tag — a repeated
  // sweep re-prices nothing, base legs included).
  std::vector<finance::OptionSpec> legs;
  legs.reserve(shocked + book_size);
  for (const double spot_factor : request.grid.spot_factors) {
    for (const double vol_shift : request.grid.vol_shifts) {
      for (const double rate_shift : request.grid.rate_shifts) {
        for (const finance::OptionSpec& position : request.book) {
          finance::OptionSpec leg = position;
          leg.spot *= spot_factor;
          leg.volatility += vol_shift;
          leg.rate += rate_shift;
          legs.push_back(leg);
        }
      }
    }
  }
  legs.insert(legs.end(), request.book.begin(), request.book.end());

  const service::ServiceStats before = service_.stats();
  std::vector<double> prices(legs.size());
  service_.price_batch_blocking(
      legs.data(), legs.size(), prices.data(), service_.config().default_timeout,
      make_cache_tag(QuoteTagKind::kSweepLeg, request.epoch));
  // stats() already reflects every leg: the service merges a batch's
  // delta into its shard before resolving the batch's sinks.
  const service::ServiceStats after = service_.stats();

  SweepReport report;
  report.scenarios = scenarios;
  report.legs = shocked;
  for (std::size_t i = shocked; i < legs.size(); ++i) {
    report.book_value += prices[i];
  }

  report.scenario_pnl.resize(scenarios);
  std::vector<double> losses(scenarios);
  for (std::size_t s = 0; s < scenarios; ++s) {
    double value = 0.0;
    for (std::size_t i = 0; i < book_size; ++i) {
      value += prices[s * book_size + i];
    }
    const double pnl = value - report.book_value;
    report.scenario_pnl[s] = pnl;
    report.pnl.add(pnl);
    losses[s] = -pnl;
    if (losses[s] > 0.0) {
      report.loss_ticks.record(
          static_cast<std::uint64_t>(std::llround(losses[s] * 1e4)));
    }
  }

  std::sort(losses.begin(), losses.end());
  report.var95 = sorted_quantile(losses, 0.95);
  report.var99 = sorted_quantile(losses, 0.99);
  double tail_sum = 0.0;
  std::size_t tail_count = 0;
  for (const double loss : losses) {
    if (loss >= report.var95) {
      tail_sum += loss;
      ++tail_count;
    }
  }
  report.expected_shortfall95 =
      tail_count ? tail_sum / static_cast<double>(tail_count) : 0.0;

  report.cache_hits = after.cache_hits - before.cache_hits;
  report.options_priced = after.options_priced - before.options_priced;

  sweeps_.fetch_add(1, std::memory_order_relaxed);
  sweep_scenarios_.fetch_add(scenarios, std::memory_order_relaxed);
  sweep_legs_.fetch_add(legs.size(), std::memory_order_relaxed);
  return report;
}

GreeksServiceStats GreeksService::stats() const {
  GreeksServiceStats snapshot;
  snapshot.greeks_requests = greeks_requests_.load(std::memory_order_relaxed);
  snapshot.greeks_legs = greeks_legs_.load(std::memory_order_relaxed);
  snapshot.sweeps = sweeps_.load(std::memory_order_relaxed);
  snapshot.sweep_scenarios = sweep_scenarios_.load(std::memory_order_relaxed);
  snapshot.sweep_legs = sweep_legs_.load(std::memory_order_relaxed);
  return snapshot;
}

}  // namespace binopt::core
