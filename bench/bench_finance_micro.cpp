// Micro-benchmarks of the host lattice kernels (google-benchmark).
//
// BM_LatticeFronts is the Greeks-front layer number: one 256-option book
// at 128 steps, its delta/gamma/theta fronts computed by one
// BatchPricer::fronts_into pass (what GreeksService::greeks_batch_blocking
// runs) against one scalar lattice_front_greeks per spec (the reference).
// BM_BatchPriceInto prices the same book at each forced kernel width. Every
// other lane of that book is a put, so both time the seven-op loop;
// BM_CallBookPriceInto prices it as all calls (the shape of greeks_book's
// bump legs and fronts), on the four-op loop.
// BM_CurveBookPriceInto prices the paper's 2000-call strike curve at 256
// steps in batches of 256 at each forced width; its calls come in strike
// order, so whole lane groups share a zero region, and skipped_share is
// the fraction of node updates the sweep skipped. exercise_free_share is
// the fraction of the curve's lanes the exercise-free guard admits (the
// sweep's four-op loop). BM_CurvePutBookPriceInto prices the same curve as
// American puts, which keep the seven-op loop. All report time per
// lattice node and per option; widths the CPU lacks are skipped.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "finance/binomial.h"
#include "finance/binomial_batch.h"
#include "finance/greeks.h"
#include "finance/workload.h"

namespace {

using namespace binopt;

constexpr std::size_t kBook = 256;
constexpr std::size_t kSteps = 128;

std::vector<finance::OptionSpec> mixed_book() {
  std::vector<finance::OptionSpec> book =
      finance::make_random_batch(kBook, /*seed=*/2026);
  for (std::size_t i = 0; i < book.size(); ++i) {
    if (i % 2 == 1) book[i].type = finance::OptionType::kPut;
  }
  return book;
}

void set_node_rate(benchmark::State& state, std::size_t book = kBook,
                   std::size_t steps = kSteps) {
  const double nodes = static_cast<double>(book) *
                       static_cast<double>((steps + 1) * (steps + 2) / 2);
  state.counters["per_node"] = benchmark::Counter(
      nodes * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["per_option"] = benchmark::Counter(
      static_cast<double>(book) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// Arg 0: batched fronts_into (automatic dispatch); arg 1: the scalar
/// reference, one lattice_front_greeks per spec.
void BM_LatticeFronts(benchmark::State& state) {
  const std::vector<finance::OptionSpec> book = mixed_book();
  std::vector<finance::LatticeFront> fronts(book.size());
  finance::BatchPricer pricer(kSteps);
  const bool batched = state.range(0) == 0;
  for (auto _ : state) {
    if (batched) {
      pricer.fronts_into(book.data(), book.size(), fronts.data());
    } else {
      for (std::size_t i = 0; i < book.size(); ++i) {
        fronts[i] = finance::lattice_front_greeks(book[i], kSteps);
      }
    }
    benchmark::DoNotOptimize(fronts.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(batched ? "fronts_into" : "lattice_front_greeks");
  set_node_rate(state);
}
BENCHMARK(BM_LatticeFronts)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Prices `book` at kSteps at the forced set_simd_override lane count
/// state.range(0) (0 = scalar).
void price_book(benchmark::State& state,
                const std::vector<finance::OptionSpec>& book) {
  const int lanes = static_cast<int>(state.range(0));
  if (static_cast<std::size_t>(lanes) > finance::BatchPricer::cpu_simd_width()) {
    state.SkipWithError("the CPU lacks this kernel width");
    return;
  }
  finance::BatchPricer::set_simd_override(lanes);
  std::vector<double> prices(book.size());
  finance::BatchPricer pricer(kSteps);
  for (auto _ : state) {
    pricer.price_into(book.data(), book.size(), prices.data());
    benchmark::DoNotOptimize(prices.data());
    benchmark::ClobberMemory();
  }
  finance::BatchPricer::set_simd_override(-1);
  set_node_rate(state);
}

void BM_BatchPriceInto(benchmark::State& state) {
  price_book(state, mixed_book());
}
BENCHMARK(BM_BatchPriceInto)->Arg(0)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_CallBookPriceInto(benchmark::State& state) {
  price_book(state, finance::make_random_batch(kBook, /*seed=*/2026));
}
BENCHMARK(BM_CallBookPriceInto)->Arg(0)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

/// Prices the 2000-option strike curve at 256 steps, as `type` options,
/// in batches of 256 at the forced width state.range(0) (0 = scalar).
void price_curve_book(benchmark::State& state, finance::OptionType type) {
  constexpr std::size_t kCurve = 2000;
  constexpr std::size_t kCurveSteps = 256;
  constexpr std::size_t kBatch = 256;
  const int lanes = static_cast<int>(state.range(0));
  if (static_cast<std::size_t>(lanes) > finance::BatchPricer::cpu_simd_width()) {
    state.SkipWithError("the CPU lacks this kernel width");
    return;
  }
  finance::BatchPricer::set_simd_override(lanes);
  std::vector<finance::OptionSpec> book = finance::make_curve_batch(kCurve);
  std::size_t exercise_free = 0;
  for (finance::OptionSpec& spec : book) {
    spec.type = type;
    const std::vector<double> leaves =
        finance::BinomialPricer(kCurveSteps).leaf_assets_iterative(spec);
    exercise_free += finance::detail::early_exercise_never_wins(
        spec, finance::LatticeParams::from(spec, kCurveSteps).discount,
        kCurveSteps, leaves.front(), leaves.back());
  }
  std::vector<double> prices(book.size());
  finance::BatchPricer pricer(kCurveSteps);
  for (auto _ : state) {
    for (std::size_t i = 0; i < book.size(); i += kBatch) {
      const std::size_t n = std::min(kBatch, book.size() - i);
      pricer.price_into(book.data() + i, n, prices.data() + i);
    }
    benchmark::DoNotOptimize(prices.data());
    benchmark::ClobberMemory();
  }
  finance::BatchPricer::set_simd_override(-1);
  set_node_rate(state, kCurve, kCurveSteps);
  // Node updates: kCurveSteps * (kCurveSteps + 1) / 2 per option.
  constexpr std::size_t kUpdates = kCurve * kCurveSteps * (kCurveSteps + 1) / 2;
  const double updates = static_cast<double>(kUpdates) *
                         static_cast<double>(state.iterations());
  state.counters["skipped_share"] =
      static_cast<double>(pricer.nodes_skipped()) / updates;
  state.counters["exercise_free_share"] =
      static_cast<double>(exercise_free) / static_cast<double>(kCurve);
}

/// The paper's curve of American calls: every lane passes the
/// exercise-free guard, so the sweep runs its four-op loop.
void BM_CurveBookPriceInto(benchmark::State& state) {
  price_curve_book(state, finance::OptionType::kCall);
}
BENCHMARK(BM_CurveBookPriceInto)
    ->Arg(0)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Its American-put mirror: puts may exercise early, so the sweep runs its
/// seven-op loop.
void BM_CurvePutBookPriceInto(benchmark::State& state) {
  price_curve_book(state, finance::OptionType::kPut);
}
BENCHMARK(BM_CurvePutBookPriceInto)
    ->Arg(0)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
