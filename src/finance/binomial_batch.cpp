#include "finance/binomial_batch.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "common/error.h"
#include "finance/lattice_sweep.h"

namespace binopt::finance {

namespace {

/// -1 automatic, else the forced width (1 scalar, 4 or 8 lanes).
std::atomic<int> g_simd_override{-1};

/// The scalar lane ops: one option per "vector".
struct ScalarOps {
  static constexpr std::size_t kLanes = 1;
  using V = double;

  static V load(const double* p) { return *p; }
  static void store(double* p, V v) { *p = v; }
  static V zero() { return 0.0; }
  static V mul(V a, V b) { return a * b; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V max(V a, V b) { return a > b ? a : b; }
  static bool none_greater(V a, V b) { return !(a > b); }
};

/// True when BINOPT_SIMD forces the scalar kernel (off|0|scalar); unset or
/// empty means automatic, and anything else is rejected.
bool env_forces_scalar() {
  const char* env = std::getenv("BINOPT_SIMD");
  if (env == nullptr || *env == '\0') return false;
  const std::string_view value(env);
  if (value == "off" || value == "0" || value == "scalar") return true;
  throw PreconditionError(std::string("BINOPT_SIMD must be one of off, 0, "
                                      "scalar (or unset), got '") +
                          env + "'");
}

/// Lanes of the next group: full-width groups, then (8-lane dispatch) one
/// 4-lane group if at least 4 options remain, then scalar.
std::size_t group_lanes(std::size_t width, std::size_t remaining) {
  if (width >= 8 && remaining >= 8) return 8;
  if (width >= 4 && remaining >= 4) return 4;
  return 1;
}

/// Fills lanes [0, width) from specs. Same validation + parameter
/// derivation (and the same exceptions, e.g. p outside (0,1)) as the
/// scalar pricer, in submission order. Put lanes get a negated spot and
/// strike, so their assets are the call chain's exact negation and
/// s - K is the put payoff's K - s, bit for bit. An American lane on which
/// early exercise never wins (detail::early_exercise_never_wins) gets the
/// European +inf exercise strike.
void load_lanes(const OptionSpec* specs, std::size_t width, std::size_t steps,
                ParamConvention convention, detail::LaneParams& lanes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Relabelling pays only if it leaves no lane that may exercise, so the
  // guard (and the leaf chain it needs) runs only when every American lane
  // is a call with no dividend and r > 0; a group without one has nothing
  // to relabel.
  bool american = false;
  bool candidates = true;
  for (std::size_t lane = 0; lane < width; ++lane) {
    const OptionSpec& spec = specs[lane];
    const LatticeParams lp = LatticeParams::from(spec, steps, convention);
    const double sign = spec.type == OptionType::kPut ? -1.0 : 1.0;
    lanes.dt[lane] = lp.dt;
    lanes.spot[lane] = sign * spec.spot;
    lanes.strike[lane] = sign * spec.strike;
    lanes.exercise_strike[lane] =
        spec.style == ExerciseStyle::kAmerican ? lanes.strike[lane] : kInf;
    lanes.up[lane] = lp.up;
    lanes.down[lane] = lp.down;
    lanes.prob_up[lane] = lp.prob_up;
    lanes.prob_down[lane] = lp.prob_down;
    lanes.discount[lane] = lp.discount;
    if (spec.style == ExerciseStyle::kAmerican) {
      american = true;
      candidates = candidates && spec.type == OptionType::kCall &&
                   spec.dividend == 0.0 && spec.rate > 0.0;
    }
  }
  if (!american || !candidates) return;
  // The sweep's leaf chain, lane-inner so the lanes' multiply chains
  // overlap: bottom[lane] ends as leaf 0, top[lane] as leaf `steps`.
  double bottom[detail::kMaxLanes];
  double top[detail::kMaxLanes];
  double up2[detail::kMaxLanes];
  for (std::size_t lane = 0; lane < width; ++lane) {
    bottom[lane] = lanes.spot[lane];
    up2[lane] = lanes.up[lane] * lanes.up[lane];
  }
  for (std::size_t i = 0; i < steps; ++i) {
    for (std::size_t lane = 0; lane < width; ++lane) {
      bottom[lane] *= lanes.down[lane];
    }
  }
  for (std::size_t lane = 0; lane < width; ++lane) top[lane] = bottom[lane];
  for (std::size_t i = 0; i < steps; ++i) {
    for (std::size_t lane = 0; lane < width; ++lane) top[lane] *= up2[lane];
  }
  for (std::size_t lane = 0; lane < width; ++lane) {
    if (specs[lane].style == ExerciseStyle::kAmerican &&
        detail::early_exercise_never_wins(specs[lane], lanes.discount[lane],
                                          steps, bottom[lane], top[lane])) {
      lanes.exercise_strike[lane] = kInf;
    }
  }
}

}  // namespace

bool detail::early_exercise_never_wins(const OptionSpec& spec,
                                       double discount, std::size_t steps,
                                       double bottom, double top) {
  // C * 2^-53 with the C = 24 of DESIGN.md §2.6.
  constexpr double kMargin = 24.0 * 0x1p-53;
  return spec.type == OptionType::kCall && spec.dividend == 0.0 &&
         spec.rate > 0.0 && bottom >= std::numeric_limits<double>::min() &&
         std::isfinite(top) &&
         spec.strike * (1.0 - discount) >
             kMargin * static_cast<double>(steps) * (top + spec.strike);
}

BatchPricer::BatchPricer(std::size_t steps, ParamConvention convention)
    : steps_(steps), convention_(convention) {
  BINOPT_REQUIRE(steps_ >= 1, "lattice needs at least one step");
  // A mistyped BINOPT_SIMD refuses to build a pricer rather than failing
  // every later batch.
  (void)simd_width();
  // Size the scratch for the widest group up front: which width runs first
  // depends on the first batch's shape, and the service's zero-allocation
  // guarantee must not hinge on that — after construction neither
  // price_into nor fronts_into touches the heap.
  lane_assets_.resize(steps_ + 1);
  lane_values_.resize(steps_ + 1);
}

std::size_t BatchPricer::cpu_simd_width() {
#if defined(__x86_64__) || defined(_M_X64)
  static const std::size_t width = [] {
    if (__builtin_cpu_supports("avx512f")) return std::size_t{8};
    return __builtin_cpu_supports("avx2") ? std::size_t{4} : std::size_t{1};
  }();
  return width;
#else
  return 1;
#endif
}

std::size_t BatchPricer::simd_width() {
  // BINOPT_SIMD is checked even under a forced width, so a bad value is an
  // error whichever way the width is chosen. The env is re-read per call
  // so tests can flip it; getenv is cheap relative to one lattice sweep.
  const bool scalar = env_forces_scalar();
  const int forced = g_simd_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<std::size_t>(forced);
  return scalar ? 1 : cpu_simd_width();
}

bool BatchPricer::simd_enabled() { return simd_width() > 1; }

void BatchPricer::set_simd_override(int lanes) {
  BINOPT_REQUIRE(lanes == -1 || lanes == 0 || lanes == 4 || lanes == 8,
                 "simd override must be -1 (auto), 0 (scalar), 4 or 8 "
                 "lanes, got ", lanes);
  BINOPT_REQUIRE(lanes <= static_cast<int>(cpu_simd_width()),
                 "simd override forces ", lanes,
                 " lanes but the CPU supports ", cpu_simd_width());
  g_simd_override.store(lanes == 0 ? 1 : lanes, std::memory_order_relaxed);
}

void BatchPricer::sweep(const detail::LaneParams& lanes, std::size_t width,
                        double* out, double* rows) {
  // Rows are contiguous, so the W-lane interleaved scratch of any width
  // is the first W*(steps+1) doubles.
  double* assets = lane_assets_.data()->lane;
  double* values = lane_values_.data()->lane;
  std::size_t rows_skipped = 0;
  if (width == 8) {
    rows_skipped =
        detail::sweep8_avx512(lanes, steps_, assets, values, out, rows);
  } else if (width == 4) {
    rows_skipped =
        detail::sweep4_avx2(lanes, steps_, assets, values, out, rows);
  } else {
    rows_skipped = detail::lattice_sweep<ScalarOps>(lanes, steps_, assets,
                                                    values, out, rows);
  }
  nodes_skipped_ += rows_skipped * width;
}

void BatchPricer::price_into(const OptionSpec* specs, std::size_t n,
                             double* out) {
  BINOPT_REQUIRE(specs != nullptr || n == 0, "null spec array");
  BINOPT_REQUIRE(out != nullptr || n == 0, "null output array");
  const std::size_t width = simd_width();
  detail::LaneParams lanes{};
  for (std::size_t i = 0; i < n;) {
    const std::size_t group = group_lanes(width, n - i);
    load_lanes(specs + i, group, steps_, convention_, lanes);
    sweep(lanes, group, out + i, nullptr);
    i += group;
  }
}

void BatchPricer::fronts_into(const OptionSpec* specs, std::size_t n,
                              LatticeFront* out) {
  BINOPT_REQUIRE(specs != nullptr || n == 0, "null spec array");
  BINOPT_REQUIRE(out != nullptr || n == 0, "null output array");
  BINOPT_REQUIRE(steps_ >= 2, "Greeks need at least 2 lattice steps");
  const std::size_t width = simd_width();
  detail::LaneParams lanes{};
  double prices[detail::kMaxLanes] = {};
  alignas(64) double rows[detail::kFrontRowCount * detail::kMaxLanes] = {};
  for (std::size_t i = 0; i < n;) {
    const std::size_t group = group_lanes(width, n - i);
    load_lanes(specs + i, group, steps_, convention_, lanes);
    sweep(lanes, group, prices, rows);
    for (std::size_t lane = 0; lane < group; ++lane) {
      // De-interleave this lane's ten captured nodes; a put lane's assets
      // are negated (load_lanes), so its asset rows are negated back.
      const auto node = [&](std::size_t r) { return rows[r * group + lane]; };
      const bool put = specs[i + lane].type == OptionType::kPut;
      const auto asset = [&](std::size_t r) {
        return put ? -node(r) : node(r);
      };
      const detail::FrontRows front_rows{{asset(0), asset(1), asset(2)},
                                         {node(3), node(4), node(5)},
                                         {asset(6), asset(7)},
                                         {node(8), node(9)}};
      out[i + lane] =
          detail::front_from_rows(prices[lane], front_rows, lanes.dt[lane]);
    }
    i += group;
  }
}

}  // namespace binopt::finance
