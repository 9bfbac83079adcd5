// One CRR lattice sweep over W option lanes, written once over a lane-ops
// struct and instantiated by each kernel TU: binomial_avx512.cpp (8 lanes),
// binomial_avx2.cpp (4) and binomial_batch.cpp (1, scalar). See
// binomial_batch.h for the bitwise-parity argument and DESIGN.md §2.6.
//
// Include this ONLY from a kernel TU. Everything here has internal linkage
// (anonymous namespace), so each TU keeps its own copy compiled for its own
// ISA. With external linkage the template instances would be one COMDAT
// symbol across TUs, and the linker could keep the AVX-512 copy for the
// AVX2 or scalar caller: SIGILL on an AVX2-only host.
//
// An Ops struct provides, per W-lane vector V: kLanes; load/store
// (unaligned); zero(); mul/add/sub; max with vmaxpd semantics
// (a > b ? a : b, so b on ties and whenever either is NaN); and
// none_greater(a, b), true when no lane has a > b (false on NaN).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "finance/binomial_batch.h"

namespace binopt::finance::detail {
namespace {

/// Copies level t in {1, 2} (t+1 nodes of assets, then of values) into its
/// slot of the row capture: t = 2 at rows[0, 6W), t = 1 at rows[6W, 10W).
template <std::size_t W>
inline void capture_level(std::size_t t, const double* assets,
                          const double* values, double* rows) {
  const std::size_t doubles = (t + 1) * W;
  double* row = rows + (t == 2 ? 0 : 6 * W);
  std::memcpy(row, assets, doubles * sizeof(double));
  std::memcpy(row + doubles, values, doubles * sizeof(double));
}

/// True when every one of the W lane doubles at `row` is +0, bit for bit.
template <std::size_t W>
inline bool zero_row(const double* row) {
  for (std::size_t lane = 0; lane < W; ++lane) {
    if (std::bit_cast<std::uint64_t>(row[lane]) != 0) return false;
  }
  return true;
}

/// Backward induction from the leaf level down to level 0, one rolling row
/// of lane-interleaved assets and values; returns the node rows it skipped.
/// `zero_rows` is the leaf level's zero region (rows +0 in every lane, at
/// the bottom for an all-call group, at the top for an all-put group).
///
/// kExercise = true is the seven-op loop: per node, asset roll-up first,
/// then discount * (p*V_up + q*V_down) with the products rounded before the
/// add (no FMA), then the early-exercise max against the exercise strike
/// (+inf on lanes that never exercise, so the max returns the continuation
/// there) — the scalar rolling-array loop's order of operations exactly.
/// kExercise = false is the four-op loop for a group whose every exercise
/// strike is +inf: the max would return the continuation at every node, so
/// it stores the continuation and rolls no asset row except the three the
/// front capture reads (DESIGN.md §2.6).
///
/// The four-op loop advances two levels per pass over the row at the
/// vector widths, one at scalar; the seven-op loop always one. A
/// two-level pass walks k upward: it computes level t's node k+1 from the
/// row (still level t+1 there), keeps it in a register, computes level
/// t-1's node k from it and level t's node k carried from the step
/// before, and stores only that, into row k, which no later read in the
/// pass touches. Every node keeps its two children and its op order, bit
/// for bit. The capture levels t = 2 and t = 1 run one level at a time.
template <class Ops, bool kExercise>
std::size_t induction(const LaneParams& lanes, std::size_t steps, bool calls,
                      std::size_t zero_rows, double* assets, double* values,
                      double* rows) {
  constexpr std::size_t W = Ops::kLanes;
  // Levels per pass. Scalar keeps one: GCC vectorises the one-level loop
  // across nodes, not a two-level pass's carried node (DESIGN.md §2.6).
  constexpr std::size_t kLevels = (kExercise || W == 1) ? 1 : 2;
  using V = typename Ops::V;
  const V up = Ops::load(lanes.up);
  const V prob_up = Ops::load(lanes.prob_up);
  const V prob_down = Ops::load(lanes.prob_down);
  const V discount = Ops::load(lanes.discount);
  const V exercise_strike = Ops::load(lanes.exercise_strike);
  const auto roll_assets = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) {
      Ops::store(assets + W * k, Ops::mul(Ops::load(assets + W * k), up));
    }
  };
  const auto continuation = [&](V value_up, V value_down) {
    return Ops::mul(discount, Ops::add(Ops::mul(prob_up, value_up),
                                       Ops::mul(prob_down, value_down)));
  };

  std::size_t skipped = 0;
  // Enters level t: shrinks the zero region to it, counts the region's rows
  // as skipped, rolls the captured asset rows (four-op loop) and returns
  // the nodes [first, last) the level computes; the rest are the region.
  const auto enter_level = [&](std::size_t t) {
    // A node is in the region when both its children were, so each level's
    // region is one row shorter.
    zero_rows = zero_rows > 0 ? zero_rows - 1 : 0;
    if constexpr (kExercise) {
      // Assets are monotone in k, so the edge node (top for calls, bottom
      // for puts) holds the region's largest asset: if a > Kx there in any
      // lane, the whole level is computed.
      if (zero_rows > 0) {
        const std::size_t edge = calls ? zero_rows - 1 : t + 1 - zero_rows;
        const V a = Ops::mul(Ops::load(assets + W * edge), up);
        if (!Ops::none_greater(a, exercise_strike)) zero_rows = 0;
      }
    } else if (rows != nullptr) {
      // The same multiply chain per row as the full roll: leaf k times up
      // once per level.
      roll_assets(0, t + 1 < 3 ? t + 1 : 3);
    }
    skipped += zero_rows;
    struct Nodes {
      std::size_t first;
      std::size_t last;
    };
    return Nodes{calls ? zero_rows : 0, t + 1 - (calls ? 0 : zero_rows)};
  };

  for (std::size_t t = steps; t-- > 0;) {
    if (kLevels == 2 && t > 0 && (rows == nullptr || t > 2)) {
      // Levels t and t-1. Where level t-1's edge node has a child in level
      // t's zero region, that child comes from two +0 rows and is +0 (the
      // +0 algebra), the bits the one-level loop reads from its row.
      enter_level(t);
      const auto [first, last] = enter_level(--t);
      V above = Ops::load(values + W * (first + 1));
      V carried = continuation(above, Ops::load(values + W * first));
      for (std::size_t k = first; k < last; ++k) {
        const V row_up = Ops::load(values + W * (k + 2));
        const V node = continuation(row_up, above);
        Ops::store(values + W * k, continuation(node, carried));
        above = row_up;
        carried = node;
      }
    } else {
      const auto [first, last] = enter_level(t);
      if constexpr (kExercise) roll_assets(0, first);
      for (std::size_t k = first; k < last; ++k) {
        const V value = continuation(Ops::load(values + W * (k + 1)),
                                     Ops::load(values + W * k));
        if constexpr (kExercise) {
          const V a = Ops::mul(Ops::load(assets + W * k), up);
          Ops::store(assets + W * k, a);
          Ops::store(values + W * k, Ops::max(Ops::sub(a, exercise_strike),
                                              value));
        } else {
          Ops::store(values + W * k, value);
        }
      }
      if constexpr (kExercise) roll_assets(last, t + 1);
    }
    if (rows != nullptr && (t == 2 || t == 1)) {
      capture_level<W>(t, assets, values, rows);
    }
  }
  return skipped;
}

/// Prices kLanes options through one sweep into out[0..kLanes) and returns
/// the node rows it skipped (one row is one node in each of the kLanes
/// lanes). `assets` and `values` are lane-interleaved scratch of
/// kLanes*(steps+1) doubles; a non-null `rows` (kFrontRowCount*kLanes
/// doubles) receives the t = 2 and t = 1 rows, once per level, outside the
/// node loop. Put lanes carry negated assets (LaneParams), and so do their
/// captured asset rows.
template <class Ops>
std::size_t lattice_sweep(const LaneParams& lanes, std::size_t steps,
                          double* assets, double* values, double* out,
                          double* rows) {
  constexpr std::size_t W = Ops::kLanes;
  using V = typename Ops::V;

  // Leaves by iterated multiplication — the same multiply chain, in the
  // same order, as BinomialPricer::leaf_assets_iterative, one option per
  // lane — and their payoff max(s - K, 0) with the signed strike.
  {
    const V up = Ops::load(lanes.up);
    const V down = Ops::load(lanes.down);
    const V strike = Ops::load(lanes.strike);
    const V zero = Ops::zero();
    V s = Ops::load(lanes.spot);
    for (std::size_t i = 0; i < steps; ++i) s = Ops::mul(s, down);
    const V up2 = Ops::mul(up, up);
    for (std::size_t k = 0; k <= steps; ++k) {
      Ops::store(assets + W * k, s);
      Ops::store(values + W * k, Ops::max(Ops::sub(s, strike), zero));
      s = Ops::mul(s, up2);
    }
  }
  // With steps == 2 the leaf row IS the t = 2 level; the induction below
  // only visits t < steps.
  if (rows != nullptr && steps == 2) capture_level<W>(2, assets, values, rows);

  // The zero region: rows that are +0 in every lane, at the bottom of the
  // level for an all-call group and at the top for an all-put group (its
  // assets are negated, so they fall with k). A mixed group has none.
  // Inside it a node's children are both +0, so its continuation is +0 and
  // its value max(a - Kx, +0) is the +0 it already holds unless a > Kx
  // (DESIGN.md §2.6); the node only rolls its asset up, or, in the four-op
  // loop, is not touched at all.
  bool calls = true;
  bool puts = true;
  bool exercise = false;
  for (std::size_t lane = 0; lane < W; ++lane) {
    calls = calls && lanes.spot[lane] > 0.0;
    puts = puts && lanes.spot[lane] < 0.0;
    exercise = exercise || lanes.exercise_strike[lane] !=
                               std::numeric_limits<double>::infinity();
  }
  std::size_t zero_rows = 0;
  if (calls || puts) {
    while (zero_rows <= steps &&
           zero_row<W>(values +
                       W * (calls ? zero_rows : steps - zero_rows))) {
      ++zero_rows;
    }
  }
  // The loop is chosen once per group: seven ops per node if any lane may
  // exercise early, else four.
  const std::size_t skipped =
      exercise ? induction<Ops, true>(lanes, steps, calls, zero_rows, assets,
                                      values, rows)
               : induction<Ops, false>(lanes, steps, calls, zero_rows, assets,
                                       values, rows);
  Ops::store(out, Ops::load(values));
  return skipped;
}

}  // namespace
}  // namespace binopt::finance::detail
