// Piecewise Linear Coarsening (PLC) — §4.1 of the paper.
//
//   PLC problem: given a piecewise-linear curve P = {p_1..p_n} (the exact
//   GHE transformation, one point per grayscale level), approximate it by
//   a curve Q = {q_1..q_m} with m << n segments, where Q's breakpoints
//   are a subset of P's including both endpoints (Eq. 8), minimizing the
//   mean squared error between the curves.
//
// Solved by dynamic programming (Eq. 9):
//   E(i, s) = min_j ( E(j, s-1) + e(j, i) )
// where e(j, i) is the squared error of replacing points j..i by the
// single chord p_j -> p_i.  With prefix sums, each e(j, i) is O(1).
// e(j, i) does not depend on s, so each call makes n(n-1)/2 chord
// evaluations, one column per breakpoint i shared by all m rows, plus
// O(m n²) adds and compares — the complexity the paper quotes.
// Few segments matter because each linear piece costs one controllable
// voltage source in the hierarchical reference driver.
#pragma once

#include <vector>

#include "transform/pwl.h"
#include "util/pool.h"

namespace hebs::core {

/// Output of the PLC coarsening.
struct PlcResult {
  /// The m-segment approximation Λ.
  hebs::transform::PwlCurve curve;
  /// Mean squared error between Λ and the exact curve at its breakpoints.
  double mse = 0.0;
  /// Indices into the exact curve's point list chosen as breakpoints
  /// (pool-backed: one PLC run per probed range per frame).
  hebs::util::PoolVector<std::size_t> breakpoint_indices;
};

/// Coarsens `exact` to at most `segments` linear segments (>= 1).
/// When the exact curve already has <= segments segments it is returned
/// unchanged with zero error.
PlcResult plc_coarsen(const hebs::transform::PwlCurve& exact, int segments);

}  // namespace hebs::core
