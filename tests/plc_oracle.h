// Test-only oracle for the PLC dynamic program (core/plc.cpp).
//
// This is the solver as it stood before the DP's loops were swapped:
// segment rows s outermost, and each row's column i found by a seeded,
// pruned argmin scan that recomputes the chord error e(j, i) in every
// row.  The formulas keep their operation order, so the oracle's `mse`
// bits and breakpoints are what plc_coarsen must reproduce exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>

#include "hebs/advanced/core.h"
#include "hebs/advanced/util.h"

namespace hebs::test_oracle {

/// Arguments of one row scan: chord tables, DP row s-1 and the i-side
/// terms hoisted out of the j loop.
struct PlcScanArgs {
  const double* px;
  const double* py;
  const double* sx;
  const double* sy;
  const double* sxx;
  const double* syy;
  const double* sxy;
  const double* prev;
  double pix, piy;
  double sxi, syi, sxxi, syyi, sxyi;
  std::size_t i;
  std::size_t j_begin;
  std::size_t j_seed;
};

inline double plc_chord_err(const PlcScanArgs& a, std::size_t j) {
  const double pjx = a.px[j];
  const double pjy = a.py[j];
  const double s = (a.piy - pjy) / (a.pix - pjx);
  const double n = static_cast<double>(a.i - j + 1);
  const double sum_x = a.sxi - a.sx[j];
  const double sum_y = a.syi - a.sy[j];
  const double sum_xx = a.sxxi - a.sxx[j];
  const double sum_yy = a.syyi - a.syy[j];
  const double sum_xy = a.sxyi - a.sxy[j];
  const double sum_dyy = sum_yy - 2.0 * pjy * sum_y + n * pjy * pjy;
  const double sum_dxx = sum_xx - 2.0 * pjx * sum_x + n * pjx * pjx;
  const double sum_dxy =
      sum_xy - pjx * sum_y - pjy * sum_x + n * pjx * pjy;
  const double err = sum_dyy - 2.0 * s * sum_dxy + s * s * sum_dxx;
  return err > 0.0 ? err : 0.0;
}

/// The lowest-j argmin of prev[j] + e(j, i) over [j_begin, i), seeded
/// at j_seed and skipping every j whose prev[j] already loses.
inline double plc_scan_f64(const PlcScanArgs* args, std::size_t* out_j) {
  const PlcScanArgs& a = *args;
  std::size_t row_parent = a.j_seed;
  double row_best = a.prev[row_parent] + plc_chord_err(a, row_parent);
  for (std::size_t j = a.j_begin; j < a.i; ++j) {
    if (a.prev[j] > row_best ||
        (a.prev[j] == row_best && j >= row_parent)) {
      continue;
    }
    const double candidate = a.prev[j] + plc_chord_err(a, j);
    if (candidate < row_best ||
        (candidate == row_best && j < row_parent)) {
      row_best = candidate;
      row_parent = j;
    }
  }
  *out_j = row_parent;
  return row_best;
}

/// Prefix-sum tables of one point list.
class ChordError {
 public:
  explicit ChordError(const hebs::transform::PwlCurve::PointList& pts)
      : px_(pts.size()),
        py_(pts.size()),
        sx_(pts.size() + 1, 0.0),
        sy_(pts.size() + 1, 0.0),
        sxx_(pts.size() + 1, 0.0),
        syy_(pts.size() + 1, 0.0),
        sxy_(pts.size() + 1, 0.0) {
    for (std::size_t k = 0; k < pts.size(); ++k) {
      px_[k] = pts[k].x;
      py_[k] = pts[k].y;
      sx_[k + 1] = sx_[k] + pts[k].x;
      sy_[k + 1] = sy_[k] + pts[k].y;
      sxx_[k + 1] = sxx_[k] + pts[k].x * pts[k].x;
      syy_[k + 1] = syy_[k] + pts[k].y * pts[k].y;
      sxy_[k + 1] = sxy_[k] + pts[k].x * pts[k].y;
    }
  }

  void fill(PlcScanArgs& a, std::size_t i) const {
    a.px = px_.data();
    a.py = py_.data();
    a.sx = sx_.data();
    a.sy = sy_.data();
    a.sxx = sxx_.data();
    a.syy = syy_.data();
    a.sxy = sxy_.data();
    a.pix = px_[i];
    a.piy = py_[i];
    a.sxi = sx_[i + 1];
    a.syi = sy_[i + 1];
    a.sxxi = sxx_[i + 1];
    a.syyi = syy_[i + 1];
    a.sxyi = sxy_[i + 1];
    a.i = i;
  }

 private:
  hebs::util::PoolVector<double> px_, py_;
  hebs::util::PoolVector<double> sx_, sy_, sxx_, syy_, sxy_;
};

constexpr std::size_t kMaxDpPoints = 4096;

/// plc_coarsen with the s-outer DP and the seeded scan.
inline hebs::core::PlcResult plc_coarsen(
    const hebs::transform::PwlCurve& exact, int segments) {
  const auto& pts = exact.points();
  const std::size_t n = pts.size();

  if (n > kMaxDpPoints) {
    const std::size_t stride = (n - 2) / (kMaxDpPoints - 1) + 1;
    hebs::util::PoolVector<std::size_t> sel;
    sel.reserve(kMaxDpPoints + 1);
    for (std::size_t i = 0; i + 1 < n; i += stride) sel.push_back(i);
    sel.push_back(n - 1);
    hebs::transform::PwlCurve::PointList sub;
    sub.reserve(sel.size());
    for (std::size_t idx : sel) sub.push_back(pts[idx]);
    hebs::core::PlcResult result =
        plc_coarsen(hebs::transform::PwlCurve(std::move(sub)), segments);
    for (std::size_t& idx : result.breakpoint_indices) idx = sel[idx];
    return result;
  }

  hebs::core::PlcResult result;
  if (static_cast<std::size_t>(segments) >= n - 1) {
    result.curve = exact;
    result.mse = 0.0;
    result.breakpoint_indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) result.breakpoint_indices[i] = i;
    return result;
  }

  const ChordError chord(pts);
  const auto m = static_cast<std::size_t>(segments);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  hebs::util::PoolVector<double> best((m + 1) * n, kInf);
  hebs::util::PoolVector<std::size_t> parent((m + 1) * n, 0);
  best[0] = 0.0;
  for (std::size_t s = 1; s <= m; ++s) {
    const double* prev = best.data() + (s - 1) * n;
    double* cur = best.data() + s * n;
    std::size_t* par = parent.data() + s * n;
    PlcScanArgs args;
    args.prev = prev;
    args.j_begin = s - 1;
    for (std::size_t i = s; i < n; ++i) {
      chord.fill(args, i);
      args.j_seed = i > s ? par[i - 1] : s - 1;
      std::size_t pj = 0;
      cur[i] = plc_scan_f64(&args, &pj);
      par[i] = pj;
    }
  }

  std::size_t best_s = m;
  for (std::size_t s = 1; s <= m; ++s) {
    if (best[s * n + n - 1] < best[best_s * n + n - 1]) best_s = s;
  }

  hebs::util::PoolVector<std::size_t> chosen;
  std::size_t i = n - 1;
  std::size_t s = best_s;
  while (true) {
    chosen.push_back(i);
    if (s == 0) break;
    i = parent[s * n + i];
    --s;
  }
  std::reverse(chosen.begin(), chosen.end());

  hebs::transform::PwlCurve::PointList qpts;
  qpts.reserve(chosen.size());
  for (std::size_t idx : chosen) qpts.push_back(pts[idx]);

  result.curve = hebs::transform::PwlCurve(std::move(qpts));
  result.mse = best[best_s * n + n - 1] / static_cast<double>(n);
  result.breakpoint_indices = std::move(chosen);
  return result;
}

}  // namespace hebs::test_oracle
