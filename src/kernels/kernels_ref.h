// Scalar reference implementations of every KernelSet slot.
//
// These loops are the semantic definition of the subsystem: every SIMD
// backend must reproduce their output bit-for-bit (see kernels.h for
// the contract).  They are also reused by the vector backends for
// border and tail lanes, so a backend never re-implements the scalar
// arithmetic twice.
//
// The loops have internal linkage: each backend TU that calls or takes
// the address of one gets its own copy, compiled with that TU's ISA
// flags.  An inline function with external linkage would instead be
// emitted as a weak symbol by every such TU, and the linker would keep
// one copy for all of them — possibly an -msse4.2 or -mavx2 one behind
// the scalar table.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "kernels/kernels.h"

namespace hebs::kernels::ref {
namespace {

inline void histogram_u8(const std::uint8_t* src, std::size_t n,
                         std::uint64_t* counts) {
  for (std::size_t i = 0; i < n; ++i) ++counts[src[i]];
}

inline void lut_apply_u8(const std::uint8_t* src, std::size_t n,
                         const std::uint8_t* lut, std::uint8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = lut[src[i]];
}

/// Same arithmetic as image::RgbImage::to_luma has always used:
/// double products summed left to right, round-half-away, clamp.
inline std::uint8_t luma_bt601_one(std::uint8_t r, std::uint8_t g,
                                   std::uint8_t b) {
  const double luma = 0.299 * r + 0.587 * g + 0.114 * b;
  const double rounded = std::round(luma);
  const double clamped = rounded < 0.0 ? 0.0 : (rounded > 255.0 ? 255.0
                                                                : rounded);
  return static_cast<std::uint8_t>(clamped);
}

inline void luma_bt601_rgb8(const std::uint8_t* rgb, std::size_t n,
                            std::uint8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = luma_bt601_one(rgb[3 * i + 0], rgb[3 * i + 1], rgb[3 * i + 2]);
  }
}

inline std::uint64_t sum_u8(const std::uint8_t* src, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += src[i];
  return acc;
}

inline void histogram_u16(const std::uint16_t* src, std::size_t n,
                          std::uint64_t* counts) {
  for (std::size_t i = 0; i < n; ++i) ++counts[src[i]];
}

inline void lut_apply_u16(const std::uint16_t* src, std::size_t n,
                          const std::uint16_t* lut, std::uint16_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = lut[src[i]];
}

inline std::uint64_t sum_u16(const std::uint16_t* src, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += src[i];
  return acc;
}

/// One clamped-border output pixel of the horizontal blur.
inline double blur_row_one(const double* src, int w, int x,
                           const double* taps, int radius) {
  double acc = 0.0;
  for (int k = 0; k <= 2 * radius; ++k) {
    const int xx = std::clamp(x + k - radius, 0, w - 1);
    acc += taps[k] * src[xx];
  }
  return acc;
}

inline void blur_row_f64(const double* src, double* dst, int w,
                         const double* taps, int radius) {
  // Interior pixels need no clamping; the split keeps the hot loop
  // branch-free (taps accumulate in the same order in all three
  // regions, so the values are identical either way).
  const int x_lo = std::min(radius, w);
  const int x_hi = std::max(x_lo, w - radius);
  for (int x = 0; x < x_lo; ++x) dst[x] = blur_row_one(src, w, x, taps, radius);
  for (int x = x_lo; x < x_hi; ++x) {
    double acc = 0.0;
    const double* in = src + x - radius;
    for (int k = 0; k <= 2 * radius; ++k) acc += taps[k] * in[k];
    dst[x] = acc;
  }
  for (int x = x_hi; x < w; ++x) dst[x] = blur_row_one(src, w, x, taps, radius);
}

inline void blur_col_f64(const double* src, int w, int h, int y,
                         const double* taps, int radius, double* out_row) {
  const bool interior = y >= radius && y + radius < h;
  for (int x = 0; x < w; ++x) {
    double acc = 0.0;
    for (int k = 0; k <= 2 * radius; ++k) {
      const int yy = interior ? y + k - radius
                              : std::clamp(y + k - radius, 0, h - 1);
      acc += taps[k] * src[static_cast<std::size_t>(yy) * w + x];
    }
    out_row[x] = acc;
  }
}

/// One UIQI window quality index from its rectangle sums and the cached
/// reference moments — the exact per-window arithmetic of
/// quality::uiqi_from_stats (WindowMoments' means/variances/covariance
/// followed by the q formula with its two degenerate-denominator
/// special cases).
inline double uiqi_q_one(double rect_b, double rect_bb, double rect_ab,
                         double mean_a, double var_a, double n_px) {
  const double mean_b = rect_b / n_px;
  double var_b = rect_bb / n_px - mean_b * mean_b;
  const double cov_ab = rect_ab / n_px - mean_a * mean_b;
  // Clamp tiny negative variances caused by floating-point cancellation
  // (mean_a/var_a arrive pre-clamped from the reference-side cache).
  if (var_b < 0.0) var_b = 0.0;
  const double mean_prod = mean_a * mean_b;
  const double denom1 = mean_a * mean_a + mean_b * mean_b;
  const double denom2 = var_a + var_b;
  double q = 1.0;  // both denominators zero: identical flat windows
  if (denom1 * denom2 > 0.0) {
    q = 4.0 * cov_ab * mean_prod / (denom1 * denom2);
  } else if (denom1 > 0.0) {
    q = 2.0 * mean_prod / denom1;
  }
  return q;
}

inline void uiqi_q_row_f64(const double* mean_a, const double* var_a,
                           const double* b_top, const double* b_bot,
                           const double* bb_top, const double* bb_bot,
                           const double* ab_top, const double* ab_bot,
                           std::size_t n_win, int block, double n_px,
                           double* q_out) {
  const auto b = static_cast<std::size_t>(block);
  for (std::size_t x = 0; x < n_win; ++x) {
    // Same term order as IntegralImage::rect_sum.
    const double rect_b = b_bot[x + b] - b_bot[x] - b_top[x + b] + b_top[x];
    const double rect_bb =
        bb_bot[x + b] - bb_bot[x] - bb_top[x + b] + bb_top[x];
    const double rect_ab =
        ab_bot[x + b] - ab_bot[x] - ab_top[x + b] + ab_top[x];
    q_out[x] = uiqi_q_one(rect_b, rect_bb, rect_ab, mean_a[x], var_a[x], n_px);
  }
}

/// Squared error of the chord p_j -> p_i over points j..i, from the
/// prefix sums: for an interior point p_k the error is
/// (y_k - y_j) - s (x_k - x_j) with s the chord slope, and the summed
/// square expands into range sums of y, y², x, x², xy.
inline double plc_chord_err(const PlcStepArgs& a, std::size_t j) {
  const double pjx = a.px[j];
  const double pjy = a.py[j];
  const double s = (a.piy - pjy) / (a.pix - pjx);
  // Range sums over k in [j, i].
  const double n = static_cast<double>(a.i - j + 1);
  const double sum_x = a.sxi - a.sx[j];
  const double sum_y = a.syi - a.sy[j];
  const double sum_xx = a.sxxi - a.sxx[j];
  const double sum_yy = a.syyi - a.syy[j];
  const double sum_xy = a.sxyi - a.sxy[j];
  // Sum over k of ((y_k - y_j) - s (x_k - x_j))^2
  //  = Σ dy²  - 2 s Σ dx dy + s² Σ dx²
  const double sum_dyy = sum_yy - 2.0 * pjy * sum_y + n * pjy * pjy;
  const double sum_dxx = sum_xx - 2.0 * pjx * sum_x + n * pjx * pjx;
  const double sum_dxy =
      sum_xy - pjx * sum_y - pjy * sum_x + n * pjx * pjy;
  const double err = sum_dyy - 2.0 * s * sum_dxy + s * s * sum_dxx;
  return err > 0.0 ? err : 0.0;  // guard fp cancellation
}

/// Row s of column i: the lowest-j argmin of best[s-1][j] + col[j] over
/// j < j_end by a plain ascending strict-`<` scan.  It starts at
/// j = s - 1, since best[s-1][j] is +inf below that and cannot win.
inline void plc_row_update(const PlcStepArgs& a, std::size_t s,
                           std::size_t j_end) {
  const double* prev = a.best + (s - 1) * a.stride;
  double row_best = prev[s - 1] + a.col[s - 1];
  std::size_t row_parent = s - 1;
  for (std::size_t j = s; j < j_end; ++j) {
    const double candidate = prev[j] + a.col[j];
    if (candidate < row_best) {
      row_best = candidate;
      row_parent = j;
    }
  }
  a.best[s * a.stride + a.i] = row_best;
  a.parent[s * a.stride + a.i] = row_parent;
}

/// The column step.  DP row 0 is finite only at column 0, so a step
/// that fills row 1 alone needs the one chord e(0, i).
inline void plc_step_f64(const PlcStepArgs* args) {
  const PlcStepArgs& a = *args;
  const std::size_t j_end = a.rows > 1 ? a.i : 1;
  for (std::size_t j = 0; j < j_end; ++j) a.col[j] = plc_chord_err(a, j);
  for (std::size_t s = 1; s <= a.rows; ++s) plc_row_update(a, s, j_end);
}

}  // namespace
}  // namespace hebs::kernels::ref
