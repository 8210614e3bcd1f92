// CBCS — Concurrent Brightness and Contrast Scaling (Cheng & Pedram,
// ref [5]).
//
// The strongest prior baseline: truncate the histogram at both ends to a
// band [g_l, g_u], spread the band affinely over the full grayscale
// (Eq. 3 / Fig. 2d), and dim the backlight.  The effective displayed
// luminance is ψ(x) = β · Φ_band(x).  The realization needs only clamp
// switches on the conventional reference ladder, but is limited to a
// single band with a single slope (paper §4.1) — the limitation HEBS's
// k-band ladder removes.
//
// The policy searches candidate bands from the image's histogram
// percentiles and candidate βs per band, keeping the feasible point
// (distortion within budget under the shared perceptual metric) with the
// highest power saving.
#pragma once

#include "core/dbs.h"

namespace hebs::pipeline {
class FrameContext;
}

namespace hebs::baseline {

/// Search-grid configuration for the CBCS policy.
struct CbcsOptions {
  /// Histogram mass allowed to be clipped at the dark end (candidates).
  std::vector<double> low_clip_quantiles = {0.0, 0.02, 0.05, 0.10, 0.20};
  /// Histogram mass kept below the bright clip point (candidates).
  std::vector<double> high_keep_quantiles = {0.80, 0.88, 0.95, 1.0};
  /// β candidates per band, as an interpolation between contrast-exact
  /// (β = g_u - g_l) and luminance-exact (β = g_u); 0 = contrast-exact.
  std::vector<double> beta_blend = {0.0, 0.5, 1.0};
};

/// The CBCS operating point for a band and backlight factor.
hebs::core::OperatingPoint cbcs_operating_point(double g_l, double g_u,
                                                double beta);

/// CBCS as a DBS policy (grid search).
class CbcsPolicy : public hebs::core::DbsPolicy {
 public:
  explicit CbcsPolicy(CbcsOptions opts = {},
                      hebs::quality::DistortionOptions distortion = {},
                      hebs::power::LcdSubsystemPower power_model =
                          hebs::power::LcdSubsystemPower::lp064v1());

  std::string name() const override;
  /// Builds a context for `image` and forwards to the context form.
  hebs::core::OperatingPoint choose(const hebs::image::GrayImage& image,
                                    double d_max_percent) const override;
  /// The grid search on an already-bound context, reusing its histogram
  /// and reference-side metric caches.  `ctx` must carry this policy's
  /// distortion options and power model.
  hebs::core::OperatingPoint choose(const hebs::pipeline::FrameContext& ctx,
                                    double d_max_percent) const;

 private:
  CbcsOptions opts_;
  hebs::quality::DistortionOptions distortion_;
  hebs::power::LcdSubsystemPower power_model_;
};

}  // namespace hebs::baseline
