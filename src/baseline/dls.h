// DLS — Dynamic backlight Luminance Scaling (Chang, Choi, Shim — ref [4]).
//
// The first backlight-scaling technique: dim to β and compensate with a
// global pixel shift (Eq. 2a, "brightness compensation") or a global
// stretch from the origin (Eq. 2b, "contrast enhancement").  Both clip at
// the bright end, so their effective displayed-luminance transforms are
//
//   brightness:  ψ(x) = β · min(1, x + 1 - β)
//   contrast:    ψ(x) = β · min(1, x / β)  =  min(β, x)
//
// Reference [4] measures distortion as the fraction of pixels driven to
// saturation; we provide that policy (`choose_by_saturation`) plus a
// metric-fair policy that bisects β against the same perceptual metric
// HEBS uses — the comparison protocol behind the paper's "15% additional
// saving" claim.
#pragma once

#include "core/dbs.h"

namespace hebs::pipeline {
class FrameContext;
}

namespace hebs::baseline {

/// Which of the two DLS compensation mechanisms to use.
enum class DlsMode {
  kBrightnessCompensation,  ///< Eq. 2a / Fig. 2b
  kContrastEnhancement,     ///< Eq. 2b / Fig. 2c
};

/// The DLS operating point at a given β.
hebs::core::OperatingPoint dls_operating_point(DlsMode mode, double beta);

/// DLS as a DBS policy: bisects β until the measured distortion meets
/// the budget.
class DlsPolicy : public hebs::core::DbsPolicy {
 public:
  explicit DlsPolicy(DlsMode mode,
                     hebs::quality::DistortionOptions distortion = {},
                     hebs::power::LcdSubsystemPower power_model =
                         hebs::power::LcdSubsystemPower::lp064v1());

  std::string name() const override;
  /// Builds a context for `image` and forwards to the context form.
  hebs::core::OperatingPoint choose(const hebs::image::GrayImage& image,
                                    double d_max_percent) const override;
  /// The bisection on an already-bound context, reusing its histogram
  /// and reference-side metric caches.  `ctx` must carry this policy's
  /// distortion options and power model.
  hebs::core::OperatingPoint choose(const hebs::pipeline::FrameContext& ctx,
                                    double d_max_percent) const;

  /// The policy of the original paper [4]: deepest β whose transformation
  /// saturates at most `max_saturated_fraction` of the image's pixels.
  hebs::core::OperatingPoint choose_by_saturation(
      const hebs::image::GrayImage& image,
      double max_saturated_fraction) const;

  DlsMode mode() const noexcept { return mode_; }

 private:
  DlsMode mode_;
  hebs::quality::DistortionOptions distortion_;
  hebs::power::LcdSubsystemPower power_model_;
};

}  // namespace hebs::baseline
