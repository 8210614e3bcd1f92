#include "baseline/dls.h"

#include <cmath>

#include "pipeline/frame_context.h"
#include "quality/metrics.h"
#include "transform/classic.h"
#include "util/error.h"

namespace hebs::baseline {

namespace {
constexpr double kBetaFloor = 0.05;  // CCFL cannot strike below this
}

hebs::core::OperatingPoint dls_operating_point(DlsMode mode, double beta) {
  HEBS_REQUIRE(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
  const hebs::transform::PwlCurve phi =
      mode == DlsMode::kBrightnessCompensation
          ? hebs::transform::brightness_shift_curve(beta)
          : hebs::transform::contrast_stretch_curve(beta);
  // ψ(x) = β · Φ(x): scale the compensated transform by the backlight.
  hebs::transform::PwlCurve::PointList pts;
  pts.reserve(phi.points().size());
  for (const auto& p : phi.points()) {
    pts.push_back({p.x, beta * p.y});
  }
  return {hebs::transform::PwlCurve(std::move(pts)), beta};
}

DlsPolicy::DlsPolicy(DlsMode mode,
                     hebs::quality::DistortionOptions distortion,
                     hebs::power::LcdSubsystemPower power_model)
    : mode_(mode),
      distortion_(distortion),
      power_model_(std::move(power_model)) {}

std::string DlsPolicy::name() const {
  return mode_ == DlsMode::kBrightnessCompensation ? "DLS-brightness"
                                                   : "DLS-contrast";
}

hebs::core::OperatingPoint DlsPolicy::choose(
    const hebs::image::GrayImage& image, double d_max_percent) const {
  hebs::core::HebsOptions eval_opts;
  eval_opts.distortion = distortion_;
  return choose(hebs::pipeline::FrameContext(image, eval_opts, power_model_),
                d_max_percent);
}

hebs::core::OperatingPoint DlsPolicy::choose(
    const hebs::pipeline::FrameContext& ctx, double d_max_percent) const {
  HEBS_REQUIRE(d_max_percent >= 0.0, "distortion budget must be >= 0");
  // One context for the whole bisection: the reference-side metric
  // caches are built once and shared by every probe.
  auto distortion_at = [&](double beta) {
    // Lean: probes only read the distortion; no raster is materialized.
    return ctx.evaluate_lean(dls_operating_point(mode_, beta))
        .distortion_percent;
  };
  // Distortion decreases as beta rises toward 1; find the deepest
  // feasible dimming by bisection.
  if (distortion_at(kBetaFloor) <= d_max_percent) {
    return dls_operating_point(mode_, kBetaFloor);
  }
  if (distortion_at(1.0) > d_max_percent) {
    return dls_operating_point(mode_, 1.0);
  }
  double infeasible = kBetaFloor;
  double feasible = 1.0;
  for (int i = 0; i < 20; ++i) {
    const double mid = (infeasible + feasible) / 2.0;
    if (distortion_at(mid) <= d_max_percent) {
      feasible = mid;
    } else {
      infeasible = mid;
    }
  }
  return dls_operating_point(mode_, feasible);
}

hebs::core::OperatingPoint DlsPolicy::choose_by_saturation(
    const hebs::image::GrayImage& image,
    double max_saturated_fraction) const {
  HEBS_REQUIRE(max_saturated_fraction >= 0.0 &&
                   max_saturated_fraction <= 1.0,
               "saturation budget must be in [0, 1]");
  auto saturation_at = [&](double beta) {
    const hebs::transform::PwlCurve phi =
        mode_ == DlsMode::kBrightnessCompensation
            ? hebs::transform::brightness_shift_curve(beta)
            : hebs::transform::contrast_stretch_curve(beta);
    return hebs::quality::saturated_fraction(image, phi.to_lut());
  };
  if (saturation_at(kBetaFloor) <= max_saturated_fraction) {
    return dls_operating_point(mode_, kBetaFloor);
  }
  if (saturation_at(1.0) > max_saturated_fraction) {
    return dls_operating_point(mode_, 1.0);
  }
  double infeasible = kBetaFloor;
  double feasible = 1.0;
  for (int i = 0; i < 20; ++i) {
    const double mid = (infeasible + feasible) / 2.0;
    if (saturation_at(mid) <= max_saturated_fraction) {
      feasible = mid;
    } else {
      infeasible = mid;
    }
  }
  return dls_operating_point(mode_, feasible);
}

}  // namespace hebs::baseline
