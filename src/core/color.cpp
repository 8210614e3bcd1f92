#include "core/color.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "kernels/kernels.h"
#include "util/error.h"
#include "util/mathutil.h"
#include "util/pool.h"

namespace hebs::core {

const char* color_mode_name(ColorMode mode) noexcept {
  switch (mode) {
    case ColorMode::kSharedCurve: return "shared-curve";
    case ColorMode::kLumaRatio: return "luma-ratio";
  }
  return "unknown";
}

bool parse_color_mode(std::string_view name, ColorMode* out) noexcept {
  if (name == "shared-curve") {
    *out = ColorMode::kSharedCurve;
    return true;
  }
  if (name == "luma-ratio") {
    *out = ColorMode::kLumaRatio;
    return true;
  }
  return false;
}

namespace {

/// The paper's §2 application: the shared 8-bit quantized curve drives
/// every sub-pixel byte, one dispatched kernel call per image.
hebs::image::RgbImage apply_shared_curve(const hebs::image::RgbImage& image,
                                         const hebs::transform::Lut& lut) {
  hebs::image::RgbImage out(image.width(), image.height());
  const std::size_t pixels =
      static_cast<std::size_t>(image.width()) * image.height();
  std::array<std::uint8_t, hebs::transform::Lut::kSize> table;
  for (int i = 0; i < hebs::transform::Lut::kSize; ++i) {
    table[static_cast<std::size_t>(i)] = lut[i];
  }
  // Interleaved sub-pixel bytes all map through the same table, so the
  // raster is one 3 * pixels byte-LUT pass.
  hebs::kernels::active().lut_apply_u8(image.data().data(), 3 * pixels,
                                       table.data(), out.data().data());
  return out;
}

/// Chroma-preserving application: per pixel, luma y maps to ψ(y) and
/// all channels scale by the shared factor 255·ψ(y)/y.  The division
/// is hoisted per level (256 entries), so the inner loop is one table
/// read and three mul/round/clamp per pixel.  `luma` (nullable) is the
/// caller's already-extracted image.to_luma() raster; without it the
/// extraction kernel runs here row by row.
hebs::image::RgbImage apply_luma_ratio(const hebs::image::RgbImage& image,
                                       const hebs::transform::FloatLut& levels,
                                       const hebs::transform::Lut& qlut,
                                       double beta,
                                       const hebs::image::GrayImage* luma) {
  hebs::image::RgbImage out(image.width(), image.height());
  // scale[y] = 255·ψ(y)/y; y == 0 has no ratio (flagged negative).
  std::array<double, hebs::transform::FloatLut::kSize> scale;
  scale[0] = -1.0;
  for (int y = 1; y < hebs::transform::FloatLut::kSize; ++y) {
    scale[static_cast<std::size_t>(y)] =
        levels[y] * static_cast<double>(hebs::image::kMaxPixel) /
        static_cast<double>(y);
  }
  // A scaled channel clamps at the backlight's physical ceiling β —
  // transmittance cannot exceed one, so no sub-pixel can be displayed
  // brighter than β·255 (the same ceiling displayed_levels imposes on
  // the shared-curve mode).
  const double ceiling = beta * static_cast<double>(hebs::image::kMaxPixel);
  const int w = image.width();
  const auto& kernels = hebs::kernels::active();
  hebs::util::PoolVector<std::uint8_t> luma_row;
  if (luma == nullptr) luma_row.resize(static_cast<std::size_t>(w));
  const auto src = image.data();
  auto dst = out.data();
  for (int row = 0; row < image.height(); ++row) {
    const std::size_t base = static_cast<std::size_t>(row) * w * 3;
    const std::uint8_t* y_row;
    if (luma != nullptr) {
      y_row = luma->pixels().data() + static_cast<std::size_t>(row) * w;
    } else {
      kernels.luma_bt601_rgb8(src.data() + base, static_cast<std::size_t>(w),
                              luma_row.data());
      y_row = luma_row.data();
    }
    for (int x = 0; x < w; ++x) {
      const std::size_t p = base + static_cast<std::size_t>(x) * 3;
      const double s = scale[y_row[x]];
      if (s < 0.0) {
        // Zero luma: all channels are (near) black and carry no
        // ratio; the shared curve is the deterministic fallback.
        dst[p + 0] = qlut[src[p + 0]];
        dst[p + 1] = qlut[src[p + 1]];
        dst[p + 2] = qlut[src[p + 2]];
        continue;
      }
      for (int c = 0; c < 3; ++c) {
        dst[p + static_cast<std::size_t>(c)] =
            static_cast<std::uint8_t>(std::lround(std::min(
                s * src[p + static_cast<std::size_t>(c)], ceiling)));
      }
    }
  }
  return out;
}

}  // namespace

hebs::image::RgbImage apply_to_color(const hebs::image::RgbImage& image,
                                     const OperatingPoint& point,
                                     ColorMode mode,
                                     const hebs::image::GrayImage* luma) {
  HEBS_REQUIRE(!image.empty(), "cannot transform an empty image");
  HEBS_REQUIRE(point.beta > 0.0 && point.beta <= 1.0,
               "beta must be in (0, 1]");
  HEBS_REQUIRE(luma == nullptr || (luma->width() == image.width() &&
                                   luma->height() == image.height()),
               "luma raster does not match the image dimensions");
  // Per-level displayed luminance, shared by all channels: one sweep
  // over the curve, then the shared 8-bit quantization rule.
  const hebs::transform::FloatLut levels = displayed_levels(point);
  const hebs::transform::Lut lut = levels.quantize();
  if (mode == ColorMode::kLumaRatio) {
    return apply_luma_ratio(image, levels, lut, point.beta, luma);
  }
  return apply_shared_curve(image, lut);
}

ColorRendering render_color(const hebs::image::RgbImage& image,
                            const hebs::image::GrayImage& luma,
                            const OperatingPoint& point, ColorMode mode) {
  ColorRendering out;
  out.displayed = apply_to_color(image, point, mode, &luma);
  out.hue_error = chromaticity_error(image, out.displayed);
  return out;
}

double chromaticity_error(const hebs::image::RgbImage& a,
                          const hebs::image::RgbImage& b) {
  HEBS_REQUIRE(!a.empty() && !b.empty(), "chromaticity of empty image");
  HEBS_REQUIRE(a.width() == b.width() && a.height() == b.height(),
               "chromaticity needs equal-size images");
  double acc = 0.0;
  std::size_t counted = 0;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      const auto pa = a.get(x, y);
      const auto pb = b.get(x, y);
      const double sum_a = pa.r + pa.g + pa.b;
      const double sum_b = pb.r + pb.g + pb.b;
      if (sum_a < 1.0 || sum_b < 1.0) continue;  // black: no chroma
      acc += std::abs(pa.r / sum_a - pb.r / sum_b) +
             std::abs(pa.g / sum_a - pb.g / sum_b) +
             std::abs(pa.b / sum_a - pb.b / sum_b);
      ++counted;
    }
  }
  return counted > 0 ? acc / static_cast<double>(counted) : 0.0;
}

ColorHebsResult color_hebs_exact(
    const hebs::image::RgbImage& image, double d_max_percent,
    const HebsOptions& opts,
    const hebs::power::LcdSubsystemPower& power_model, ColorMode mode) {
  HEBS_REQUIRE(!image.empty(), "HEBS of an empty image");
  ColorHebsResult result;
  const hebs::image::GrayImage luma = image.to_luma();
  result.luma = hebs_exact(luma, d_max_percent, opts, power_model);
  // Hue error: clipping against β compresses bright channels more than
  // dim ones within a pixel, rotating its chromaticity (kSharedCurve);
  // kLumaRatio only drifts where a scaled channel saturates or rounds.
  ColorRendering rendering =
      render_color(image, luma, result.luma.point, mode);
  result.transformed = std::move(rendering.displayed);
  result.hue_error = rendering.hue_error;
  result.distortion_percent = result.luma.evaluation.distortion_percent;
  result.saving_percent = result.luma.evaluation.saving_percent;
  return result;
}

}  // namespace hebs::core
