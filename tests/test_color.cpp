// Tests for color backlight scaling (§2's color LCD path).
#include <gtest/gtest.h>

#include "hebs/advanced/core.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/util.h"

namespace hebs::core {
namespace {

using hebs::image::RgbImage;
using hebs::image::UsidId;

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

TEST(ColorSynthetic, ColorImageIsDeterministic) {
  const RgbImage a = hebs::image::make_usid_color(UsidId::kPeppers, 64);
  const RgbImage b = hebs::image::make_usid_color(UsidId::kPeppers, 64);
  EXPECT_TRUE(std::equal(a.data().begin(), a.data().end(),
                         b.data().begin()));
}

TEST(ColorSynthetic, LumaStaysCloseToGrayscaleOriginal) {
  const auto gray = hebs::image::make_usid(UsidId::kLena, 64);
  const auto color = hebs::image::make_usid_color(UsidId::kLena, 64);
  const auto luma = color.to_luma();
  double mean_abs = 0.0;
  for (std::size_t i = 0; i < gray.size(); ++i) {
    mean_abs += std::abs(static_cast<double>(gray.pixels()[i]) -
                         static_cast<double>(luma.pixels()[i]));
  }
  mean_abs /= static_cast<double>(gray.size());
  EXPECT_LT(mean_abs, 12.0);  // green-channel clamping causes small drift
}

TEST(ColorSynthetic, HasActualChroma) {
  const auto color = hebs::image::make_usid_color(UsidId::kSail, 64);
  int chromatic = 0;
  for (int y = 0; y < color.height(); ++y) {
    for (int x = 0; x < color.width(); ++x) {
      const auto p = color.get(x, y);
      if (std::abs(int(p.r) - int(p.b)) > 8) ++chromatic;
    }
  }
  EXPECT_GT(chromatic, 500);
}

TEST(ColorHebs, GrayInputReproducesGrayPipeline) {
  const auto gray = hebs::image::make_usid(UsidId::kGirl, 64);
  const auto rgb = RgbImage::from_gray(gray);
  const auto color_result = color_hebs_exact(rgb, 10.0, {}, model());
  const auto gray_result = hebs_exact(gray, 10.0, {}, model());
  EXPECT_NEAR(color_result.saving_percent,
              gray_result.evaluation.saving_percent, 1e-9);
  EXPECT_NEAR(color_result.distortion_percent,
              gray_result.evaluation.distortion_percent, 1e-9);
  // Channels stay equal: no hue was introduced.
  for (int y = 0; y < rgb.height(); y += 7) {
    for (int x = 0; x < rgb.width(); x += 7) {
      const auto p = color_result.transformed.get(x, y);
      EXPECT_EQ(p.r, p.g);
      EXPECT_EQ(p.g, p.b);
    }
  }
}

TEST(ColorHebs, MeetsTheLumaDistortionBudget) {
  const auto rgb = hebs::image::make_usid_color(UsidId::kPeppers, 64);
  const auto result = color_hebs_exact(rgb, 10.0, {}, model());
  EXPECT_LE(result.distortion_percent, 10.0 + 1e-9);
  EXPECT_GT(result.saving_percent, 10.0);
}

TEST(ColorHebs, HueErrorIsBounded) {
  const auto rgb = hebs::image::make_usid_color(UsidId::kAutumn, 64);
  const auto result = color_hebs_exact(rgb, 10.0, {}, model());
  // The shared monotone curve warps chroma, but must not scramble it:
  // mean chromaticity shift stays a small fraction of the gamut.
  EXPECT_LT(result.hue_error, 0.15);
}

TEST(ColorHebs, ApplyToColorUsesSharedCurve) {
  RgbImage img(1, 1);
  img.set(0, 0, {0, 128, 255});
  OperatingPoint point{
      hebs::transform::PwlCurve({{0.0, 0.0}, {1.0, 0.5}}), 0.5};
  const auto out = apply_to_color(img, point);
  const auto p = out.get(0, 0);
  EXPECT_EQ(p.r, 0);
  EXPECT_NEAR(p.g, 64, 1);   // 0.5·(128/255)·255
  EXPECT_NEAR(p.b, 128, 1);  // 0.5·255
}

TEST(ColorHebs, SharedCurveKernelPathMatchesPerByteLookup) {
  // The dispatched lut_apply_u8 pass over the interleaved sub-pixel
  // bytes must equal the plain per-byte lookup of the shared quantized
  // curve.
  const auto rgb = hebs::image::make_usid_color(UsidId::kSail, 40);
  OperatingPoint point{
      hebs::transform::PwlCurve({{0.0, 0.05}, {0.6, 0.5}, {1.0, 0.8}}), 0.8};
  const auto out = apply_to_color(rgb, point, ColorMode::kSharedCurve);
  const hebs::transform::Lut lut = displayed_levels(point).quantize();
  const auto src = rgb.data();
  const auto got = out.data();
  ASSERT_EQ(got.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(got[i], lut[src[i]]) << "byte " << i;
  }
}

TEST(ColorHebs, LumaRatioPreservesChromaBetterThanSharedCurve) {
  const auto rgb = hebs::image::make_usid_color(UsidId::kAutumn, 64);
  const auto shared =
      color_hebs_exact(rgb, 10.0, {}, model(), ColorMode::kSharedCurve);
  const auto ratio =
      color_hebs_exact(rgb, 10.0, {}, model(), ColorMode::kLumaRatio);
  // Same decision (both run on luma), different raster application.
  EXPECT_EQ(shared.luma.point.beta, ratio.luma.point.beta);
  EXPECT_EQ(shared.distortion_percent, ratio.distortion_percent);
  EXPECT_LT(ratio.hue_error, shared.hue_error);
  EXPECT_LT(ratio.hue_error, 0.05);
}

TEST(ColorHebs, LumaRatioScalesChannelsByACommonFactor) {
  RgbImage img(1, 1);
  img.set(0, 0, {120, 60, 30});  // 4:2:1 ratios, luma well inside range
  OperatingPoint point{
      hebs::transform::PwlCurve({{0.0, 0.0}, {1.0, 0.5}}), 0.5};
  const auto out = apply_to_color(img, point, ColorMode::kLumaRatio);
  const auto p = out.get(0, 0);
  // The common scale preserves the 4:2:1 structure up to rounding.
  EXPECT_NEAR(static_cast<double>(p.r) / p.b, 4.0, 0.2);
  EXPECT_NEAR(static_cast<double>(p.g) / p.b, 2.0, 0.2);
}

TEST(ColorHebs, LumaRatioSaturatingChannelClampsAt255) {
  RgbImage img(1, 1);
  img.set(0, 0, {200, 10, 10});  // red-dominant: scaling drives R past 255
  // A brightening curve: ψ(y) > y/255 everywhere, so the common scale
  // exceeds 1 and the dominant channel saturates.
  OperatingPoint point{
      hebs::transform::PwlCurve({{0.0, 0.5}, {1.0, 1.0}}), 1.0};
  const auto out = apply_to_color(img, point, ColorMode::kLumaRatio);
  const auto p = out.get(0, 0);
  EXPECT_EQ(p.r, 255);  // clamped, not wrapped
  EXPECT_GT(p.g, 10);   // the others still brightened
  EXPECT_LT(p.g, 255);
}

TEST(ColorHebs, LumaRatioRespectsTheBacklightCeiling) {
  // Transmittance cannot exceed one: no sub-pixel can display brighter
  // than β, whatever ratio scaling asks for.  Both modes share the
  // ceiling lround(β·255).
  RgbImage img(1, 1);
  img.set(0, 0, {255, 20, 20});
  OperatingPoint point{
      hebs::transform::PwlCurve({{0.0, 0.5}, {1.0, 1.0}}), 0.5};
  const auto ratio = apply_to_color(img, point, ColorMode::kLumaRatio);
  const auto shared = apply_to_color(img, point, ColorMode::kSharedCurve);
  const int ceiling = 128;  // lround(0.5 * 255)
  EXPECT_LE(ratio.get(0, 0).r, ceiling);
  EXPECT_LE(shared.get(0, 0).r, ceiling);
  EXPECT_EQ(ratio.get(0, 0).r, ceiling);  // the scale does hit the rail
}

TEST(ColorHebs, LumaRatioZeroLumaFallsBackToSharedCurve) {
  RgbImage img(1, 2);
  img.set(0, 0, {1, 0, 0});  // BT.601 luma rounds to 0: no ratio exists
  img.set(0, 1, {0, 0, 0});
  OperatingPoint point{
      hebs::transform::PwlCurve({{0.0, 0.1}, {1.0, 0.9}}), 0.9};
  const auto out = apply_to_color(img, point, ColorMode::kLumaRatio);
  const hebs::transform::Lut lut = displayed_levels(point).quantize();
  EXPECT_EQ(out.get(0, 0).r, lut[1]);
  EXPECT_EQ(out.get(0, 0).g, lut[0]);
  EXPECT_EQ(out.get(0, 1).r, lut[0]);
}

TEST(ColorHebs, ChromaticityErrorOfAllBlackImagesIsZero) {
  // Every pixel takes the sum < 1 skip path; the counted == 0 fallback
  // must report 0, not divide by zero.
  const RgbImage black(16, 16);
  EXPECT_DOUBLE_EQ(chromaticity_error(black, black), 0.0);
  RgbImage dim(16, 16);
  EXPECT_DOUBLE_EQ(chromaticity_error(black, dim), 0.0);
}

TEST(ColorHebs, ChromaticityErrorOfIdenticalImagesIsZero) {
  const auto rgb = hebs::image::make_usid_color(UsidId::kOnion, 48);
  EXPECT_DOUBLE_EQ(chromaticity_error(rgb, rgb), 0.0);
}

TEST(ColorHebs, ChromaticityErrorDetectsChannelSwap) {
  const auto rgb = hebs::image::make_usid_color(UsidId::kAutumn, 48);
  RgbImage swapped(rgb.width(), rgb.height());
  for (int y = 0; y < rgb.height(); ++y) {
    for (int x = 0; x < rgb.width(); ++x) {
      const auto p = rgb.get(x, y);
      swapped.set(x, y, {p.b, p.g, p.r});
    }
  }
  EXPECT_GT(chromaticity_error(rgb, swapped), 0.01);
}

TEST(ColorHebs, ValidatesArguments) {
  RgbImage empty;
  EXPECT_THROW((void)color_hebs_exact(empty, 10.0, {}, model()),
               hebs::util::InvalidArgument);
  const auto rgb = hebs::image::make_usid_color(UsidId::kLena, 32);
  OperatingPoint bad{hebs::transform::PwlCurve::identity(), 0.0};
  EXPECT_THROW((void)apply_to_color(rgb, bad),
               hebs::util::InvalidArgument);
}

}  // namespace
}  // namespace hebs::core
