// Tests for the Universal Image Quality Index — the paper's distortion
// measure (ref [8]).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "hebs/advanced/image.h"
#include "hebs/advanced/quality.h"
#include "hebs/advanced/util.h"
#include "util/rng.h"

namespace hebs::quality {
namespace {

using hebs::image::GrayImage;

GrayImage noisy_copy(const GrayImage& img, double sigma,
                     std::uint64_t seed) {
  GrayImage out = img;
  hebs::util::Rng rng(seed);
  add_gaussian_noise(out, sigma, rng);
  return out;
}

TEST(Uiqi, IdenticalImagesScoreOne) {
  const auto img = hebs::image::make_usid(hebs::image::UsidId::kLena, 64);
  EXPECT_NEAR(uiqi(img, img), 1.0, 1e-12);
}

TEST(Uiqi, ScoreIsSymmetric) {
  const auto a = hebs::image::make_usid(hebs::image::UsidId::kLena, 64);
  const auto b = noisy_copy(a, 0.05, 1);
  EXPECT_NEAR(uiqi(a, b), uiqi(b, a), 1e-12);
}

TEST(Uiqi, ScoreIsBoundedByOne) {
  const auto a = hebs::image::make_usid(hebs::image::UsidId::kPeppers, 64);
  for (std::uint64_t seed : {1, 2, 3}) {
    const double q = uiqi(a, noisy_copy(a, 0.1, seed));
    EXPECT_LE(q, 1.0);
    EXPECT_GE(q, -1.0);
  }
}

TEST(Uiqi, MoreNoiseScoresWorse) {
  const auto a = hebs::image::make_usid(hebs::image::UsidId::kGirl, 64);
  const double q_small = uiqi(a, noisy_copy(a, 0.02, 7));
  const double q_large = uiqi(a, noisy_copy(a, 0.15, 7));
  EXPECT_GT(q_small, q_large);
}

TEST(Uiqi, DetectsPureLuminanceShift) {
  // A mean shift keeps correlation 1 but must reduce Q (unlike plain
  // correlation) — this is UIQI's defining feature.
  GrayImage a(32, 32);
  hebs::image::fill_fbm(a, 5, 8.0, 3, 0.3, 0.6);
  GrayImage b = a;
  for (auto& p : b.pixels()) {
    p = static_cast<std::uint8_t>(std::min(255, p + 40));
  }
  EXPECT_LT(uiqi(a, b), 0.995);
}

TEST(Uiqi, DetectsContrastScaling) {
  GrayImage a(32, 32);
  hebs::image::fill_fbm(a, 6, 8.0, 3, 0.2, 0.8);
  GrayImage b = a;
  const double mean = a.mean();
  for (auto& p : b.pixels()) {
    const double v = mean + (p - mean) * 0.5;  // halve the contrast
    p = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
  }
  EXPECT_LT(uiqi(a, b), 0.95);
}

TEST(Uiqi, MatchesDirectFormulaOnSingleWindow) {
  // For an 8x8 image with one window, Q must equal the closed form.
  GrayImage a(8, 8);
  GrayImage b(8, 8);
  hebs::util::Rng rng(11);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      a(x, y) = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      b(x, y) = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
  }
  double sa = 0;
  double sb = 0;
  for (int i = 0; i < 64; ++i) {
    sa += a.pixels()[i];
    sb += b.pixels()[i];
  }
  const double ma = sa / 64;
  const double mb = sb / 64;
  double va = 0;
  double vb = 0;
  double cab = 0;
  for (int i = 0; i < 64; ++i) {
    va += (a.pixels()[i] - ma) * (a.pixels()[i] - ma);
    vb += (b.pixels()[i] - mb) * (b.pixels()[i] - mb);
    cab += (a.pixels()[i] - ma) * (b.pixels()[i] - mb);
  }
  va /= 64;
  vb /= 64;
  cab /= 64;
  const double expected =
      4.0 * cab * ma * mb / ((va + vb) * (ma * ma + mb * mb));
  EXPECT_NEAR(uiqi(a, b), expected, 1e-9);
}

TEST(Uiqi, FlatIdenticalWindowsScoreOne) {
  const GrayImage a(16, 16, 100);
  const GrayImage b(16, 16, 100);
  EXPECT_DOUBLE_EQ(uiqi(a, b), 1.0);
}

TEST(Uiqi, FlatWindowsWithDifferentMeansUseMeanCloseness) {
  const GrayImage a(8, 8, 100);
  const GrayImage b(8, 8, 200);
  // Reference special case: q = 2 m_a m_b / (m_a² + m_b²) = 0.8.
  EXPECT_NEAR(uiqi(a, b), 0.8, 1e-12);
}

TEST(Uiqi, BlackVsFlatGrayScoresZero) {
  const GrayImage a(8, 8, 0);
  const GrayImage b(8, 8, 128);
  EXPECT_DOUBLE_EQ(uiqi(a, b), 0.0);
}

TEST(Uiqi, StrideSpeedsUpWithoutChangingTheOrdering) {
  const auto a = hebs::image::make_usid(hebs::image::UsidId::kBaboon, 64);
  const auto slightly = noisy_copy(a, 0.03, 2);
  const auto heavily = noisy_copy(a, 0.2, 2);
  UiqiOptions fast;
  fast.stride = 4;
  EXPECT_GT(uiqi(a, slightly, fast), uiqi(a, heavily, fast));
}

TEST(Uiqi, FloatOverloadAgreesWithGrayOverload) {
  const auto a = hebs::image::make_usid(hebs::image::UsidId::kOnion, 64);
  const auto b = noisy_copy(a, 0.05, 3);
  const double q8 = uiqi(a, b);
  const double qf = uiqi(hebs::image::FloatImage::from_gray(a),
                         hebs::image::FloatImage::from_gray(b));
  // Same data up to the /255 scale, which cancels in Q.
  EXPECT_NEAR(q8, qf, 1e-9);
}

// uiqi_from_stats promises the same bits with or without cached
// reference moments: the cached path runs window rows through the q-row
// kernel, the generic path evaluates the formula window by window, and
// both accumulate in row-major order.
TEST(Uiqi, CachedReferenceMomentsMatchWindowLoopBitForBit) {
  hebs::util::Rng rng(2024);
  const auto check = [&](const std::vector<double>& a,
                         const std::vector<double>& b, int w, int h,
                         const std::string& what) {
    for (const int block : {8, 5}) {
      UiqiOptions opts;
      opts.block_size = block;
      const PairStats plain(a, b, w, h);
      const ImageStats a_stats(a, w, h);
      const RefWindowMoments ref(a_stats, block);
      const PairStats cached(a_stats, a, b, w, h);
      EXPECT_EQ(uiqi_from_stats(plain, w, h, opts),
                uiqi_from_stats(cached, w, h, opts, &ref))
          << what << " " << w << "x" << h << " block " << block;
    }
  };
  std::vector<std::pair<int, int>> sizes = {{8, 8},   {9, 8},   {8, 97},
                                            {97, 8},  {13, 31}, {47, 23},
                                            {97, 97}, {64, 33}};
  for (int i = 0; i < 12; ++i) {
    sizes.emplace_back(rng.uniform_int(8, 97), rng.uniform_int(8, 97));
  }
  for (const auto& [w, h] : sizes) {
    const auto n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform();
      b[i] = rng.uniform();
    }
    check(a, b, w, h, "random");
    for (std::size_t i = 0; i < n; ++i) b[i] = 0.8 * a[i];
    check(a, b, w, h, "0.8a");
    for (const auto& [fa, fb] : {std::pair{0.0, 0.0}, std::pair{0.0, 0.5},
                                 std::pair{0.4, 0.4}, std::pair{0.3, 0.9}}) {
      check(std::vector<double>(n, fa), std::vector<double>(n, fb), w, h,
            "flat " + std::to_string(fa) + "/" + std::to_string(fb));
    }
  }
}

TEST(Uiqi, ValidatesArguments) {
  const GrayImage a(16, 16, 0);
  const GrayImage b(8, 8, 0);
  EXPECT_THROW((void)uiqi(a, b), hebs::util::InvalidArgument);
  const GrayImage tiny(4, 4, 0);
  EXPECT_THROW((void)uiqi(tiny, tiny), hebs::util::InvalidArgument);
  UiqiOptions bad;
  bad.stride = 0;
  EXPECT_THROW((void)uiqi(a, a, bad), hebs::util::InvalidArgument);
}

}  // namespace
}  // namespace hebs::quality
