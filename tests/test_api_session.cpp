// Bit-identity of the facade against the PR 1 internal entry points:
// the Session must reproduce hebs_exact / hebs_with_curve / DLS / CBCS
// outputs exactly — same beta, same curves, same measured numbers, same
// displayed raster — through batch and video as well.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hebs/advanced/baseline.h"
#include "hebs/advanced/core.h"
#include "hebs/hebs.h"
#include "image/synthetic.h"

namespace {

using hebs::ImageView;
using hebs::Session;
using hebs::SessionConfig;
using hebs::image::GrayImage;
using hebs::image::UsidId;

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

std::vector<GrayImage> seed_images(int size) {
  std::vector<GrayImage> images;
  for (UsidId id : {UsidId::kLena, UsidId::kPeppers, UsidId::kPout}) {
    images.push_back(hebs::image::make_usid(id, size));
  }
  return images;
}

ImageView view_of(const GrayImage& img) {
  return ImageView::gray8(img.pixels().data(), img.width(), img.height());
}

hebs::Session make_session(SessionConfig config = {}) {
  auto session = Session::create(std::move(config));
  EXPECT_TRUE(session.has_value()) << session.status().to_string();
  return std::move(session).value();
}

/// The raster in a FrameResult must be byte-identical to an internal
/// GrayImage.
void expect_same_raster(const hebs::OwnedImage& got, const GrayImage& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  const auto span = want.pixels();
  EXPECT_TRUE(std::equal(got.pixels().begin(), got.pixels().end(),
                         span.begin(), span.end()));
}

void expect_matches_hebs(const hebs::FrameResult& got,
                         const hebs::core::HebsResult& want) {
  EXPECT_EQ(got.beta, want.point.beta);
  EXPECT_EQ(got.g_min, want.target.g_min);
  EXPECT_EQ(got.g_max, want.target.g_max);
  EXPECT_EQ(got.plc_mse, want.plc_mse);
  EXPECT_EQ(got.distortion_percent, want.evaluation.distortion_percent);
  EXPECT_EQ(got.saving_percent, want.evaluation.saving_percent);
  EXPECT_EQ(got.power.ccfl_watts, want.evaluation.power.ccfl_watts);
  EXPECT_EQ(got.power.panel_watts, want.evaluation.power.panel_watts);
  ASSERT_EQ(got.lambda.size(), want.lambda.points().size());
  for (std::size_t i = 0; i < got.lambda.size(); ++i) {
    EXPECT_EQ(got.lambda[i].x, want.lambda.points()[i].x);
    EXPECT_EQ(got.lambda[i].y, want.lambda.points()[i].y);
  }
  ASSERT_EQ(got.phi.size(), want.phi.points().size());
  expect_same_raster(got.displayed, want.evaluation.transformed);
}

TEST(SessionBitIdentity, HebsExactMatchesDirectCall) {
  auto session = make_session();
  for (const GrayImage& img : seed_images(48)) {
    auto result = session.process({view_of(img), 10.0});
    ASSERT_TRUE(result.has_value()) << result.status().to_string();
    expect_matches_hebs(*result,
                        hebs::core::hebs_exact(img, 10.0, {}, model()));
  }
}

TEST(SessionBitIdentity, FixedRangeMatchesHebsAtRange) {
  auto session = make_session();
  const auto img = hebs::image::make_usid(UsidId::kSplash, 48);
  auto result = session.process({view_of(img), 10.0, 120});
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  expect_matches_hebs(*result,
                      hebs::core::hebs_at_range(img, 120, {}, model()));
}

TEST(SessionBitIdentity, HebsCurveMatchesDirectCall) {
  // Characterize once at a small size, persist, and hand the session
  // the same curve through its config — both paths then run the
  // deployed Fig. 4 flow on identical inputs.
  const auto album = hebs::image::usid_album(32);
  const auto curve = hebs::core::DistortionCurve::characterize(
      album, hebs::core::DistortionCurve::default_ranges(), {}, model());
  const std::string path = ::testing::TempDir() + "hebs_api_curve.csv";
  curve.save(path);

  auto session =
      make_session(SessionConfig().policy("hebs-curve").curve_path(path));
  for (const GrayImage& img : seed_images(48)) {
    auto result = session.process({view_of(img), 10.0});
    ASSERT_TRUE(result.has_value()) << result.status().to_string();
    expect_matches_hebs(
        *result, hebs::core::hebs_with_curve(img, 10.0, curve, {}, model()));
  }
}

void expect_matches_point(const hebs::FrameResult& got,
                          const hebs::core::EvaluatedPoint& want) {
  EXPECT_EQ(got.beta, want.point.beta);
  EXPECT_EQ(got.distortion_percent, want.distortion_percent);
  EXPECT_EQ(got.saving_percent, want.saving_percent);
  ASSERT_EQ(got.lambda.size(), want.point.luminance_transform.points().size());
  for (std::size_t i = 0; i < got.lambda.size(); ++i) {
    EXPECT_EQ(got.lambda[i].x, want.point.luminance_transform.points()[i].x);
    EXPECT_EQ(got.lambda[i].y, want.point.luminance_transform.points()[i].y);
  }
  expect_same_raster(got.displayed, want.transformed);
}

TEST(SessionBitIdentity, DlsMatchesPolicy) {
  auto session = make_session(SessionConfig().policy("dls"));
  const auto img = hebs::image::make_usid(UsidId::kGirl, 48);
  auto result = session.process({view_of(img), 10.0});
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  const auto point =
      hebs::baseline::DlsPolicy(
          hebs::baseline::DlsMode::kBrightnessCompensation, {}, model())
          .choose(img, 10.0);
  expect_matches_point(*result, hebs::core::evaluate_operating_point(
                                    img, point, model(), {}));
}

TEST(SessionBitIdentity, CbcsMatchesPolicy) {
  auto session = make_session(SessionConfig().policy("cbcs"));
  const auto img = hebs::image::make_usid(UsidId::kSail, 48);
  auto result = session.process({view_of(img), 10.0});
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  const auto point =
      hebs::baseline::CbcsPolicy({}, {}, model()).choose(img, 10.0);
  expect_matches_point(*result, hebs::core::evaluate_operating_point(
                                    img, point, model(), {}));
}

TEST(SessionBitIdentity, PercentMappedAliasesUiqiHvs) {
  const auto img = hebs::image::make_usid(UsidId::kBaboon, 48);
  auto a = make_session(SessionConfig().metric("uiqi-hvs"))
               .process({view_of(img), 10.0});
  auto b = make_session(SessionConfig().metric("percent-mapped"))
               .process({view_of(img), 10.0});
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->beta, b->beta);
  EXPECT_EQ(a->distortion_percent, b->distortion_percent);
  EXPECT_EQ(a->displayed, b->displayed);
}

TEST(SessionBitIdentity, BatchMatchesSerialProcess) {
  auto session = make_session(SessionConfig().threads(2));
  const auto images = seed_images(48);
  std::vector<ImageView> frames;
  for (const auto& img : images) frames.push_back(view_of(img));
  auto batch = session.process_batch(frames, 10.0);
  ASSERT_TRUE(batch.has_value()) << batch.status().to_string();
  ASSERT_EQ(batch->size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    expect_matches_hebs((*batch)[i],
                        hebs::core::hebs_exact(images[i], 10.0, {}, model()));
  }
}

TEST(SessionBitIdentity, BaselineBatchMatchesSerialProcess) {
  // Every non-search policy's batch fans out over the engine like
  // hebs-exact; each frame must match the serial per-frame path.
  std::vector<SessionConfig> configs = {SessionConfig().policy("dls")};
  for (const char* policy : {"dls", "dls-contrast", "cbcs", "bbhe"}) {
    configs.push_back(SessionConfig().policy(policy).threads(2));
  }
  const auto images = seed_images(40);
  std::vector<ImageView> frames;
  for (const auto& img : images) frames.push_back(view_of(img));
  for (const auto& config : configs) {
    SCOPED_TRACE(config.policy() + " @ " + std::to_string(config.threads()) +
                 " threads");
    auto session = make_session(config);
    auto batch = session.process_batch(frames, 10.0);
    ASSERT_TRUE(batch.has_value()) << batch.status().to_string();
    for (std::size_t i = 0; i < images.size(); ++i) {
      auto single = session.process({frames[i], 10.0});
      ASSERT_TRUE(single.has_value());
      EXPECT_EQ((*batch)[i].beta, single->beta);
      EXPECT_EQ((*batch)[i].displayed, single->displayed);
    }
  }
}

TEST(SessionBitIdentity, VideoMatchesSerialController) {
  const auto clip = hebs::image::make_video_clip(8, 48);
  std::vector<ImageView> frames;
  for (const auto& frame : clip) frames.push_back(view_of(frame));

  auto session = make_session(SessionConfig().threads(2));
  auto video = session.process_video(frames, 10.0);
  ASSERT_TRUE(video.has_value()) << video.status().to_string();
  ASSERT_EQ(video->size(), clip.size());

  hebs::core::VideoOptions vopts;
  vopts.d_max_percent = 10.0;
  hebs::core::VideoBacklightController controller(vopts, model());
  for (std::size_t i = 0; i < clip.size(); ++i) {
    const auto want = controller.process(clip[i]);
    const hebs::VideoFrameResult& got = (*video)[i];
    EXPECT_EQ(got.raw_beta, want.raw_beta) << "frame " << i;
    EXPECT_EQ(got.beta, want.beta) << "frame " << i;
    EXPECT_EQ(got.scene_cut, want.scene_cut) << "frame " << i;
    EXPECT_EQ(got.frame.distortion_percent,
              want.evaluation.distortion_percent)
        << "frame " << i;
    expect_same_raster(got.frame.displayed, want.evaluation.transformed);
  }
}

}  // namespace
