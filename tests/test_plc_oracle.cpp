// plc_coarsen against the test-only oracle (tests/plc_oracle.h): the
// s-outer DP with its seeded, pruned row scan.  The i-outer solver
// forms every candidate with the same operations and returns the same
// lowest-j argmin, so `mse` and the breakpoints must match bit for bit,
// on every backend this machine supports.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "hebs/advanced/core.h"
#include "hebs/advanced/histogram.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/kernels.h"
#include "plc_oracle.h"

namespace hebs::core {
namespace {

using hebs::transform::CurvePoint;
using hebs::transform::PwlCurve;

/// Restores the process-global backend when a test switches it.
class BackendGuard {
 public:
  BackendGuard() : saved_(kernels::active().name) {}
  ~BackendGuard() { kernels::set_backend(saved_); }

 private:
  std::string saved_;
};

std::vector<const kernels::KernelSet*> supported_backends() {
  std::vector<const kernels::KernelSet*> out;
  for (const kernels::BackendInfo& info : kernels::backends()) {
    if (info.supported) out.push_back(info.set);
  }
  return out;
}

/// Runs plc_coarsen on every supported backend and requires the
/// oracle's mse bits and breakpoints.
void expect_matches_oracle(const PwlCurve& exact, int segments,
                           const std::string& what) {
  const PlcResult want = test_oracle::plc_coarsen(exact, segments);
  BackendGuard guard;
  for (const kernels::KernelSet* set : supported_backends()) {
    ASSERT_EQ(kernels::set_backend(set->name), kernels::SetBackendResult::kOk);
    const PlcResult got = plc_coarsen(exact, segments);
    EXPECT_EQ(std::memcmp(&got.mse, &want.mse, sizeof got.mse), 0)
        << what << ", m=" << segments << " on " << set->name << ": mse "
        << got.mse << " vs oracle " << want.mse;
    EXPECT_EQ(std::vector<std::size_t>(got.breakpoint_indices.begin(),
                                       got.breakpoint_indices.end()),
              std::vector<std::size_t>(want.breakpoint_indices.begin(),
                                       want.breakpoint_indices.end()))
        << what << ", m=" << segments << " on " << set->name;
  }
}

/// Φ of a random histogram: a share of empty bins (Φ's flat bands) and
/// a few heavy spikes, as photos have.
PwlCurve random_phi(std::mt19937& rng, int bins, const GheTarget& target) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(bins));
  const int empty_pct = static_cast<int>(rng() % 90);
  for (auto& c : counts) {
    if (static_cast<int>(rng() % 100) < empty_pct) continue;
    c = rng() % 50;
    if (rng() % 40 == 0) c += rng() % 5000;
  }
  counts[rng() % counts.size()] += 1;  // never empty
  return ghe_transform(histogram::Histogram::from_counts(counts), target);
}

TEST(PlcOracle, AlbumCurvesMatchOnEveryBackend) {
  const GheTarget targets[] = {{0, 255}, {0, 150}, {40, 200}, {0, 60},
                               {100, 104}};
  for (const auto& named : image::usid_album(64)) {
    const auto hist = histogram::Histogram::from_image(named.image);
    for (const GheTarget& t : targets) {
      const PwlCurve phi = ghe_transform(hist, t);
      for (const int m : {1, 2, 3, 5, 8, 12}) {
        expect_matches_oracle(phi, m,
                              named.name + " [" + std::to_string(t.g_min) +
                                  ", " + std::to_string(t.g_max) + "]");
      }
    }
  }
}

TEST(PlcOracle, RandomHistogramsMatchAt256And1024Bins) {
  std::mt19937 rng(20261021);
  for (int iter = 0; iter < 24; ++iter) {
    const int g_max = 2 + static_cast<int>(rng() % 254);
    const int g_min = static_cast<int>(rng() % static_cast<unsigned>(g_max));
    const PwlCurve phi = random_phi(rng, 256, {g_min, g_max});
    expect_matches_oracle(phi, 1 + static_cast<int>(rng() % 12),
                          "256 bins, iter " + std::to_string(iter));
  }
  for (int iter = 0; iter < 4; ++iter) {
    const PwlCurve phi = random_phi(rng, 1024, {0, 1023 - iter * 200});
    expect_matches_oracle(phi, iter % 2 == 0 ? 8 : 11,
                          "1024 bins, iter " + std::to_string(iter));
  }
}

TEST(PlcOracle, DecimatedPathMatches) {
  // Above 4096 points the candidate set is decimated before the DP.
  std::mt19937 rng(4097);
  const PwlCurve phi = random_phi(rng, 4500, {0, 3000});
  ASSERT_GT(phi.points().size(), 4096u);
  expect_matches_oracle(phi, 8, "4500 bins");
}

TEST(PlcOracle, EverySegmentCountOnSmallCurves) {
  // Segments 1..12 over 2..14-point curves, so `segments >= n - 1` (the
  // early return) and the DP meet at every boundary; strictly rising,
  // flat and collinear runs all occur.
  std::mt19937 rng(12);
  std::uniform_real_distribution<double> val(0.0, 1.0);
  for (std::size_t n = 2; n <= 14; ++n) {
    for (int shape = 0; shape < 3; ++shape) {
      PwlCurve::PointList pts;
      double y = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double x = static_cast<double>(k) / static_cast<double>(n - 1);
        if (shape == 0) y = val(rng);
        if (shape == 1 && rng() % 2 == 0) y += val(rng);
        if (shape == 2) y = 0.25 + 0.5 * x;
        pts.push_back(CurvePoint{x, y});
      }
      const PwlCurve curve(std::move(pts));
      for (int m = 1; m <= 12; ++m) {
        expect_matches_oracle(curve, m,
                              "n=" + std::to_string(n) + ", shape " +
                                  std::to_string(shape));
      }
    }
  }
}

}  // namespace
}  // namespace hebs::core
