// Pipeline throughput: stage microbenchmarks (google-benchmark) plus the
// batch acceptance report comparing the serial seed path against the
// PipelineEngine.
//
// Supports the paper's hardware-efficiency claims (§1 advantage 3,
// Fig. 4): histogram extraction, the GHE solve, the O(m n²) PLC dynamic
// program, ladder programming (Eq. 10) and LUT application must all fit
// comfortably inside a frame time; the perceptual metric is the one
// stage that does not — which is exactly why HEBS precharacterizes the
// distortion curve offline.
//
// The report (printed before the microbenchmarks run) processes a
// 64-image batch with hebs_exact three ways — the seed's serial
// uncached path, the engine with 1 worker (isolating the FrameContext
// caching win), and the engine with 8 workers — verifies the outputs
// are bit-identical, and prints the speedups.  Flags:
//   --report-batch=N   batch size for the report (default 64)
//   --report-only      skip the google-benchmark suite
//   --skip-report      run only the google-benchmark suite
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hebs/advanced/core.h"
#include "hebs/advanced/display.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/kernels.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"
#include "hebs/advanced/quality.h"

namespace {

using namespace hebs;

const image::GrayImage& test_image() {
  static const auto img = image::make_usid(image::UsidId::kLena, 256);
  return img;
}

const power::LcdSubsystemPower& platform() {
  static const auto model = power::LcdSubsystemPower::lp064v1();
  return model;
}

// ------------------------------------------------------------------------
// Batch acceptance report
// ------------------------------------------------------------------------

// Frozen copy of the seed's serial implementation (pre-pipeline): every
// probe recomputes the histogram, the reference rasters, the reference
// side of the perceptual metric and the reference power from scratch,
// and evaluates transfer curves with a per-level binary search.  This is
// the baseline the engine's caching and batching are measured against;
// its outputs are bit-identical to the pipeline's (the refactor
// reordered no arithmetic), which the report verifies.
namespace seed {

// -- original HVS front end (border-clamped blur on every pixel) --------

image::FloatImage gaussian_blur(const image::FloatImage& in, double sigma) {
  const int w = in.width();
  const int h = in.height();
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  std::vector<double> kernel(static_cast<std::size_t>(2 * radius) + 1);
  double norm = 0.0;
  for (int k = -radius; k <= radius; ++k) {
    const double v = std::exp(-(k * k) / (2.0 * sigma * sigma));
    kernel[static_cast<std::size_t>(k + radius)] = v;
    norm += v;
  }
  for (auto& v : kernel) v /= norm;

  image::FloatImage tmp(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double acc = 0.0;
      for (int k = -radius; k <= radius; ++k) {
        const int xx = std::clamp(x + k, 0, w - 1);
        acc += kernel[static_cast<std::size_t>(k + radius)] * in(xx, y);
      }
      tmp(x, y) = acc;
    }
  }
  image::FloatImage out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double acc = 0.0;
      for (int k = -radius; k <= radius; ++k) {
        const int yy = std::clamp(y + k, 0, h - 1);
        acc += kernel[static_cast<std::size_t>(k + radius)] * tmp(x, yy);
      }
      out(x, y) = acc;
    }
  }
  return out;
}

image::FloatImage hvs_transform(const image::FloatImage& lum,
                                const quality::HvsOptions& opts) {
  image::FloatImage out(lum.width(), lum.height());
  const auto src = lum.values();
  auto dst = out.values();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = opts.lightness_mapping
                 ? quality::lightness(src[i])
                 : std::min(1.0, std::max(0.0, src[i]));
  }
  if (opts.csf_sigma > 0.0) {
    out = gaussian_blur(out, opts.csf_sigma);
  }
  return out;
}

// -- original windowed UIQI (five integral images with temporaries) -----

class Integral {
 public:
  Integral(std::span<const double> values, int width, int height)
      : width_(width), height_(height) {
    const std::size_t stride = static_cast<std::size_t>(width) + 1;
    table_.assign(stride * (static_cast<std::size_t>(height) + 1), 0.0);
    for (int y = 0; y < height; ++y) {
      double row = 0.0;
      for (int x = 0; x < width; ++x) {
        row += values[static_cast<std::size_t>(y) * width + x];
        table_[(static_cast<std::size_t>(y) + 1) * stride + x + 1] =
            table_[static_cast<std::size_t>(y) * stride + x + 1] + row;
      }
    }
  }

  double rect_sum(int x0, int y0, int x1, int y1) const noexcept {
    const std::size_t stride = static_cast<std::size_t>(width_) + 1;
    const auto at = [this, stride](int x, int y) {
      return table_[static_cast<std::size_t>(y) * stride + x];
    };
    return at(x1 + 1, y1 + 1) - at(x0, y1 + 1) - at(x1 + 1, y0) +
           at(x0, y0);
  }

 private:
  int width_;
  int height_;
  std::vector<double> table_;
};

double uiqi(const image::FloatImage& fa, const image::FloatImage& fb,
            const quality::UiqiOptions& opts) {
  const auto a = fa.values();
  const auto b = fb.values();
  const int width = fa.width();
  const int height = fa.height();
  std::vector<double> sq_a(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) sq_a[i] = a[i] * a[i];
  std::vector<double> sq_b(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) sq_b[i] = b[i] * b[i];
  std::vector<double> prod(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) prod[i] = a[i] * b[i];
  const Integral sum_a(a, width, height);
  const Integral sum_b(b, width, height);
  const Integral sum_aa(sq_a, width, height);
  const Integral sum_bb(sq_b, width, height);
  const Integral sum_ab(prod, width, height);

  double acc = 0.0;
  std::size_t windows = 0;
  for (int y = 0; y + opts.block_size <= height; y += opts.stride) {
    for (int x = 0; x + opts.block_size <= width; x += opts.stride) {
      const int x1 = x + opts.block_size - 1;
      const int y1 = y + opts.block_size - 1;
      const double n =
          static_cast<double>(opts.block_size) * opts.block_size;
      const double mean_a = sum_a.rect_sum(x, y, x1, y1) / n;
      const double mean_b = sum_b.rect_sum(x, y, x1, y1) / n;
      double var_a = sum_aa.rect_sum(x, y, x1, y1) / n - mean_a * mean_a;
      double var_b = sum_bb.rect_sum(x, y, x1, y1) / n - mean_b * mean_b;
      const double cov_ab =
          sum_ab.rect_sum(x, y, x1, y1) / n - mean_a * mean_b;
      if (var_a < 0.0) var_a = 0.0;
      if (var_b < 0.0) var_b = 0.0;
      const double mean_prod = mean_a * mean_b;
      const double denom1 = mean_a * mean_a + mean_b * mean_b;
      const double denom2 = var_a + var_b;
      double q = 1.0;
      if (denom1 * denom2 > 0.0) {
        q = 4.0 * cov_ab * mean_prod / (denom1 * denom2);
      } else if (denom1 > 0.0) {
        q = 2.0 * mean_prod / denom1;
      }
      acc += q;
      ++windows;
    }
  }
  return windows > 0 ? acc / static_cast<double>(windows) : 1.0;
}

// -- original PLC dynamic program (nested-vector tables, no pruning) ----

core::PlcResult plc_coarsen(const transform::PwlCurve& exact, int segments) {
  const auto& pts = exact.points();
  const std::size_t n = pts.size();

  core::PlcResult result;
  if (static_cast<std::size_t>(segments) >= n - 1) {
    result.curve = exact;
    result.mse = 0.0;
    result.breakpoint_indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) result.breakpoint_indices[i] = i;
    return result;
  }

  // Prefix sums for the O(1) chord-error oracle, as in the seed.
  std::vector<double> sx(n + 1, 0.0), sy(n + 1, 0.0), sxx(n + 1, 0.0),
      syy(n + 1, 0.0), sxy(n + 1, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    sx[k + 1] = sx[k] + pts[k].x;
    sy[k + 1] = sy[k] + pts[k].y;
    sxx[k + 1] = sxx[k] + pts[k].x * pts[k].x;
    syy[k + 1] = syy[k] + pts[k].y * pts[k].y;
    sxy[k + 1] = sxy[k] + pts[k].x * pts[k].y;
  }
  auto chord = [&](std::size_t j, std::size_t i) {
    const auto& pj = pts[j];
    const auto& pi = pts[i];
    const double s = (pi.y - pj.y) / (pi.x - pj.x);
    const double nn = static_cast<double>(i - j + 1);
    const double sum_x = sx[i + 1] - sx[j];
    const double sum_y = sy[i + 1] - sy[j];
    const double sum_xx = sxx[i + 1] - sxx[j];
    const double sum_yy = syy[i + 1] - syy[j];
    const double sum_xy = sxy[i + 1] - sxy[j];
    const double sum_dyy = sum_yy - 2.0 * pj.y * sum_y + nn * pj.y * pj.y;
    const double sum_dxx = sum_xx - 2.0 * pj.x * sum_x + nn * pj.x * pj.x;
    const double sum_dxy =
        sum_xy - pj.x * sum_y - pj.y * sum_x + nn * pj.x * pj.y;
    const double err = sum_dyy - 2.0 * s * sum_dxy + s * s * sum_dxx;
    return err > 0.0 ? err : 0.0;
  };

  const auto m = static_cast<std::size_t>(segments);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> best(n, std::vector<double>(m + 1, kInf));
  std::vector<std::vector<std::size_t>> parent(
      n, std::vector<std::size_t>(m + 1, 0));
  best[0][0] = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t max_s = std::min(m, i);
    for (std::size_t s = 1; s <= max_s; ++s) {
      for (std::size_t j = s - 1; j < i; ++j) {
        if (best[j][s - 1] == kInf) continue;
        const double candidate = best[j][s - 1] + chord(j, i);
        if (candidate < best[i][s]) {
          best[i][s] = candidate;
          parent[i][s] = j;
        }
      }
    }
  }
  std::size_t best_s = m;
  for (std::size_t s = 1; s <= m; ++s) {
    if (best[n - 1][s] < best[n - 1][best_s]) best_s = s;
  }
  std::vector<std::size_t> chosen;
  std::size_t i = n - 1;
  std::size_t s = best_s;
  while (true) {
    chosen.push_back(i);
    if (s == 0) break;
    i = parent[i][s];
    --s;
  }
  std::reverse(chosen.begin(), chosen.end());
  std::vector<transform::CurvePoint> qpts;
  qpts.reserve(chosen.size());
  for (std::size_t idx : chosen) qpts.push_back(pts[idx]);
  result.curve = transform::PwlCurve(qpts);
  result.mse = best[n - 1][best_s] / static_cast<double>(n);
  result.breakpoint_indices.assign(chosen.begin(), chosen.end());
  return result;
}

double distortion_percent(const image::FloatImage& reference,
                          const image::FloatImage& displayed,
                          const quality::DistortionOptions& opts) {
  // The seed's UIQI+HVS dispatch: both rasters through the HVS front
  // end, then one five-integral build over the pair.
  const double q = seed::uiqi(seed::hvs_transform(reference, opts.hvs),
                              seed::hvs_transform(displayed, opts.hvs),
                              opts.uiqi);
  const double percent = (1.0 - q) / 2.0 * 100.0;
  return std::min(100.0, std::max(0.0, percent));
}

core::EvaluatedPoint evaluate_operating_point(
    const image::GrayImage& original, const core::OperatingPoint& point,
    const core::HebsOptions& opts) {
  core::EvaluatedPoint out;
  out.point = point;
  std::array<double, image::kLevels> lum{};
  for (int level = 0; level < image::kLevels; ++level) {
    const double x = static_cast<double>(level) / image::kMaxPixel;
    const double y = point.luminance_transform(x);  // binary search
    lum[static_cast<std::size_t>(level)] =
        std::min(point.beta, std::min(1.0, std::max(0.0, y)));
  }
  image::FloatImage displayed(original.width(), original.height());
  {
    auto dst = displayed.values();
    const auto src = original.pixels();
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = lum[src[i]];
  }
  const auto reference = image::FloatImage::from_gray(original);
  out.distortion_percent =
      seed::distortion_percent(reference, displayed, opts.distortion);
  out.transformed = displayed.to_gray();

  const auto hist = histogram::Histogram::from_image(original);
  double panel_watts = 0.0;
  for (int level = 0; level < histogram::Histogram::kBins; ++level) {
    const double t = std::min(
        1.0, std::max(0.0, lum[static_cast<std::size_t>(level)] /
                               point.beta));
    panel_watts += platform().panel().pixel_power(t) *
                   static_cast<double>(hist.count(level));
  }
  panel_watts /= static_cast<double>(hist.total());
  out.power.ccfl_watts = platform().ccfl().power(point.beta);
  out.power.panel_watts = panel_watts;
  out.reference_power = platform().frame_power(hist, 1.0);
  out.saving_percent =
      100.0 * (1.0 - out.power.total() / out.reference_power.total());
  return out;
}

transform::PwlCurve affine_placement(int lo, int hi, int g_min, int g_max) {
  const double xn_lo = static_cast<double>(lo) / image::kMaxPixel;
  const double xn_hi = static_cast<double>(hi) / image::kMaxPixel;
  const double yn_lo = static_cast<double>(g_min) / image::kMaxPixel;
  const double yn_hi = static_cast<double>(g_max) / image::kMaxPixel;
  std::vector<transform::CurvePoint> pts;
  if (lo > 0) pts.push_back({0.0, yn_lo});
  pts.push_back({xn_lo, yn_lo});
  pts.push_back({xn_hi, yn_hi});
  if (hi < image::kMaxPixel) pts.push_back({1.0, yn_hi});
  return transform::PwlCurve(std::move(pts));
}

transform::PwlCurve blend_curves(const transform::PwlCurve& a,
                                 const transform::PwlCurve& b, double w) {
  std::vector<transform::CurvePoint> pts;
  pts.reserve(static_cast<std::size_t>(image::kLevels));
  for (int level = 0; level < image::kLevels; ++level) {
    const double x = static_cast<double>(level) / image::kMaxPixel;
    pts.push_back({x, w * a(x) + (1.0 - w) * b(x)});  // binary searches
  }
  return transform::PwlCurve(std::move(pts));
}

core::HebsResult hebs_at_range(const image::GrayImage& img, int range,
                               const core::HebsOptions& opts) {
  const auto hist = histogram::Histogram::from_image(img);
  const int lo = hist.min_level();
  const int hi = hist.max_level();
  const int native = hi - lo;
  const int g_max = std::min(opts.g_min + range, std::max(hi, 1));
  const int g_min_eff =
      native > 0 ? std::max(opts.g_min, g_max - native) : opts.g_min;
  const int width = g_max - g_min_eff;

  core::HebsResult result;
  result.target = core::GheTarget{g_min_eff, g_max};
  const auto ghe = core::ghe_transform(hist, result.target);
  double w = opts.equalization_strength;
  if (w < 0.0) {
    w = native > 0
            ? 1.0 - static_cast<double>(width) / static_cast<double>(native)
            : 1.0;
  }
  if (native <= 0) w = 1.0;
  result.phi = w >= 1.0 ? ghe
                        : blend_curves(
                              ghe, affine_placement(lo, hi, g_min_eff, g_max),
                              w);
  core::PlcResult plc = seed::plc_coarsen(result.phi, opts.segments);
  result.lambda = std::move(plc.curve);
  result.plc_mse = plc.mse;
  const double beta = core::beta_for_gmax(g_max, opts.min_beta);
  result.point = core::OperatingPoint{result.lambda, beta};
  result.evaluation = evaluate_operating_point(img, result.point, opts);
  return result;
}

core::HebsResult hebs_exact(const image::GrayImage& img, double d_max_percent,
                            const core::HebsOptions& opts) {
  const int hi = image::kMaxPixel - opts.g_min;
  const int lo = std::min(opts.min_range, hi);
  auto distortion_at = [&](int range) {
    return hebs_at_range(img, range, opts).evaluation.distortion_percent;
  };

  core::HebsResult result;
  if (distortion_at(hi) > d_max_percent) {
    return hebs_at_range(img, hi, opts);
  }
  if (distortion_at(lo) <= d_max_percent) {
    result = hebs_at_range(img, lo, opts);
  } else {
    int infeasible = lo;
    int feasible = hi;
    while (feasible - infeasible > 1) {
      const int mid = (feasible + infeasible) / 2;
      if (distortion_at(mid) <= d_max_percent) {
        feasible = mid;
      } else {
        infeasible = mid;
      }
    }
    result = hebs_at_range(img, feasible, opts);
  }
  if (opts.concurrent_scaling) {
    const core::OperatingPoint base = result.point;
    auto eval_at = [&](double beta) {
      const core::OperatingPoint p{base.luminance_transform,
                                   std::max(opts.min_beta, beta)};
      return evaluate_operating_point(img, p, opts);
    };
    const double floor_beta = std::max(opts.min_beta, 0.25 * base.beta);
    core::EvaluatedPoint best = result.evaluation;
    auto at_floor = eval_at(floor_beta);
    if (at_floor.distortion_percent <= d_max_percent) {
      best = at_floor;
    } else {
      double feasible = base.beta;
      double infeasible = floor_beta;
      for (int i = 0; i < 12; ++i) {
        const double mid = (feasible + infeasible) / 2.0;
        const auto eval = eval_at(mid);
        if (eval.distortion_percent <= d_max_percent) {
          feasible = mid;
          best = eval;
        } else {
          infeasible = mid;
        }
      }
    }
    if (best.saving_percent > result.evaluation.saving_percent) {
      result.point = best.point;
      result.evaluation = best;
    }
  }
  return result;
}

}  // namespace seed

core::HebsResult seed_serial_hebs_exact(const image::GrayImage& img,
                                        double d_max_percent,
                                        const core::HebsOptions& opts) {
  return seed::hebs_exact(img, d_max_percent, opts);
}

std::vector<image::GrayImage> report_batch(int count, int size) {
  const auto album = image::usid_album(size);
  std::vector<image::GrayImage> images;
  images.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    images.push_back(album[static_cast<std::size_t>(i) % album.size()].image);
  }
  return images;
}

bool same_result(const core::HebsResult& a, const core::HebsResult& b) {
  return a.point.beta == b.point.beta &&
         a.lambda.points() == b.lambda.points() &&
         a.evaluation.distortion_percent ==
             b.evaluation.distortion_percent &&
         a.evaluation.saving_percent == b.evaluation.saving_percent &&
         a.evaluation.transformed == b.evaluation.transformed;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int run_batch_report(int batch_size) {
  constexpr double kBudget = 10.0;
  constexpr int kSize = 96;
  const auto images = report_batch(batch_size, kSize);
  const std::string backend = kernels::active().name;
  std::vector<hebs::bench::BenchRecord> records;
  const auto record = [&](const std::string& config, double elapsed_s) {
    records.push_back(
        {"pipeline_throughput", config, elapsed_s / batch_size * 1e9,
         static_cast<double>(batch_size) * kSize * kSize / elapsed_s / 1e6,
         backend});
  };

  std::printf("=== Batch throughput: hebs_exact, %d images (%dx%d), "
              "D_max %.0f%%, kernel backend %s ===\n",
              batch_size, kSize, kSize, kBudget, backend.c_str());

  const auto t_serial = std::chrono::steady_clock::now();
  std::vector<core::HebsResult> serial;
  serial.reserve(images.size());
  for (const auto& img : images) {
    serial.push_back(seed_serial_hebs_exact(img, kBudget, {}));
  }
  const double serial_s = seconds_since(t_serial);
  std::printf("  serial seed path     : %7.2f s  (%6.1f ms/image)\n",
              serial_s, 1000.0 * serial_s / batch_size);
  record("serial-seed", serial_s);

  double engine1_s = 0.0;
  for (int threads : {1, 8}) {
    pipeline::EngineOptions opts;
    opts.num_threads = threads;
    pipeline::PipelineEngine engine(opts, platform());
    const auto t = std::chrono::steady_clock::now();
    const auto batch = engine.run_batch(
        pipeline::FrameSource(images), [](pipeline::FrameContext& ctx) {
          return pipeline::run_exact(ctx, kBudget);
        });
    const double elapsed = seconds_since(t);
    if (threads == 1) engine1_s = elapsed;
    record("engine-" + std::to_string(threads) + "t", elapsed);
    std::printf("  engine, %d thread%s    : %7.2f s  (%6.1f ms/image)  "
                "speedup %.2fx\n",
                threads, threads == 1 ? " " : "s", elapsed,
                1000.0 * elapsed / batch_size, serial_s / elapsed);

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < images.size(); ++i) {
      if (!same_result(batch[i].decision, serial[i])) ++mismatches;
    }
    std::printf("  bit-identical to serial (%d thread%s): %s\n", threads,
                threads == 1 ? "" : "s",
                mismatches == 0
                    ? "yes"
                    : ("NO — " + std::to_string(mismatches) + " mismatches")
                          .c_str());
    if (mismatches != 0) return 1;
  }
  std::printf("  caching win alone (1 thread): %.2fx\n\n",
              serial_s / engine1_s);
  hebs::bench::write_bench_json("BENCH_pipeline.json", records);
  return 0;
}

// ------------------------------------------------------------------------
// Cold-frame stage breakdown
// ------------------------------------------------------------------------

// Attributes the cold-frame latency budget stage by stage from the
// observability layer's own span tracer and counter registry: N cold
// frames run under tracing (coarse-to-fine search on and off), and the
// table aggregates the recorded spans per stage — so the breakdown is
// exactly what a Perfetto view of a production trace shows, including
// the per-probe costs and memo hit rates the ad-hoc stage timers of the
// previous incarnation could not see.
int run_stage_breakdown() {
  constexpr double kBudget = 10.0;
  constexpr int kSize = hebs::bench::kImageSize;
  constexpr int kReps = 30;
  const auto album = image::usid_album(kSize);
  const auto& img = album[0].image;

  std::printf("=== Cold-frame stage breakdown: %s (%dx%d), D_max %.0f%%, "
              "kernel backend %s ===\n",
              album[0].name.c_str(), kSize, kSize, kBudget,
              kernels::active().name);
  std::printf("span-tracer attribution over %d cold frames per search "
              "mode\n\n", kReps);

  struct StageAgg {
    double total_ms = 0.0;
    std::uint64_t events = 0;
  };
  struct ModeReport {
    std::array<StageAgg, obs::kSpanCount> stages{};
    double frame_ms = 0.0;  ///< mean end-to-end kFrame span
    obs::CounterSnapshot delta;
  };

  const auto run_traced = [&](bool coarse) {
    pipeline::EngineOptions opts;
    opts.num_threads = 1;
    opts.hebs.coarse_search = coarse;
    pipeline::PipelineEngine engine(opts);
    obs::clear_trace();
    const auto before = obs::snapshot_counters();
    for (int r = 0; r < kReps; ++r) {
      const std::span<const image::GrayImage> one(&img, 1);
      benchmark::DoNotOptimize(
          engine.run_batch(one, [](pipeline::FrameContext& ctx) {
            return pipeline::run_exact(ctx, kBudget);
          }));
    }
    ModeReport report;
    report.delta = obs::snapshot_counters().delta_since(before);
    for (const obs::CollectedSpan& s : obs::collect_trace()) {
      auto& agg = report.stages[static_cast<std::size_t>(s.span)];
      agg.total_ms += static_cast<double>(s.dur_ns) / 1e6;
      ++agg.events;
    }
    const auto& frame =
        report.stages[static_cast<std::size_t>(obs::Span::kFrame)];
    report.frame_ms = frame.events == 0
                          ? 0.0
                          : frame.total_ms /
                                static_cast<double>(frame.events);
    return report;
  };

  obs::start_tracing();
  const ModeReport coarse = run_traced(true);
  const ModeReport bisect = run_traced(false);
  obs::stop_tracing();

  std::printf("  %-22s %12s %12s %14s\n", "stage (span)", "ms/frame",
              "events/frame", "ms/event");
  const obs::Span rows[] = {obs::Span::kHistogram, obs::Span::kRangeSearch,
                            obs::Span::kRangeProbe, obs::Span::kBetaRefine,
                            obs::Span::kBetaProbe, obs::Span::kLutApply};
  for (const obs::Span span : rows) {
    const StageAgg& agg = coarse.stages[static_cast<std::size_t>(span)];
    if (agg.events == 0) continue;
    const double per_frame = agg.total_ms / kReps;
    const double events_per_frame =
        static_cast<double>(agg.events) / kReps;
    std::printf("  %-22s %12.3f %12.1f %14.4f\n", obs::span_name(span),
                per_frame, events_per_frame,
                agg.total_ms / static_cast<double>(agg.events));
  }
  std::printf("  %-22s %12.3f\n", "frame (end-to-end)", coarse.frame_ms);

  const auto probes_per_frame = [](const ModeReport& m) {
    return static_cast<double>(m.delta[obs::Counter::kRangeProbes]) / kReps;
  };
  const auto memo_rate = [](const ModeReport& m) {
    const auto hits = m.delta[obs::Counter::kEvalMemoHit];
    const auto misses = m.delta[obs::Counter::kEvalMemoMiss];
    return hits + misses == 0
               ? 0.0
               : 100.0 * static_cast<double>(hits) /
                     static_cast<double>(hits + misses);
  };
  std::printf("\n  exact probes/frame     : %6.1f coarse, %6.1f bisect\n",
              probes_per_frame(coarse), probes_per_frame(bisect));
  std::printf("  eval-memo hit rate     : %6.1f%% coarse, %6.1f%% bisect\n",
              memo_rate(coarse), memo_rate(bisect));
  std::printf("  cold frame, bisection  : %8.3f ms\n", bisect.frame_ms);
  std::printf("  cold frame, coarse     : %8.3f ms  (speedup %.2fx)\n",
              coarse.frame_ms, bisect.frame_ms / coarse.frame_ms);
  return 0;
}

// ------------------------------------------------------------------------
// Stage microbenchmarks
// ------------------------------------------------------------------------

void BM_HistogramFromImage(benchmark::State& state) {
  const auto& img = test_image();
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram::Histogram::from_image(img));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.size()));
}
BENCHMARK(BM_HistogramFromImage);

void BM_GheSolve(benchmark::State& state) {
  const auto hist = histogram::Histogram::from_image(test_image());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ghe_transform(hist, core::GheTarget{0, 150}));
  }
}
BENCHMARK(BM_GheSolve);

void BM_PlcCoarsen(benchmark::State& state) {
  const auto hist = histogram::Histogram::from_image(test_image());
  const auto phi = core::ghe_transform(hist, core::GheTarget{0, 150});
  const int segments = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::plc_coarsen(phi, segments));
  }
}
BENCHMARK(BM_PlcCoarsen)->Arg(2)->Arg(8)->Arg(32);

void BM_LadderProgram(benchmark::State& state) {
  const auto hist = histogram::Histogram::from_image(test_image());
  const auto phi = core::ghe_transform(hist, core::GheTarget{0, 150});
  const auto lambda = core::plc_coarsen(phi, 8).curve;
  display::HierarchicalLadder ladder;
  for (auto _ : state) {
    ladder.program(lambda, 150.0 / 255.0);
    benchmark::DoNotOptimize(ladder.node_voltages());
  }
}
BENCHMARK(BM_LadderProgram);

void BM_LutApply(benchmark::State& state) {
  const auto hist = histogram::Histogram::from_image(test_image());
  const auto lut = core::ghe_lut(hist, core::GheTarget{0, 150});
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut.apply(test_image()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(test_image().size()));
}
BENCHMARK(BM_LutApply);

void BM_CurveSampleLevels(benchmark::State& state) {
  // The one-sweep per-level sampling that replaced 256 binary searches
  // in the evaluation path.
  const auto hist = histogram::Histogram::from_image(test_image());
  const auto phi = core::ghe_transform(hist, core::GheTarget{0, 150});
  for (auto _ : state) {
    benchmark::DoNotOptimize(phi.sample_levels());
  }
}
BENCHMARK(BM_CurveSampleLevels);

void BM_FullPipelineAtRange(benchmark::State& state) {
  // Histogram -> GHE -> PLC -> β -> evaluation (the Fig. 4 flow,
  // including the distortion measurement our evaluation adds).
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::hebs_at_range(test_image(), 150, {}, platform()));
  }
}
BENCHMARK(BM_FullPipelineAtRange)->Unit(benchmark::kMillisecond);

void BM_DistortionUiqiHvs(benchmark::State& state) {
  const auto& img = test_image();
  const auto hist = histogram::Histogram::from_image(img);
  const auto lut = core::ghe_lut(hist, core::GheTarget{0, 150});
  const auto transformed = lut.apply(img);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quality::distortion_percent(img, transformed));
  }
  state.SetLabel("the offline-only stage");
}
BENCHMARK(BM_DistortionUiqiHvs)->Unit(benchmark::kMillisecond);

void BM_DistortionEvaluatorReuse(benchmark::State& state) {
  // Same measurement with the reference-side caches built once — the
  // per-probe cost inside hebs_exact's bisection.
  const auto& img = test_image();
  const auto hist = histogram::Histogram::from_image(img);
  const auto lut = core::ghe_lut(hist, core::GheTarget{0, 150});
  const auto transformed =
      image::FloatImage::from_gray(lut.apply(img));
  const quality::DistortionEvaluator evaluator(
      image::FloatImage::from_gray(img));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.percent(transformed));
  }
}
BENCHMARK(BM_DistortionEvaluatorReuse)->Unit(benchmark::kMillisecond);

void BM_ExactSearch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::hebs_exact(test_image(), 10.0, {}, platform()));
  }
}
BENCHMARK(BM_ExactSearch)->Unit(benchmark::kMillisecond);

void BM_ExactSearchSeedPath(benchmark::State& state) {
  // The uncached per-probe replay — what hebs_exact cost before the
  // staged pipeline's FrameContext memoization.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seed_serial_hebs_exact(test_image(), 10.0, {}));
  }
}
BENCHMARK(BM_ExactSearchSeedPath)->Unit(benchmark::kMillisecond);

void BM_CurveLookupFlow(benchmark::State& state) {
  // The deployed per-frame runtime flow of Fig. 4: curve lookup ->
  // histogram -> GHE -> PLC -> ladder programming.  No perceptual-metric
  // evaluation happens here — that is exactly what the offline
  // characterization buys (§3).
  static const auto curve = [] {
    const auto album = image::usid_figure8_subset(64);
    const auto ranges = core::DistortionCurve::default_ranges();
    return core::DistortionCurve::characterize(album, ranges, {},
                                               platform());
  }();
  display::HierarchicalLadder ladder;
  for (auto _ : state) {
    const int range = curve.min_range_for(10.0);
    const auto hist = histogram::Histogram::from_image(test_image());
    const auto phi =
        core::ghe_transform(hist, core::GheTarget{0, range});
    const auto lambda = core::plc_coarsen(phi, 8).curve;
    ladder.program(lambda, range / 255.0);
    benchmark::DoNotOptimize(ladder.node_voltages());
  }
  state.SetLabel("runtime flow of Fig. 4, no metric in the loop");
}
BENCHMARK(BM_CurveLookupFlow)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  int report_batch_size = 64;
  bool report_only = false;
  bool skip_report = false;
  bool stage_breakdown = false;
  // Strip our flags before handing the rest to google-benchmark.
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--report-batch=", 15) == 0) {
      report_batch_size = std::max(1, std::atoi(arg + 15));
    } else if (std::strcmp(arg, "--report-only") == 0) {
      report_only = true;
    } else if (std::strcmp(arg, "--skip-report") == 0) {
      skip_report = true;
    } else if (std::strcmp(arg, "--stage-breakdown") == 0) {
      stage_breakdown = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (stage_breakdown) {
    return run_stage_breakdown();
  }
  if (!skip_report) {
    const int rc = run_batch_report(report_batch_size);
    if (rc != 0) return rc;
    if (report_only) return 0;
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
