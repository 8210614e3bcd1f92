// Per-frame latency distribution for the exact-search decision path,
// plus the aggregate throughput of frame-level parallelism.
//
// Throughput benches (bench_pipeline_throughput) measure frames/second
// over a batch, which hides exactly the number an interactive display
// controller cares about: how long ONE cold frame takes from raster to
// decision.  This bench times every frame of a photo/gradient/flat mix
// individually and reports p50/p99 per configuration:
//
//   cold-1t         engine, 1 thread, coarse-to-fine search (default)
//   cold-1t-bisect  engine, 1 thread, coarse_search off (the frozen
//                   oracle bisection -- the before picture)
//   warm-1t         streaming steady state: marginal cost per duplicate
//                   frame under the temporal-coherence fast path
//
// The two cold rows run on two engines that take turns frame by frame
// on every pass, so host speed drift lands on both alike and their p50
// ratio (the --min-speedup gate below) stays steady.
//
// A frame always runs on one thread, so extra workers only pay across
// frames.  The batch rows measure exactly that: one run_batch over
// the whole mix per pass, reporting frames/s and scaling efficiency
// (fps / (effective workers x batch-1t fps)):
//
//   batch-1t, batch-2t, batch-4t   engine with 1/2/4 threads
//
// Per-frame samples come from the observability layer's span tracer,
// not ad-hoc timers: every sample is the duration of the engine's own
// kFrame span (plus the flicker post-stage span for the streaming
// config), so this bench measures exactly what a trace viewer shows.
// Counter deltas add the search depth per configuration.  Batch rows
// are wall time around the whole run_batch call, taken with
// tracing off.
//
// Records merge into BENCH_pipeline.json (other benches' records are
// preserved).  Latency rows: {"bench": "frame_latency", "config",
// "p50_ns", "p99_ns", "mpix_per_s", "backend", "range_probes_per_frame",
// "reuse_byte_identical", "reuse_delta_refresh", "reuse_cold"}.  Batch
// rows: {"bench": "frame_latency", "config", "workers",
// "effective_workers", "batch_p50_ns", "fps", "scaling_efficiency",
// "backend"}.
//
// Gates (exit 1):
//   * batch scaling: where ThreadPool(4).effective_concurrency() >= 2,
//     batch-4t (which runs min(4, hardware) workers) must beat
//     batch-1t frames/s; skipped when effective parallelism is 1.
//   * --min-speedup (below).
//
// Flags:
//   --passes=N        timing passes over the mix (default 4)
//   --min-speedup=X   CI gate: fail unless p50(cold-1t-bisect) /
//                     p50(cold-1t) >= X (default: no gate)
//   --per-frame       per-frame medians of the two 1-thread cold paths
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hebs/advanced/core.h"
#include "hebs/advanced/kernels.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"

namespace {

using namespace hebs;

constexpr double kBudget = 10.0;

struct MixFrame {
  std::string name;
  image::GrayImage image;
};

/// 24 frames, 8 per class.  Photos exercise the full search depth;
/// gradients have smooth well-spread histograms (typical UI/video
/// content); flats are the best case every adaptive-backlight paper
/// leads with (native range ~0, the search collapses immediately).
std::vector<MixFrame> latency_mix(int size) {
  std::vector<MixFrame> mix;
  const auto album = image::usid_album(size);
  for (std::size_t i = 0; i < album.size() && mix.size() < 8; ++i) {
    mix.push_back({"photo:" + album[i].name, album[i].image});
  }
  const auto gradient = [&](const std::string& name, auto&& draw) {
    image::GrayImage img(size, size);
    draw(img);
    mix.push_back({"gradient:" + name, std::move(img)});
  };
  gradient("h-full", [](auto& g) { image::gradient_h(g, 0.0, 1.0); });
  gradient("h-mid", [](auto& g) { image::gradient_h(g, 0.2, 0.9); });
  gradient("v-full", [](auto& g) { image::gradient_v(g, 0.0, 1.0); });
  gradient("v-dim", [](auto& g) { image::gradient_v(g, 0.1, 0.6); });
  gradient("radial", [&](auto& g) {
    image::gradient_radial(g, size / 2.0, size / 2.0, size * 0.7, 1.0, 0.0);
  });
  gradient("radial-off", [&](auto& g) {
    image::gradient_radial(g, size / 3.0, size / 3.0, size * 0.9, 0.8, 0.1);
  });
  gradient("h-rev", [](auto& g) { image::gradient_h(g, 1.0, 0.0); });
  gradient("v-vignette", [&](auto& g) {
    image::gradient_v(g, 0.3, 1.0);
    image::vignette(g, 0.6);
  });
  for (const double v : {0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0}) {
    image::GrayImage img(size, size);
    image::fill_rect(img, 0, 0, size, size, v);
    mix.push_back({"flat:" + std::to_string(v).substr(0, 4),
                   std::move(img)});
  }
  return mix;
}

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

/// Counter deltas a sampling run attributes to its records.
struct RunCounters {
  double range_probes_per_frame = 0.0;
  double reuse_ident = 0.0;
  double reuse_refresh = 0.0;
  double reuse_cold = 0.0;
};

/// The exact-search decision at the bench budget.
core::HebsResult decide(pipeline::FrameContext& ctx) {
  return pipeline::run_exact(ctx, kBudget);
}

/// Times each frame of the mix through a fresh single-frame batch call
/// on both 1-thread cold paths: histogram, search and render all run
/// cold.  Two engines (coarse-to-fine and the frozen bisection) take
/// turns frame by frame on every pass, so one-thread speed drift on the
/// host lands on both alike and their p50 ratio stays steady.  Samples
/// are the durations of the engine's kFrame spans, in call order;
/// `coarse` and `bisect` receive one each per frame per pass.
void cold_samples(const std::vector<MixFrame>& mix, int passes,
                  std::vector<double>& coarse, RunCounters& coarse_counters,
                  std::vector<double>& bisect,
                  RunCounters& bisect_counters) {
  struct Path {
    std::unique_ptr<pipeline::PipelineEngine> engine;
    std::vector<double>& samples;
    RunCounters& counters;
    std::uint64_t range_probes = 0;
  };
  const auto make_engine = [](bool coarse_search) {
    pipeline::EngineOptions opts;
    opts.num_threads = 1;
    opts.hebs.coarse_search = coarse_search;
    return std::make_unique<pipeline::PipelineEngine>(opts);
  };
  Path paths[] = {{make_engine(true), coarse, coarse_counters},
                  {make_engine(false), bisect, bisect_counters}};
  const std::size_t expected = mix.size() * static_cast<std::size_t>(passes);
  for (Path& path : paths) path.samples.reserve(expected);
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& frame : mix) {
      const std::span<const image::GrayImage> one(&frame.image, 1);
      for (Path& path : paths) {
        obs::clear_trace();
        const auto before = obs::snapshot_counters();
        const auto result = path.engine->run_batch(one, decide);
        if (result.empty()) std::exit(2);  // keep the call observable
        path.range_probes += obs::snapshot_counters().delta_since(
            before)[obs::Counter::kRangeProbes];
        for (const obs::CollectedSpan& s : obs::collect_trace()) {
          if (s.span == obs::Span::kFrame) {
            path.samples.push_back(static_cast<double>(s.dur_ns));
          }
        }
      }
    }
  }
  for (Path& path : paths) {
    if (path.samples.size() != expected) {
      std::fprintf(stderr,
                   "FAIL: expected %zu kFrame spans, collected %zu "
                   "(dropped %llu)\n",
                   expected, path.samples.size(),
                   static_cast<unsigned long long>(obs::dropped_spans()));
      std::exit(2);
    }
    path.counters.range_probes_per_frame =
        static_cast<double>(path.range_probes) /
        static_cast<double>(expected);
  }
}

/// Streaming steady state: runs a clip of `kReps` duplicates of each
/// frame and reports the mean warm per-frame cost — the duration of a
/// duplicate frame's kFrame span plus its flicker post-stage span,
/// excluding the cold head (span arg = frame index) -- what a static
/// scene costs per frame once the temporal fast path is warm.
std::vector<double> warm_samples(const std::vector<MixFrame>& mix,
                                 int passes, RunCounters* counters) {
  constexpr int kReps = 17;
  pipeline::EngineOptions opts;
  opts.num_threads = 1;
  pipeline::PipelineEngine engine(opts);
  core::VideoOptions vopts;
  vopts.d_max_percent = kBudget;
  const auto before = obs::snapshot_counters();
  std::vector<double> samples;
  samples.reserve(mix.size() * static_cast<std::size_t>(passes));
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& frame : mix) {
      const std::vector<image::GrayImage> clip(kReps, frame.image);
      core::VideoBacklightController controller(vopts);
      obs::clear_trace();
      engine.run_stream(pipeline::FrameSource(clip), controller);
      double warm_ns = 0.0;
      int warm_frames = 0;
      for (const obs::CollectedSpan& s : obs::collect_trace()) {
        if (s.arg == 0) continue;  // the cold head frame
        if (s.span == obs::Span::kFrame) {
          warm_ns += static_cast<double>(s.dur_ns);
          ++warm_frames;
        } else if (s.span == obs::Span::kFlickerPost) {
          warm_ns += static_cast<double>(s.dur_ns);
        }
      }
      if (warm_frames != kReps - 1) {
        std::fprintf(stderr, "FAIL: expected %d warm kFrame spans, got %d\n",
                     kReps - 1, warm_frames);
        std::exit(2);
      }
      samples.push_back(warm_ns / warm_frames);
    }
  }
  const auto delta = obs::snapshot_counters().delta_since(before);
  if (counters != nullptr) {
    const auto frames = static_cast<double>(samples.size()) * kReps;
    counters->range_probes_per_frame =
        static_cast<double>(delta[obs::Counter::kRangeProbes]) / frames;
    counters->reuse_ident = static_cast<double>(
        delta[obs::Counter::kTemporalByteIdentical]);
    counters->reuse_refresh =
        static_cast<double>(delta[obs::Counter::kTemporalDeltaRefresh]);
    counters->reuse_cold =
        static_cast<double>(delta[obs::Counter::kTemporalCold]);
  }
  return samples;
}

/// Worker counts of the batch rows.
constexpr int kBatchThreads[] = {1, 2, 4};

/// Aggregate throughput of frame-level parallelism: one engine per
/// entry of kBatchThreads, then `passes` rounds that each time one
/// run_batch over the whole mix per engine.  Rounds interleave the
/// engines so a stretch of host contention lands on every worker count
/// alike.  Returns wall times in ns, one vector per worker count.
std::vector<std::vector<double>> batch_samples(
    const std::vector<MixFrame>& mix, int passes) {
  std::vector<image::GrayImage> frames;
  frames.reserve(mix.size());
  for (const auto& frame : mix) frames.push_back(frame.image);
  const std::span<const image::GrayImage> all(frames.data(), frames.size());
  std::vector<std::unique_ptr<pipeline::PipelineEngine>> engines;
  for (const int threads : kBatchThreads) {
    pipeline::EngineOptions opts;
    opts.num_threads = threads;
    engines.push_back(std::make_unique<pipeline::PipelineEngine>(opts));
  }
  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<double>> samples(engines.size());
  const auto round = [&](bool timed) {
    for (std::size_t e = 0; e < engines.size(); ++e) {
      const auto start = Clock::now();
      const auto results = engines[e]->run_batch(all, decide);
      const auto stop = Clock::now();
      if (results.size() != frames.size()) std::exit(2);
      if (timed) {
        samples[e].push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                .count()));
      }
    }
  };
  // Untimed warm-up rounds (worker start, pool fill) for at least two
  // seconds: after seconds of single-threaded load (the latency rows),
  // a virtualized host can hand a fresh fan-out one CPU for about a
  // second before the other vCPUs catch up.
  const auto warm_start = Clock::now();
  do {
    round(false);
  } while (Clock::now() - warm_start < std::chrono::seconds(2));
  for (int pass = 0; pass < passes; ++pass) round(true);
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  int passes = 4;
  double min_speedup = 0.0;
  bool per_frame = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--passes=", 9) == 0) {
      passes = std::max(1, std::atoi(arg + 9));
    } else if (std::strncmp(arg, "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(arg + 14);
    } else if (std::strcmp(arg, "--per-frame") == 0) {
      per_frame = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 2;
    }
  }

  const int size = hebs::bench::kImageSize;
  const auto mix = latency_mix(size);
  const std::string backend = hebs::kernels::active().name;
  hebs::bench::print_header(
      "Per-frame decision latency (p50/p99 over a photo/gradient/flat mix)",
      "supports the cold-frame latency budget of DESIGN.md §11");
  std::printf("mix: %zu frames (%dx%d), D_max %.0f%%, %d passes, "
              "backend %s\n\n",
              mix.size(), size, size, kBudget, passes, backend.c_str());

  // Latency samples are span durations, so record through those rows.
  obs::start_tracing();

  struct Row {
    std::string config;
    std::vector<double> samples;
    RunCounters counters;
  };
  std::vector<Row> rows;
  rows.push_back({"cold-1t", {}, {}});
  rows.push_back({"cold-1t-bisect", {}, {}});
  cold_samples(mix, passes, rows[0].samples, rows[0].counters,
               rows[1].samples, rows[1].counters);
  rows.push_back({"warm-1t", {}, {}});
  rows.back().samples = warm_samples(mix, passes, &rows.back().counters);

  obs::stop_tracing();

  std::printf("  %-16s %10s %10s %12s %14s\n", "config", "p50 (ms)",
              "p99 (ms)", "Mpix/s @p50", "probes/frame");
  std::vector<std::string> records;
  auto csv = hebs::bench::open_csv("frame_latency.csv");
  csv.write_row({"config", "p50_ns", "p99_ns", "mpix_per_s", "backend",
                 "range_probes_per_frame"});
  for (const Row& row : rows) {
    const double p50 = percentile(row.samples, 0.50);
    const double p99 = percentile(row.samples, 0.99);
    const double mpix =
        static_cast<double>(size) * size / (p50 / 1e9) / 1e6;
    std::printf("  %-16s %10.3f %10.3f %12.2f %14.1f\n", row.config.c_str(),
                p50 / 1e6, p99 / 1e6, mpix,
                row.counters.range_probes_per_frame);
    char line[384];
    std::snprintf(line, sizeof line,
                  "{\"bench\": \"frame_latency\", \"config\": \"%s\", "
                  "\"p50_ns\": %.1f, \"p99_ns\": %.1f, "
                  "\"mpix_per_s\": %.3f, \"backend\": \"%s\", "
                  "\"range_probes_per_frame\": %.2f, "
                  "\"reuse_byte_identical\": %.0f, "
                  "\"reuse_delta_refresh\": %.0f, \"reuse_cold\": %.0f}",
                  row.config.c_str(), p50, p99, mpix, backend.c_str(),
                  row.counters.range_probes_per_frame,
                  row.counters.reuse_ident, row.counters.reuse_refresh,
                  row.counters.reuse_cold);
    records.emplace_back(line);
    csv.write_row({row.config, hebs::util::CsvWriter::num(p50),
                   hebs::util::CsvWriter::num(p99),
                   hebs::util::CsvWriter::num(mpix), backend,
                   hebs::util::CsvWriter::num(
                       row.counters.range_probes_per_frame)});
  }
  const auto& coarse = rows[0].samples;
  const auto& bisect = rows[1].samples;
  const double speedup =
      percentile(bisect, 0.50) / percentile(coarse, 0.50);
  std::printf("\n  coarse-search speedup (p50, 1 thread): %.2fx\n", speedup);

  if (per_frame) {
    // Attribution view: per-frame medians for the two 1-thread paths,
    // so a p50 shift is traceable to the frames that moved it.
    std::printf("\n  %-22s %12s %12s\n", "frame", "coarse (ms)",
                "bisect (ms)");
    for (std::size_t f = 0; f < mix.size(); ++f) {
      std::vector<double> a;
      std::vector<double> b;
      for (int pass = 0; pass < passes; ++pass) {
        a.push_back(coarse[static_cast<std::size_t>(pass) * mix.size() + f]);
        b.push_back(bisect[static_cast<std::size_t>(pass) * mix.size() + f]);
      }
      std::printf("  %-22s %12.3f %12.3f\n", mix[f].name.c_str(),
                  percentile(a, 0.5) / 1e6, percentile(b, 0.5) / 1e6);
    }
  }

  // Frame-level parallelism: the same mix as one batch per pass.
  std::printf("\n  %-16s %8s %10s %14s %10s %11s\n", "config", "workers",
              "effective", "batch p50 (ms)", "frames/s", "efficiency");
  // batch-4t runs min(4, hardware) workers: the pool caps claimants.
  const int effective = hebs::pipeline::ThreadPool(4).effective_concurrency();
  const auto batches = batch_samples(mix, passes);
  std::vector<double> fps_by_row;
  for (std::size_t e = 0; e < batches.size(); ++e) {
    const int threads = kBatchThreads[e];
    const std::string config = "batch-" + std::to_string(threads) + "t";
    const int workers = std::min(threads, effective);
    const double p50 = percentile(batches[e], 0.50);
    const double fps = static_cast<double>(mix.size()) / (p50 / 1e9);
    fps_by_row.push_back(fps);
    const double efficiency = fps / (workers * fps_by_row.front());
    std::printf("  %-16s %8d %10d %14.3f %10.1f %11.2f\n", config.c_str(),
                threads, workers, p50 / 1e6, fps, efficiency);
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"bench\": \"frame_latency\", \"config\": \"%s\", "
                  "\"workers\": %d, \"effective_workers\": %d, "
                  "\"batch_p50_ns\": %.1f, \"fps\": %.2f, "
                  "\"scaling_efficiency\": %.3f, \"backend\": \"%s\"}",
                  config.c_str(), threads, workers, p50, fps, efficiency,
                  backend.c_str());
    records.emplace_back(line);
  }

  // Extra workers must raise batch throughput where they exist at all.
  // On a box whose effective parallelism is 1 (CI containers) batch-4t
  // degenerates to the 1-thread path, so the gate is skipped there.
  const double fps_1t = fps_by_row.front();
  const double fps_4t = fps_by_row.back();
  if (effective >= 2) {
    std::printf("\n  batch %dt vs 1t (frames/s): %.2fx\n", effective,
                fps_4t / fps_1t);
    if (fps_4t <= fps_1t) {
      std::fprintf(stderr,
                   "FAIL: batch-4t (%d effective workers) %.1f frames/s not "
                   "above batch-1t %.1f frames/s\n",
                   effective, fps_4t, fps_1t);
      return 1;
    }
  } else {
    std::printf("\n  batch scaling gate: skipped (effective parallelism 1)\n");
  }

  hebs::bench::merge_bench_json("BENCH_pipeline.json", "frame_latency",
                                records);

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: coarse-search p50 speedup %.2fx below the "
                 "--min-speedup=%.2f gate\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
