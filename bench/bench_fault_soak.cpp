// Fault-injection soak harness (DESIGN.md §14).
//
// Drives every throwing fault point through the engine's batch and
// stream paths — gray and color — at 1, 2 and 8 threads with a
// *persistent* spec (count=0: the point re-fires on every hit, so the
// containment handlers themselves are exercised under sustained fire),
// plus a deadline-soak leg under the stage-latency stall point.  After
// every leg the harness checks the containment contract:
//
//   - the call returned (nothing escaped, nothing crashed),
//   - every frame is accounted for (results and fault records align),
//   - the degraded count matches the registry's kFramesDegraded delta,
//   - every degraded frame carries a non-empty attribution message.
//
// Exit code 1 on any violation — deterministic (no timing thresholds),
// so CI gates on it, typically under ASan where a leaked or
// double-freed containment path would also abort the run.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hebs/advanced/core.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"

namespace {

namespace fault = hebs::util::fault;
using hebs::core::ColorMode;
using hebs::core::VideoBacklightController;
using hebs::image::GrayImage;
using hebs::image::RgbImage;
using hebs::image::UsidId;
using hebs::pipeline::EngineOptions;
using hebs::pipeline::FrameContext;
using hebs::pipeline::FrameFault;
using hebs::pipeline::FrameSource;
using hebs::pipeline::PipelineEngine;

/// The exact-search decision at a 10% budget.
hebs::core::HebsResult exact10(FrameContext& ctx) {
  return hebs::pipeline::run_exact(ctx, 10.0);
}

int g_violations = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_violations;
  std::printf("  VIOLATION: %s\n", what.c_str());
}

std::vector<GrayImage> clip(int count) {
  const UsidId ids[] = {UsidId::kLena, UsidId::kPeppers, UsidId::kBaboon,
                        UsidId::kGirl, UsidId::kPout,    UsidId::kSail,
                        UsidId::kTrees, UsidId::kSplash};
  std::vector<GrayImage> frames;
  frames.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    frames.push_back(hebs::image::make_usid(ids[i % 8], 48));
  }
  return frames;
}

std::vector<RgbImage> color_clip(int count) {
  std::vector<RgbImage> frames;
  frames.reserve(static_cast<std::size_t>(count));
  for (const auto& g : clip(count)) {
    frames.push_back(RgbImage::from_gray(g));
  }
  return frames;
}

/// Verifies one leg's fault records against the counter registry.
void audit(const char* leg, const std::vector<FrameFault>& faults,
           std::size_t frames, const hebs::obs::CounterSnapshot& before) {
  check(faults.size() == frames,
        std::string(leg) + ": fault records misaligned");
  std::size_t degraded = 0;
  for (const FrameFault& f : faults) {
    if (!f.degraded) continue;
    ++degraded;
    check(!f.message.empty(),
          std::string(leg) + ": degraded frame with empty attribution");
  }
  const auto d = hebs::obs::snapshot_counters().delta_since(before);
  check(d[hebs::obs::Counter::kFramesDegraded] == degraded,
        std::string(leg) + ": kFramesDegraded != degraded records");
  std::printf("  %-28s %2zu/%zu frames degraded\n", leg, degraded, frames);
}

void soak_point(const char* spec) {
  const auto frames = clip(8);
  const auto rgb = color_clip(6);
  for (int threads : {1, 2, 8}) {
    std::printf("%s @ %d threads\n", spec, threads);
    EngineOptions opts;
    opts.num_threads = threads;
    hebs::core::VideoOptions vopts;
    vopts.num_threads = threads;

    std::string error;
    std::vector<FrameFault> faults;

    // Batch.
    fault::clear_all();
    check(fault::install_from_string(spec, &error), error);
    auto before = hebs::obs::snapshot_counters();
    PipelineEngine(opts, hebs::bench::platform())
        .run_batch(FrameSource(frames), exact10, &faults);
    fault::clear_all();
    audit("batch", faults, frames.size(), before);

    // Batch color.
    check(fault::install_from_string(spec, &error), error);
    before = hebs::obs::snapshot_counters();
    PipelineEngine(opts, hebs::bench::platform())
        .run_batch(FrameSource(rgb, ColorMode::kSharedCurve), exact10,
                   &faults);
    fault::clear_all();
    audit("batch-color", faults, rgb.size(), before);

    // Stream (temporal on: the quarantine path rebuilds reuse chains).
    check(fault::install_from_string(spec, &error), error);
    before = hebs::obs::snapshot_counters();
    VideoBacklightController controller(vopts, hebs::bench::platform());
    PipelineEngine(opts, hebs::bench::platform())
        .run_stream(FrameSource(frames), controller, &faults);
    fault::clear_all();
    audit("stream", faults, frames.size(), before);

    // Stream color.
    check(fault::install_from_string(spec, &error), error);
    before = hebs::obs::snapshot_counters();
    VideoBacklightController color_controller(vopts,
                                              hebs::bench::platform());
    PipelineEngine(opts, hebs::bench::platform())
        .run_stream(FrameSource(rgb, ColorMode::kSharedCurve),
                    color_controller, &faults);
    fault::clear_all();
    audit("stream-color", faults, rgb.size(), before);
  }
}

void soak_deadline() {
  const auto frames = clip(4);
  std::printf("stage-latency + %dus deadline\n", 500);
  std::string error;
  std::vector<FrameFault> faults;
  fault::clear_all();
  check(fault::install_from_string("stage-latency:stall_us=1500,count=0",
                                   &error),
        error);
  EngineOptions opts;
  opts.num_threads = 2;
  opts.frame_deadline_us = 500;
  const auto before = hebs::obs::snapshot_counters();
  PipelineEngine(opts, hebs::bench::platform())
      .run_batch(FrameSource(frames), exact10, &faults);
  fault::clear_all();
  audit("batch-deadline", faults, frames.size(), before);
  std::size_t deadline_faults = 0;
  for (const FrameFault& f : faults) deadline_faults += f.deadline ? 1 : 0;
  const auto d = hebs::obs::snapshot_counters().delta_since(before);
  check(d[hebs::obs::Counter::kDeadlineMiss] == deadline_faults,
        "kDeadlineMiss != deadline fault records");
}

}  // namespace

int main() {
  hebs::bench::print_header(
      "Fault-injection soak",
      "DESIGN.md §14 containment contract under sustained fire");

  // Persistent specs: every 3rd hit fires, forever.  A frame can fault
  // repeatedly across its probes; containment must hold every time.
  soak_point("worker-task:first=2,every=3,count=0");
  soak_point("frame-corrupt:first=2,every=3,count=0");
  soak_point("pool-alloc:first=2,every=5,count=0");
  soak_deadline();

  fault::clear_all();
  if (g_violations != 0) {
    std::printf("\nFAIL: %d containment violation(s)\n", g_violations);
    return 1;
  }
  std::printf("\nOK: containment contract held on every leg\n");
  return 0;
}
