// The pipeline engine: a thread-pool-backed batch/stream executor for
// the staged HEBS pipeline.  Two entry points, one per schedule:
//
//   run_batch(source, decide)       independent frames over the pool
//   run_stream(source, controller)  a clip under ordered flicker control
//
// A FrameSource is a span of gray8, gray16 or rgb8 frames.  An rgb8
// source is decided on each frame's BT.601 luma and gets the
// post-decision color stage.  Containment, frame spans and pool scopes
// are written once per schedule, so every source and every policy gets
// the same fault and deadline handling (DESIGN.md §14).
//
// Batch mode (photo albums, characterization sweeps, table regeneration)
// fans independent frames out over the pool; every worker owns one
// FrameContext that it rebinds per frame, so frame-side caches are
// reused without cross-thread sharing.  `decide` is the policy: any
// per-frame decision over the bound context (the exact search, a fixed
// range, the curve lookup, BBHE, a baseline).  Results are written by
// frame index — output order (and every computed bit) is independent of
// the thread count.
//
// Stream mode (video) splits each frame's work into the parallelizable
// per-frame HEBS search and the inherently ordered flicker-control
// post-stage: raw operating points are computed concurrently, then the
// VideoBacklightController consumes them strictly in frame order,
// producing exactly the decisions the serial controller makes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/color.h"
#include "core/hebs.h"
#include "core/video.h"
#include "pipeline/executor.h"
#include "pipeline/frame_context.h"

namespace hebs::pipeline {

/// Engine configuration.
struct EngineOptions {
  /// Worker threads; <= 0 selects the hardware concurrency.
  int num_threads = 0;
  /// Pipeline options of the batch mode's FrameContexts.  Stream mode
  /// ignores this and uses the controller's VideoOptions::hebs instead
  /// (the controller defines the stream's semantics).
  core::HebsOptions hebs;
  /// Per-worker recycling buffer pools: all per-frame scratch (rasters,
  /// integral tables, curves, memo nodes) recycles instead of hitting
  /// the heap — the engine's steady state allocates nothing per frame.
  /// Purely a performance knob; outputs are identical either way.
  bool use_buffer_pool = true;
  /// Stream mode: temporal-coherence fast path (duplicate-frame reuse,
  /// incremental histograms, warm-started searches).  Outputs are
  /// bit-identical to the cold path whenever measured distortion is
  /// monotone over the search interval (sub-0.1% quantization wiggles
  /// are the only exception; every decision honors the distortion
  /// budget either way — see DESIGN.md §9 and pipeline/temporal.h).
  /// Disable for unconditional cold-path equality.
  bool temporal_reuse = true;
  /// Byte cap of each per-worker pool, 0 = unlimited.  It bounds both
  /// the free-list retention and the bytes checked out at once;
  /// exhaustion degrades to counted plain-heap blocks (obs
  /// kPoolHeapFallback) — it never fails a frame.
  std::size_t pool_max_bytes = 0;
  /// Soft per-frame deadline, microseconds; 0 = none.  A frame whose
  /// decision (rebind + decision; rgb8 batches include the color stage)
  /// takes longer still completes, but its result is replaced by the
  /// identity fallback (β = 1, identity LUT — zero distortion, zero
  /// saving) and kDeadlineMiss/kFramesDegraded count it.  Soft: the
  /// check runs after the frame's work, so an overrun is detected, not
  /// preempted.
  std::int64_t frame_deadline_us = 0;
};

/// The frames one engine call processes, viewed, not copied (the caller
/// keeps them alive for the call): a span of gray8 frames, of gray16
/// frames (each decided on its own level lattice; one depth per call),
/// or of rgb8 frames with the ColorMode of their color stage.  An rgb8
/// frame is decided on its BT.601 luma — bit-identical to deciding the
/// pre-converted luma frame — and then rendered in `mode`.
struct FrameSource {
  FrameSource(std::span<const hebs::image::GrayImage> frames) : gray(frames) {}
  FrameSource(std::span<const hebs::image::GrayImage16> frames)
      : gray16(frames) {}
  FrameSource(std::span<const hebs::image::RgbImage> frames,
              core::ColorMode color_mode)
      : rgb(frames), mode(color_mode) {}

  std::span<const hebs::image::GrayImage> gray;
  std::span<const hebs::image::GrayImage16> gray16;
  std::span<const hebs::image::RgbImage> rgb;
  core::ColorMode mode = core::ColorMode::kSharedCurve;
};

/// A per-frame policy decision over a context bound to the frame.
using Decide = std::function<core::HebsResult(FrameContext&)>;

/// Per-frame containment record, parallel to a batch/stream result
/// vector (see the `faults` out-parameters below).  When a frame's
/// pipeline work throws or blows the frame deadline, the engine emits
/// the identity fallback for that frame instead of failing the call,
/// quarantines the worker/slot state that computed it (so poisoned
/// memoization never feeds a later frame), and records what happened
/// here.
struct FrameFault {
  /// This frame carries the identity fallback, not a computed decision.
  bool degraded = false;
  /// The contained exception was a util::IoError (the facade keeps
  /// kIoError for these; everything else maps to kInternal).
  bool io = false;
  /// The frame degraded because it blew the soft frame deadline, not
  /// because its work threw (the facade maps this to kDeadlineExceeded).
  bool deadline = false;
  /// Names the stage, the frame index and — for injected faults — the
  /// fault point.
  std::string message;
};

/// What the post-decision color stage produced for one rgb8 frame.
struct ColorFrameOutput {
  /// The displayed RGB raster (the operating point applied per the
  /// source's ColorMode).
  hebs::image::RgbImage displayed;
  /// Chromaticity drift of `displayed` against the input frame.
  double hue_error = 0.0;
};

/// One frame's batch output.
struct BatchResult {
  /// The policy's decision (on the frame's luma for an rgb8 source).
  core::HebsResult decision;
  /// The color stage's rendering; empty unless the source is rgb8.
  ColorFrameOutput color;
};

/// One frame's stream output.
struct StreamResult {
  /// The flicker-controlled decision (on the luma for an rgb8 source).
  core::FrameDecision decision;
  /// The color stage's rendering; empty unless the source is rgb8.
  ColorFrameOutput color;
};

class PipelineEngine {
 public:
  explicit PipelineEngine(EngineOptions opts = {},
                          hebs::power::LcdSubsystemPower power_model =
                              hebs::power::LcdSubsystemPower::lp064v1());

  int thread_count() const noexcept { return pool_.thread_count(); }
  const EngineOptions& options() const noexcept { return opts_; }

  /// Runs `decide` on every frame of `source`; result[i] corresponds to
  /// frame i.  For an rgb8 source the color stage renders each decided
  /// operating point on the worker that decided it.  A one-frame batch
  /// runs inline on the calling thread (no pool wake).
  ///
  /// Fault containment (both entry points): a frame whose work throws —
  /// or misses opts.frame_deadline_us — yields the identity fallback at
  /// its index rather than failing the call (an rgb8 frame's rendering
  /// is then the unmodified input); when `faults` is non-null it is
  /// resized to the frame count and frame i's containment record lands
  /// at (*faults)[i].  Frames processed after a contained fault are
  /// bit-identical to a cold run: the faulted worker's FrameContext is
  /// discarded, never rebound.  util::InvalidArgument is a caller bug
  /// and propagates out of the call instead.
  std::vector<BatchResult> run_batch(const FrameSource& source,
                                     const Decide& decide,
                                     std::vector<FrameFault>* faults = nullptr);

  /// Frame-adaptive video over a gray8 or rgb8 source: per-frame raw
  /// operating points are searched concurrently, then `controller`
  /// applies flicker control strictly in frame order (its state
  /// advances exactly as if it had processed the clip serially).  For
  /// an rgb8 source the ordered color stage then renders each applied
  /// operating point; with the controller's temporal_reuse it reuses
  /// the previous frame's rendering when the input bytes and the applied
  /// point are unchanged (outputs are identical either way).  A gray16
  /// source throws util::InvalidArgument.
  ///
  /// Fault containment: a faulted frame emits the identity decision
  /// (β = 1, identity LUT) and is treated as a stream discontinuity —
  /// the slot's FrameContext and TemporalReuse state are quarantined
  /// (rebuilt cold) and the controller's flicker history resets, so
  /// every frame after the fault is bit-identical to a cold run started
  /// there (DESIGN.md §14).  A fault in the color stage degrades that
  /// frame's decision and rendering to the identity fallback.
  std::vector<StreamResult> run_stream(
      const FrameSource& source, core::VideoBacklightController& controller,
      std::vector<FrameFault>* faults = nullptr);

 private:
  EngineOptions opts_;
  hebs::power::LcdSubsystemPower model_;
  ThreadPool pool_;
};

}  // namespace hebs::pipeline
