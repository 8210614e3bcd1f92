#include "pipeline/engine.h"

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/stages.h"
#include "pipeline/temporal.h"
#include "util/error.h"
#include "util/faultpoint.h"
#include "util/pool.h"

namespace hebs::pipeline {

PipelineEngine::PipelineEngine(EngineOptions opts,
                               hebs::power::LcdSubsystemPower power_model)
    : opts_(std::move(opts)),
      model_(std::move(power_model)),
      pool_(opts_.num_threads) {}

namespace {

std::unique_ptr<util::BufferPool> make_pool(const EngineOptions& opts) {
  if (!opts.use_buffer_pool) return nullptr;  // null scope = plain heap
  return std::make_unique<util::BufferPool>(
      util::PoolOptions{opts.pool_max_bytes, opts.pool_max_bytes});
}

// ---- fault containment helpers (DESIGN.md §14) ------------------------

/// The provably-safe result a degraded frame emits: β = 1 and the
/// identity LUT — the display shows the unmodified frame (zero
/// distortion) at full backlight (zero saving).  Power reports stay
/// zero: power accounting is not available for a frame whose pipeline
/// never completed.  Runs under a SuppressScope so a persistent
/// injected fault (e.g. pool-alloc:count=0) cannot re-fire inside its
/// own containment handler.
core::HebsResult identity_fallback(const hebs::image::GrayImage& frame) {
  util::fault::SuppressScope no_refire;
  core::HebsResult r;
  r.point = core::identity_operating_point();
  r.lambda = r.point.luminance_transform;
  r.target = {0, hebs::image::kMaxPixel};
  r.evaluation.point = r.point;
  r.evaluation.transformed = frame;  // identity: displayed == input
  return r;
}

/// Deep-pixel twin of identity_fallback, on the frame's own lattice.
core::HebsResult identity_fallback(const hebs::image::GrayImage16& frame) {
  util::fault::SuppressScope no_refire;
  core::HebsResult r;
  r.point = core::identity_operating_point();
  r.lambda = r.point.luminance_transform;
  r.target = {0, frame.max_pixel()};
  r.evaluation.point = r.point;
  r.evaluation.transformed16 = frame;  // identity: displayed == input
  return r;
}

bool is_io_error(const std::exception& e) noexcept {
  return dynamic_cast<const util::IoError*>(&e) != nullptr;
}

std::string fault_message(const char* stage, std::size_t frame,
                          const char* what) {
  return "frame " + std::to_string(frame) + ": " + stage + " stage: " + what;
}

std::string deadline_message(const char* stage, std::size_t frame,
                             std::int64_t deadline_us) {
  return "frame " + std::to_string(frame) + ": " + stage +
         " stage: frame deadline " + std::to_string(deadline_us) +
         " us exceeded; identity fallback emitted";
}

void record_fault(std::vector<FrameFault>& faults, std::size_t i, bool io,
                  std::string message, bool deadline = false) {
  obs::add(obs::Counter::kFramesDegraded);
  FrameFault& f = faults[i];
  f.degraded = true;
  f.io = io;
  f.deadline = deadline;
  f.message = std::move(message);
}

using DeadlineClock = std::chrono::steady_clock;

bool deadline_blown(const EngineOptions& opts,
                    DeadlineClock::time_point start) {
  if (opts.frame_deadline_us <= 0) return false;
  return std::chrono::duration_cast<std::chrono::microseconds>(
             DeadlineClock::now() - start)
             .count() > opts.frame_deadline_us;
}

/// The caller's containment sink, or `local` when there is none; either
/// way reset to one clean record per frame.  The engine always keeps the
/// records: the stream's color stage reads them.
std::vector<FrameFault>& fault_records(std::vector<FrameFault>* faults,
                                       std::vector<FrameFault>& local,
                                       std::size_t frames) {
  std::vector<FrameFault>& records = faults != nullptr ? *faults : local;
  records.clear();
  records.resize(frames);
  return records;
}

// ---- the color post-stage ---------------------------------------------

/// The post-decision color stage (core::render_color) shaped into the
/// engine's per-frame output type.
ColorFrameOutput run_color_stage(const hebs::image::RgbImage& rgb,
                                 const hebs::image::GrayImage& luma,
                                 const core::OperatingPoint& point,
                                 core::ColorMode mode) {
  obs::ScopedSpan span(obs::Span::kColorRender);
  core::ColorRendering rendering = core::render_color(rgb, luma, point, mode);
  return {std::move(rendering.displayed), rendering.hue_error};
}

/// The rendering of a frame that carries the identity fallback: the
/// unmodified input (β = 1 + identity LUT change no pixel, so the
/// chromaticity drift is exactly zero).
ColorFrameOutput unmodified(const hebs::image::RgbImage& rgb) {
  return {rgb, 0.0};
}

/// The gray frames an engine call decides: the source's own gray8
/// frames, or for an rgb8 source its BT.601 lumas, extracted up front
/// into `lumas` so they outlive every context binding.
std::span<const hebs::image::GrayImage> decided_frames(
    const FrameSource& source, std::vector<hebs::image::GrayImage>& lumas) {
  if (source.rgb.empty()) return source.gray;
  lumas.reserve(source.rgb.size());
  for (const auto& img : source.rgb) lumas.push_back(img.to_luma());
  return lumas;
}

bool same_point(const core::OperatingPoint& a, const core::OperatingPoint& b) {
  return a.beta == b.beta &&
         a.luminance_transform.points() == b.luminance_transform.points();
}

bool same_bytes(const hebs::image::RgbImage& a,
                const hebs::image::RgbImage& b) {
  const auto da = a.data();
  const auto db = b.data();
  return da.size() == db.size() &&
         std::memcmp(da.data(), db.data(), da.size()) == 0;
}

/// Runs `decide` (then, for an rgb8 source, the color stage) on every
/// frame on the pool, each worker reusing one rebound FrameContext
/// drawing from its own recycling buffer pool.  Results land at their
/// frame's index, so output order never depends on scheduling.
///
/// Containment: a frame whose work throws (or blows the frame deadline)
/// lands the identity fallback at its index instead of failing the
/// batch, and the worker's context is discarded — its memo state may be
/// mid-update, and no later frame may read poisoned caches.  The next
/// frame on that worker starts from a fresh context, so post-fault
/// frames are bit-identical to a cold run.
template <typename Image>
std::vector<BatchResult> map_frames(ThreadPool& pool, const EngineOptions& opts,
                                    const hebs::power::LcdSubsystemPower& model,
                                    std::span<const Image> images,
                                    const FrameSource& source,
                                    const Decide& decide,
                                    std::vector<FrameFault>& faults) {
  std::vector<BatchResult> results(images.size());
  const auto fallback = [&](std::size_t i) {
    // The SuppressScope keeps a persistent injected fault from
    // re-firing inside the handler.
    util::fault::SuppressScope no_refire;
    BatchResult& r = results[i];
    r.decision = identity_fallback(images[i]);
    r.color = source.rgb.empty() ? ColorFrameOutput{}
                                 : unmodified(source.rgb[i]);
  };
  // The per-frame containment body, shared by the inline single-frame
  // path and the fan-out.
  const auto run_contained = [&](std::unique_ptr<FrameContext>& ctx,
                                 std::size_t i) {
    const auto start = DeadlineClock::now();
    try {
      util::fault::maybe_fail(util::fault::Point::kWorkerTask);
      if (!ctx) ctx = std::make_unique<FrameContext>(opts.hebs, model);
      ctx->rebind(images[i]);
      BatchResult& r = results[i];
      r.decision = decide(*ctx);
      if (!source.rgb.empty()) {
        r.color = run_color_stage(source.rgb[i], ctx->image(),
                                  r.decision.point, source.mode);
      }
    } catch (const util::InvalidArgument&) {
      // Precondition violations are caller bugs, not runtime faults:
      // degrading would hide them, so they propagate out of the batch
      // (the pool rethrows the first one after the barrier).
      throw;
    } catch (const std::exception& e) {
      ctx.reset();  // quarantine
      fallback(i);
      record_fault(faults, i, is_io_error(e),
                   fault_message("search", i, e.what()));
      return;
    }
    if (deadline_blown(opts, start)) {
      obs::add(obs::Counter::kDeadlineMiss);
      fallback(i);
      record_fault(faults, i, /*io=*/false,
                   deadline_message("search", i, opts.frame_deadline_us),
                   /*deadline=*/true);
    }
  };
  if (images.size() == 1) {
    // Single frame: frame-level fan-out cannot help, so run inline on
    // the calling thread (no pool wake).  The workers stay idle: one
    // frame's search is sequential, and splitting its row loops across
    // workers did not pay at any size from 96² to 1024² (DESIGN.md §11).
    auto buffer_pool = make_pool(opts);
    util::PoolScope scope(buffer_pool.get());
    std::unique_ptr<FrameContext> ctx;
    obs::ScopedSpan frame_span(obs::Span::kFrame, 0);
    run_contained(ctx, 0);
    return results;
  }
  const auto workers = static_cast<std::size_t>(pool.thread_count());
  std::vector<std::unique_ptr<FrameContext>> contexts(workers);
  std::vector<std::unique_ptr<util::BufferPool>> pools(workers);
  pool.parallel_for(images.size(), [&](std::size_t i, int worker) {
    const auto w = static_cast<std::size_t>(worker);
    if (!pools[w]) pools[w] = make_pool(opts);
    util::PoolScope scope(pools[w].get());
    obs::ScopedSpan frame_span(obs::Span::kFrame,
                               static_cast<std::int32_t>(i));
    run_contained(contexts[w], i);
  });
  // Contexts must release their pooled caches before the pools detach
  // (detached blocks go back to the heap instead of recycling — only a
  // lifetime nicety here, but it keeps pool accounting exact).
  contexts.clear();
  return results;
}

}  // namespace

std::vector<BatchResult> PipelineEngine::run_batch(
    const FrameSource& source, const Decide& decide,
    std::vector<FrameFault>* faults) {
  std::vector<FrameFault> local;
  if (!source.gray16.empty()) {
    return map_frames(pool_, opts_, model_, source.gray16, source, decide,
                      fault_records(faults, local, source.gray16.size()));
  }
  std::vector<hebs::image::GrayImage> lumas;
  const auto frames = decided_frames(source, lumas);
  return map_frames(pool_, opts_, model_, frames, source, decide,
                    fault_records(faults, local, frames.size()));
}

std::vector<StreamResult> PipelineEngine::run_stream(
    const FrameSource& source, core::VideoBacklightController& controller,
    std::vector<FrameFault>* faults) {
  if (!source.gray16.empty()) {
    throw util::InvalidArgument(
        "stream mode takes gray8 or rgb8 frames, not gray16");
  }
  const core::VideoOptions& vopts = controller.options();
  std::vector<hebs::image::GrayImage> lumas;
  const auto frames = decided_frames(source, lumas);
  std::vector<FrameFault> local;
  std::vector<FrameFault>& records =
      fault_records(faults, local, frames.size());

  // The clip is processed in rounds of `slots` frames: the per-frame
  // searches run on the pool, then the ordered post-stage consumes the
  // round strictly in frame order, so peak memory stays at `slots`
  // cached contexts and the controller's state advances exactly as
  // serial processing would.  Each slot owns a persistent FrameContext,
  // a recycling BufferPool, and — temporal mode — the coherence state
  // of its fixed-stride frame chain (slot k sees frames k, k + slots,
  // k + 2·slots, …; with one worker the chain is the clip itself).
  // Round boundaries cannot change any value: per-frame raw searches
  // are independent (temporal reuse is verified, see temporal.h), and
  // flicker control consumes them in frame order either way.
  const auto threads = static_cast<std::size_t>(pool_.thread_count());
  const std::size_t slots = std::max<std::size_t>(
      1, std::min(frames.size(), threads == 1 ? 1 : 2 * threads));

  struct Slot {
    std::unique_ptr<util::BufferPool> pool;
    std::unique_ptr<FrameContext> ctx;
    TemporalReuse reuse;
    core::HebsResult raw;
    Slot(const EngineOptions& opts)
        : pool(make_pool(opts)), reuse(slot_reuse_options(opts)) {}

    static TemporalOptions slot_reuse_options(const EngineOptions& opts) {
      TemporalOptions t;  // delta threshold keeps its one default
      t.enabled = opts.temporal_reuse;
      return t;
    }
  };
  std::vector<Slot> slot_states;
  slot_states.reserve(slots);
  for (std::size_t k = 0; k < slots; ++k) slot_states.emplace_back(opts_);

  std::vector<StreamResult> out;
  out.reserve(frames.size());

  // Per-round containment flags: degraded[k] marks slot k's frame of
  // the current round as carrying the identity fallback.  Written by
  // the slot's worker, read by the ordered post-stage after the round's
  // barrier.
  std::vector<std::uint8_t> degraded(slots, 0);

  // Full quarantine of a faulted slot: its context's memo state and its
  // temporal chain may be poisoned (mid-update when the fault unwound),
  // so both are discarded — the slot's next frame runs the cold path on
  // a fresh context, exactly as a cold run started there would.
  const auto quarantine = [](Slot& s) {
    s.ctx.reset();
    s.reuse.reset();
  };

  // One callable for the whole clip (constructing a std::function per
  // round would put an allocation back into the steady state).
  std::size_t begin = 0;
  const std::function<void(std::size_t, int)> search_round =
      [&](std::size_t k, int) {
        const std::size_t i = begin + k;
        Slot& s = slot_states[k];
        util::PoolScope scope(s.pool.get());
        obs::ScopedSpan frame_span(obs::Span::kFrame,
                                   static_cast<std::int32_t>(i));
        degraded[k] = 0;
        const auto start = DeadlineClock::now();
        try {
          util::fault::maybe_fail(util::fault::Point::kWorkerTask);
          if (!s.ctx) {
            s.ctx = std::make_unique<FrameContext>(vopts.hebs,
                                                   controller.power_model());
          }
          // TemporalReuse handles both modes: disabled, it degrades to
          // rebind + run_exact (the cold path).
          s.raw = s.reuse.process(*s.ctx, frames[i], vopts.d_max_percent);
        } catch (const util::InvalidArgument&) {
          throw;  // caller bug, not a runtime fault — see map_frames
        } catch (const std::exception& e) {
          quarantine(s);
          util::fault::SuppressScope no_refire;
          s.raw = identity_fallback(frames[i]);
          degraded[k] = 1;
          record_fault(records, i, is_io_error(e),
                       fault_message("stream search", i, e.what()));
          return;
        }
        if (deadline_blown(opts_, start)) {
          obs::add(obs::Counter::kDeadlineMiss);
          // The computed state is valid, merely late — but the emitted
          // decision is the fallback and the controller treats it as a
          // discontinuity, so the slot restarts cold too (uniform
          // degradation contract: one recovery story for every fault).
          quarantine(s);
          util::fault::SuppressScope no_refire;
          s.raw = identity_fallback(frames[i]);
          degraded[k] = 1;
          record_fault(
              records, i, /*io=*/false,
              deadline_message("stream search", i, opts_.frame_deadline_us),
              /*deadline=*/true);
        }
      };

  // The ordered post-stage's scratch (applied-β re-derivations) has its
  // own pool: it runs on the calling thread across all slots.
  auto post_pool = make_pool(opts_);
  for (begin = 0; begin < frames.size(); begin += slots) {
    const std::size_t count = std::min(slots, frames.size() - begin);

    // Parallel stage: the per-frame exact HEBS search.  Contexts stay
    // alive into the post-stage, which reuses their caches for the
    // applied-β re-derivation.
    pool_.parallel_for(count, search_round);

    // Ordered post-stage: flicker control advances the controller's
    // state exactly as serial per-frame processing would.  A frame
    // degraded in the search stage bypasses flicker control (its slot
    // context is gone) and resets the controller's history instead; a
    // fault inside the post-stage itself is contained the same way.
    util::PoolScope scope(post_pool.get());
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = begin + k;
      Slot& s = slot_states[k];
      obs::ScopedSpan post_span(obs::Span::kFlickerPost,
                                static_cast<std::int32_t>(i));
      if (degraded[k]) {
        // Containment path: copying the pooled fallback result must not
        // re-fire a persistent injected allocation fault.
        util::fault::SuppressScope no_refire;
        out.push_back({controller.apply_degraded(s.raw), {}});
        continue;
      }
      try {
        out.push_back({controller.apply_flicker_control(*s.ctx, s.raw), {}});
      } catch (const util::InvalidArgument&) {
        throw;  // caller bug, not a runtime fault — see map_frames
      } catch (const std::exception& e) {
        quarantine(s);
        util::fault::SuppressScope no_refire;
        s.raw = identity_fallback(frames[i]);
        out.push_back({controller.apply_degraded(s.raw), {}});
        record_fault(records, i, is_io_error(e),
                     fault_message("flicker post-stage", i, e.what()));
      }
    }
  }
  // Release pooled caches before their pools detach (see map_frames).
  slot_states.clear();

  // Ordered color post-stage, once every decision is in.  Rendering is a
  // deterministic function of (frame bytes, applied point, mode), so
  // when both match the previous frame the previous rendering is reused
  // wholesale — the color counterpart of the luma side's
  // unchanged-frame fast path, and the reason a static RGB clip pays
  // one memcpy instead of the per-pixel transform + chroma measurement
  // per frame.  No pool scope here: the stage's only allocations are the
  // output rasters, which all escape into `out` — nothing would ever
  // recycle.
  const auto& rgb = source.rgb;
  for (std::size_t i = 0; i < rgb.size(); ++i) {
    StreamResult& r = out[i];
    if (records[i].degraded) {
      // The stream already emitted the identity decision for this
      // frame: no per-pixel work and no chance of a second fault here.
      r.color = unmodified(rgb[i]);
      continue;
    }
    const bool reuse = vopts.temporal_reuse && i > 0 &&
                       !records[i - 1].degraded &&
                       same_point(r.decision.point, out[i - 1].decision.point) &&
                       same_bytes(rgb[i], rgb[i - 1]);
    if (reuse) {
      r.color = out[i - 1].color;
      continue;
    }
    try {
      r.color = run_color_stage(rgb[i], frames[i], r.decision.point,
                                source.mode);
    } catch (const util::InvalidArgument&) {
      throw;  // caller bug, not a runtime fault — see map_frames
    } catch (const std::exception& e) {
      // Color-stage containment: the whole frame degrades to the
      // identity fallback — decision and rendering stay consistent
      // (displaying the untouched raster at the computed β < 1 would
      // dim the frame, which is a visible artifact, not a fallback).
      // The stage is stateless per frame, so nothing needs quarantine.
      util::fault::SuppressScope no_refire;
      const core::HebsResult fb = identity_fallback(frames[i]);
      r.decision.raw_beta = fb.point.beta;
      r.decision.beta = fb.point.beta;
      r.decision.scene_cut = false;
      r.decision.point = fb.point;
      r.decision.evaluation = fb.evaluation;
      r.color = unmodified(rgb[i]);
      record_fault(records, i, is_io_error(e),
                   fault_message("color render", i, e.what()));
    }
  }
  return out;
}

}  // namespace hebs::pipeline
