// Measuring program of the HEBS benchmark (see perfbench/README.md).
//
// One invocation runs one workload through the public hebs::Session
// facade and writes its raw measurements as one JSON object: the set-up
// time, per-sample wall times of the timed loop, peak RSS, counter
// deltas, the correctness verdicts and, in traced mode, the outside-
// timed per-call cost of each library layer.  perfbench/run.py builds
// this binary, runs it and turns the raw record into the named metrics;
// all percentile and span arithmetic lives there.
//
//   hebs_perfbench --workload still-96 --seed 1 --seconds 15 --out raw.json
//                  [--setup-only | --traced --trace-file trace.json]
//
// Workloads (inputs derive from --seed only; the library sees only the
// generated frames):
//   still-96   Session::process, threads(1), 96² gray8 mix
//   still-512  Session::process_batch of one frame, threads(1), 512²
//              gray8 mix: the single-frame engine path; a traced run
//              adds a threads(2) phase in which it fans the frame's
//              rows out over the idle worker
//   stream-96  Session::process_video, threads(1), four 48-frame clips
//
// The cycle is every distinct call of a workload (every frame at every
// budget), in rounds that use each frame once; the timed loop runs
// whole rounds, at least one cycle, until --seconds have passed, so
// every run measures the same balanced mix.  The checks a frame must
// pass are listed on Checker.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hebs/advanced/core.h"
#include "hebs/advanced/histogram.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/kernels.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/power.h"
#include "hebs/advanced/quality.h"
#include "hebs/advanced/transform.h"
#include "hebs/hebs.h"

#ifndef HEBS_PERFBENCH_COMPILER
#define HEBS_PERFBENCH_COMPILER "unknown"
#endif
#ifndef HEBS_PERFBENCH_BUILD_TYPE
#define HEBS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using hebs::image::GrayImage;
using hebs::image::UsidId;

constexpr double kBudgets[3] = {5.0, 10.0, 20.0};
/// Traced phases stop here whatever --seconds asks: the tracer's
/// per-thread rings hold 65536 spans, and a wrapped ring loses spans.
constexpr double kMaxTracedSeconds = 8.0;
/// The flicker rate limit (|Δβ| per frame) of the sessions we create.
const double kMaxBetaStep = hebs::SessionConfig().max_beta_step();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "hebs_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// ------------------------------------------------------------- inputs

/// splitmix64: the benchmark's own generator, so the inputs a seed
/// names do not change when the library's RNG does.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<unsigned>(n)); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(below(static_cast<int>(i)))]);
    }
  }
};

/// Small additive noise (±2 levels of smooth value noise): one field
/// per seed, each frame taking it at its own cyclic shift.  Perturbs
/// histograms and local statistics without changing the character of
/// the content.
class Noise {
 public:
  Noise(int size, std::uint64_t seed)
      : size_(size), field_(static_cast<std::size_t>(size) * size) {
    const hebs::image::ValueNoise noise(seed);
    for (int y = 0; y < size; ++y) {
      for (int x = 0; x < size; ++x) {
        const double v = noise.sample(x / 3.0, y / 3.0);
        field_[index(x, y)] = static_cast<int>(std::lround((v - 0.5) * 4.0));
      }
    }
  }

  /// The field shifted by a per-`k` offset.
  std::vector<int> shifted(int k) const {
    const int dx = (k * 37) % size_;
    const int dy = (k * 91) % size_;
    std::vector<int> out(field_.size());
    for (int y = 0; y < size_; ++y) {
      for (int x = 0; x < size_; ++x) {
        out[index(x, y)] = field_[index((x + dx) % size_, (y + dy) % size_)];
      }
    }
    return out;
  }

 private:
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(size_) +
           static_cast<std::size_t>(x);
  }
  int size_;
  std::vector<int> field_;
};

std::uint8_t clamp_u8(int v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}

void add_noise(GrayImage& img, const std::vector<int>& field) {
  auto px = img.pixels();
  for (std::size_t i = 0; i < px.size(); ++i) px[i] = clamp_u8(px[i] + field[i]);
}

constexpr UsidId kPhotos[8] = {UsidId::kLena,   UsidId::kAutumn,
                               UsidId::kFootball, UsidId::kPeppers,
                               UsidId::kGreens, UsidId::kPears,
                               UsidId::kOnion,  UsidId::kTrees};

/// The still mix: 8 photos, 8 gradients, then `flats` flat fields.
/// Photos and gradients carry seeded noise; flats stay flat.
std::vector<GrayImage> still_mix(int size, int flats, const Noise& noise) {
  std::vector<GrayImage> mix;
  for (const UsidId id : kPhotos) mix.push_back(hebs::image::make_usid(id, size));
  const auto gradient = [&](auto&& draw) {
    GrayImage img(size, size);
    draw(img);
    mix.push_back(std::move(img));
  };
  gradient([](auto& g) { hebs::image::gradient_h(g, 0.0, 1.0); });
  gradient([](auto& g) { hebs::image::gradient_h(g, 0.2, 0.9); });
  gradient([](auto& g) { hebs::image::gradient_v(g, 0.0, 1.0); });
  gradient([](auto& g) { hebs::image::gradient_v(g, 0.1, 0.6); });
  gradient([&](auto& g) {
    hebs::image::gradient_radial(g, size / 2.0, size / 2.0, size * 0.7, 1.0, 0.0);
  });
  gradient([&](auto& g) {
    hebs::image::gradient_radial(g, size / 3.0, size / 3.0, size * 0.9, 0.8, 0.1);
  });
  gradient([](auto& g) { hebs::image::gradient_h(g, 1.0, 0.0); });
  gradient([](auto& g) {
    hebs::image::gradient_v(g, 0.3, 1.0);
    hebs::image::vignette(g, 0.6);
  });
  for (std::size_t i = 0; i < mix.size(); ++i) {
    add_noise(mix[i], noise.shifted(static_cast<int>(i)));
  }
  const double all_flats[8] = {0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0};
  for (int f = 0; f < flats; ++f) {
    GrayImage img(size, size);
    hebs::image::fill_rect(img, 0, 0, size, size,
                           all_flats[flats == 8 ? f : 2 + 3 * f]);
    mix.push_back(std::move(img));
  }
  return mix;
}

/// Slow drift: a static scene, a 6x6 sprite on a seeded path and a
/// one-level global dim every six frames.
std::vector<GrayImage> slow_drift_clip(int frames, int size, const Noise& noise,
                                       SplitMix& rng) {
  GrayImage base = hebs::image::make_usid(UsidId::kSail, size);
  add_noise(base, noise.shifted(1));
  constexpr int kSprite = 6;
  int x = rng.below(size - kSprite);
  int y = rng.below(size - kSprite);
  int dx = rng.below(2) == 0 ? 1 : -1;
  int dy = rng.below(3) - 1;
  std::vector<GrayImage> clip;
  int dim = 0;
  for (int f = 0; f < frames; ++f) {
    if (f > 0 && f % 6 == 0) ++dim;
    GrayImage frame = base;
    for (auto& px : frame.pixels()) px = clamp_u8(px - dim);
    for (int yy = y; yy < y + kSprite; ++yy) {
      for (int xx = x; xx < x + kSprite; ++xx) frame(xx, yy) = 230;
    }
    if (x + dx < 0 || x + dx > size - kSprite) dx = -dx;
    if (y + dy < 0 || y + dy > size - kSprite) dy = -dy;
    x += dx;
    y += dy;
    clip.push_back(std::move(frame));
  }
  return clip;
}

/// The four clip archetypes of the stream workload, concatenated
/// (48 frames each): static, slow-drift, pan-dim, scene-cut.
std::vector<GrayImage> stream_clips(int frames, int size, const Noise& noise,
                                    SplitMix& rng) {
  std::vector<GrayImage> all;
  GrayImage still = hebs::image::make_usid(UsidId::kPout, size);
  add_noise(still, noise.shifted(0));
  all.insert(all.end(), static_cast<std::size_t>(frames), still);
  for (auto& f : slow_drift_clip(frames, size, noise, rng)) all.push_back(std::move(f));
  for (auto& f : hebs::image::make_video_clip(frames, size, rng.next())) {
    all.push_back(std::move(f));
  }
  std::vector<UsidId> scenes = {UsidId::kPout, UsidId::kBaboon,
                                UsidId::kSplash, UsidId::kWest};
  rng.shuffle(scenes);
  std::vector<GrayImage> scene_frames;
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    GrayImage s = hebs::image::make_usid(scenes[i], size);
    add_noise(s, noise.shifted(2 + static_cast<int>(i)));
    scene_frames.push_back(std::move(s));
  }
  for (int f = 0; f < frames; ++f) all.push_back(scene_frames[(f / 6) % 4]);
  return all;
}

// ----------------------------------------------------------- workload

/// The facade call a workload times.
enum class Kind {
  kProcess,     ///< Session::process, one frame
  kBatchOfOne,  ///< Session::process_batch with a one-frame batch
  kVideo,       ///< Session::process_video, one clip
};

/// One facade call: frame indices into the workload's rasters + budget.
struct Call {
  std::vector<int> frames;
  double budget = 10.0;
};

struct Workload {
  std::string name;
  Kind kind = Kind::kProcess;
  int size = 96;
  int threads = 1;          ///< SessionConfig::threads of the timed loop
  /// SessionConfig::threads of a traced run's fan-out phase (0: none).
  int fanout_threads = 0;
  std::vector<GrayImage> gray;
  /// Every distinct call, as rounds of round_calls calls.  A round uses
  /// each frame (still) or clip (stream) once, with the budgets
  /// rotated between rounds; three rounds are the full product.
  std::vector<Call> cycle;
  std::size_t round_calls = 1;
  std::size_t sample_calls = 1;  ///< calls per timing sample
  Call setup;                    ///< the untimed first call
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  SplitMix rng{seed * 0x2545F4914F6CDD1DULL + 7};
  const int b0 = rng.below(3);
  if (name == "still-96" || name == "still-512") {
    const bool small = name == "still-96";
    w.kind = small ? Kind::kProcess : Kind::kBatchOfOne;
    w.size = small ? 96 : 512;
    w.fanout_threads = small ? 0 : 2;
    w.gray = still_mix(w.size, small ? 8 : 2, Noise(w.size, seed));
    w.round_calls = w.gray.size();
    for (int r = 0; r < 3; ++r) {
      std::vector<int> order(w.gray.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
      rng.shuffle(order);
      for (const int f : order) w.cycle.push_back({{f}, kBudgets[(f + r + b0) % 3]});
    }
    w.setup = {{0}, 10.0};  // the first photo
  } else if (name == "stream-96") {
    constexpr int kClipFrames = 48;
    w.kind = Kind::kVideo;
    w.size = 96;
    w.gray = stream_clips(kClipFrames, w.size, Noise(w.size, seed), rng);
    w.round_calls = w.sample_calls = 4;
    const auto clip = [&](int c, double budget) {
      Call call{{}, budget};
      for (int f = 0; f < kClipFrames; ++f) call.frames.push_back(c * kClipFrames + f);
      return call;
    };
    for (int r = 0; r < 3; ++r) {
      std::vector<int> clips = {0, 1, 2, 3};
      rng.shuffle(clips);
      for (const int c : clips) w.cycle.push_back(clip(c, kBudgets[(c + r + b0) % 3]));
    }
    w.setup = clip(2, 10.0);  // pan-dim: every frame searches
  } else {
    die("unknown workload \"" + name + "\"");
  }
  return w;
}

// ----------------------------------------------------------- results

/// What one frame's result must reproduce: the decision triple and a
/// hash of everything else the facade returned.
struct Digest {
  double beta = 0.0;
  double saving = 0.0;
  double distortion = 0.0;
  std::uint64_t lambda_hash = 0;
  std::uint64_t full_hash = 0;
  bool ok = false;  ///< status ok and not degraded
  std::vector<hebs::CurvePoint> lambda;
  int g_min = 0;
  int g_max = 255;
  double raw_beta = 0.0;
  bool scene_cut = false;

  bool same_decision(const Digest& o) const {
    return beta == o.beta && saving == o.saving && lambda_hash == o.lambda_hash;
  }
};

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void value(const T& v) { bytes(&v, sizeof v); }
};

std::uint64_t hash_curve(const std::vector<hebs::CurvePoint>& pts) {
  Fnv f;
  for (const auto& p : pts) {
    f.value(p.x);
    f.value(p.y);
  }
  return f.h;
}

Digest digest(const hebs::FrameResult& r, double raw_beta = 0.0,
              bool scene_cut = false) {
  Digest d;
  d.beta = r.beta;
  d.saving = r.saving_percent;
  d.distortion = r.distortion_percent;
  d.lambda = r.lambda;
  d.lambda_hash = hash_curve(r.lambda);
  d.g_min = r.g_min;
  d.g_max = r.g_max;
  d.raw_beta = raw_beta;
  d.scene_cut = scene_cut;
  d.ok = r.status.ok() && !r.degraded;
  Fnv f;
  f.value(r.beta);
  f.value(r.g_min);
  f.value(r.g_max);
  f.value(d.lambda_hash);
  f.value(hash_curve(r.phi));
  f.value(r.plc_mse);
  f.value(r.distortion_percent);
  f.value(r.saving_percent);
  f.value(r.power.ccfl_watts);
  f.value(r.power.panel_watts);
  f.value(r.reference_power.ccfl_watts);
  f.value(r.reference_power.panel_watts);
  f.bytes(r.displayed.pixels().data(), r.displayed.pixels().size());
  f.bytes(r.displayed_rgb.pixels().data(), r.displayed_rgb.pixels().size());
  f.value(r.hue_error);
  f.value(raw_beta);
  f.value(scene_cut);
  d.full_hash = f.h;
  return d;
}

using Digests = std::optional<std::vector<Digest>>;

/// One call through `session`: the digests (empty on a call-level
/// error) and the wall time of the facade call alone.
struct CallResult {
  Digests digests;
  double seconds = 0.0;
};

CallResult run_call(hebs::Session& session, const Workload& w, const Call& c) {
  std::vector<hebs::ImageView> views;
  for (const int f : c.frames) {
    const GrayImage& img = w.gray[static_cast<std::size_t>(f)];
    views.push_back(hebs::ImageView::gray8(img.pixels().data(), img.width(), img.height()));
  }
  CallResult out;
  std::vector<Digest> digests;
  const auto t0 = Clock::now();
  switch (w.kind) {
    case Kind::kProcess: {
      auto r = session.process({views[0], c.budget});
      out.seconds = seconds_since(t0);
      if (!r) return out;
      digests.push_back(digest(*r));
      break;
    }
    case Kind::kBatchOfOne: {
      auto r = session.process_batch(views, c.budget);
      out.seconds = seconds_since(t0);
      if (!r) return out;
      for (const auto& fr : *r) digests.push_back(digest(fr));
      break;
    }
    case Kind::kVideo: {
      auto r = session.process_video(views, c.budget);
      out.seconds = seconds_since(t0);
      if (!r) return out;
      for (const auto& v : *r) digests.push_back(digest(v.frame, v.raw_beta, v.scene_cut));
      break;
    }
  }
  if (digests.size() == c.frames.size()) out.digests = std::move(digests);
  return out;
}

hebs::SessionConfig session_config(int threads,
                                   const std::string& trace_path = "") {
  hebs::SessionConfig cfg;
  cfg.threads(threads);
  if (!trace_path.empty()) cfg.trace_path(trace_path);
  return cfg;
}

hebs::Session create_session(const hebs::SessionConfig& cfg) {
  auto s = hebs::Session::create(cfg);
  if (!s) die("Session::create failed: " + s.status().message());
  return std::move(*s);
}

/// Per-frame verdicts of one workload run.  Indexed by cycle call, then
/// frame within the call: the first result seen is the one later
/// repeats, the reference and the traced run must reproduce.  A frame
/// fails when its status is not ok or it is degraded, when a repeat of
/// its call returns a different result, when its decision (β, Λ,
/// saving) differs from a threads(1) reference session, when its traced
/// result differs from the untraced one, or when it breaks the budget
/// or flicker rules of timed() and resolve_over_budget().
struct Checker {
  std::vector<Digests> first;
  std::vector<std::vector<bool>> bad;  ///< per distinct frame
  std::vector<std::size_t> runs;       ///< timed executions per call
  std::vector<std::string> messages;
  std::vector<std::pair<std::size_t, std::size_t>> over_budget;
  std::size_t early_exits = 0;       ///< over budget via the early exit
  std::size_t early_exits_identity_feasible = 0;
  std::size_t flicker_adjusted = 0;  ///< video frames with β != raw β

  explicit Checker(const Workload& w)
      : first(w.cycle.size()), bad(w.cycle.size()), runs(w.cycle.size(), 0) {
    for (std::size_t c = 0; c < w.cycle.size(); ++c) {
      bad[c].assign(w.cycle[c].frames.size(), false);
    }
  }

  void fail(std::size_t c, std::size_t j, const std::string& why) {
    if (!bad[c][j] && messages.size() < 20) {
      messages.push_back("call " + std::to_string(c) + " frame " +
                         std::to_string(j) + ": " + why);
    }
    bad[c][j] = true;
  }

  /// A timed result: status, budget, flicker and repeat-determinism
  /// checks.  Still frames over budget are parked in
  /// `over_budget` until resolve_over_budget decides them.
  void timed(const Workload& w, std::size_t c,
             const Digests& got) {
    ++runs[c];
    const std::size_t n = w.cycle[c].frames.size();
    if (!got) {
      for (std::size_t j = 0; j < n; ++j) fail(c, j, "call returned an error");
      return;
    }
    if (first[c]) {
      for (std::size_t j = 0; j < n; ++j) {
        if ((*got)[j].full_hash != (*first[c])[j].full_hash) {
          fail(c, j, "repeat of the call returned a different result");
        }
      }
      return;
    }
    first[c] = got;
    const double budget = w.cycle[c].budget;
    for (std::size_t j = 0; j < n; ++j) {
      const Digest& d = (*got)[j];
      if (!d.ok) fail(c, j, "status not ok or degraded");
      if (w.kind != Kind::kVideo) {
        if (!(d.distortion <= budget)) over_budget.emplace_back(c, j);
        continue;
      }
      // Video: the per-frame optimum meets the budget; flicker control
      // then moves β by at most max_beta_step outside scene cuts, and
      // the applied point may trade budget for stability.
      if (d.beta == d.raw_beta && !(d.distortion <= budget)) {
        fail(c, j, "unadjusted video frame over budget");
      }
      if (d.beta != d.raw_beta) ++flicker_adjusted;
      if (j > 0 && !d.scene_cut &&
          std::abs(d.beta - (*got)[j - 1].beta) > kMaxBetaStep + 1e-12) {
        fail(c, j, "beta step over the flicker limit");
      }
    }
  }

  /// A still frame over its budget is correct only when it is
  /// the search's documented cold early exit (DESIGN.md §11): even the
  /// full range measures over budget, and the frame's result is exactly
  /// the full-range point (FrameRequest::fixed_range = 255 on `ref`).
  /// Anything else fails.  Early exits whose budget the identity point
  /// (full backlight, unchanged pixels) would have met are counted
  /// apart: the search never considers that point.
  void resolve_over_budget(hebs::Session& ref, const Workload& w) {
    for (const auto& [c, j] : over_budget) {
      const Call& call = w.cycle[c];
      const auto f = static_cast<std::size_t>(call.frames[j]);
      const GrayImage& img = w.gray[f];
      hebs::FrameRequest req;
      req.image = hebs::ImageView::gray8(img.pixels().data(), img.width(), img.height());
      req.d_max_percent = call.budget;
      req.fixed_range = 255;
      const auto full = ref.process(req);
      const Digest& got = (*first[c])[j];
      if (!full || !(full->distortion_percent > call.budget) ||
          full->distortion_percent != got.distortion || !digest(*full).same_decision(got)) {
        fail(c, j, "distortion " + std::to_string(got.distortion) + "% over budget " +
                       std::to_string(call.budget) + "% and not the full-range early exit");
        continue;
      }
      ++early_exits;
      const hebs::quality::DistortionEvaluator evaluator(
          hebs::image::FloatImage::from_gray(img), hebs::quality::DistortionOptions{});
      const double identity = evaluator.percent_mapped(
          img, hebs::core::displayed_levels(hebs::core::identity_operating_point()));
      if (identity <= call.budget) ++early_exits_identity_feasible;
    }
  }

  /// Mean saving over the distinct frames (each frame x budget once;
  /// video at the applied β) that meet their budget.  Early exits over
  /// budget are left out: their saving is not one the budget allows.
  double mean_saving() const {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t c = 0; c < first.size(); ++c) {
      if (!first[c]) continue;
      for (std::size_t j = 0; j < first[c]->size(); ++j) {
        const std::pair<std::size_t, std::size_t> frame{c, j};
        if (std::find(over_budget.begin(), over_budget.end(), frame) != over_budget.end()) {
          continue;
        }
        sum += (*first[c])[j].saving;
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  }

  /// `got` must match the first result: the decision triple only
  /// (reference session) or everything (traced run).
  void against(std::size_t c, const Digests& got,
               bool full, const char* who) {
    if (!first[c]) return;
    const std::size_t n = first[c]->size();
    for (std::size_t j = 0; j < n; ++j) {
      const bool same = got && (full ? (*got)[j].full_hash == (*first[c])[j].full_hash
                                     : (*got)[j].same_decision((*first[c])[j]));
      if (!same) fail(c, j, std::string("differs from the ") + who);
    }
  }

  std::size_t attempted() const {
    std::size_t n = 0;
    for (std::size_t c = 0; c < runs.size(); ++c) n += runs[c] * bad[c].size();
    return n;
  }
  std::size_t failed() const {
    std::size_t n = 0;
    for (std::size_t c = 0; c < runs.size(); ++c) {
      n += runs[c] * static_cast<std::size_t>(std::count(bad[c].begin(), bad[c].end(), true));
    }
    return n;
  }
};

// ------------------------------------------------------------ timing

struct TimedRun {
  std::vector<double> sample_ms;  ///< per-frame ms of each sample
  std::size_t frames = 0;
  double call_s = 0.0;            ///< summed wall time of the calls
  std::size_t rounds = 0;
};

using Sink = std::function<void(std::size_t, const Digests&)>;

/// Runs whole rounds until `seconds` have passed (at least three, the
/// full cycle).  A sample is the wall time per frame of sample_calls
/// consecutive calls.
TimedRun timed_loop(hebs::Session& session, const Workload& w, double seconds,
                    const Sink& sink) {
  TimedRun run;
  const auto start = Clock::now();
  double sample_s = 0.0;
  std::size_t sample_frames = 0;
  std::size_t c = 0;
  while (run.rounds < 3 || seconds_since(start) < seconds) {
    for (std::size_t k = 0; k < w.round_calls; ++k, c = (c + 1) % w.cycle.size()) {
      const CallResult got = run_call(session, w, w.cycle[c]);
      const double dt = got.seconds;
      sink(c, got.digests);
      run.call_s += dt;
      run.frames += w.cycle[c].frames.size();
      sample_s += dt;
      sample_frames += w.cycle[c].frames.size();
      if ((k + 1) % w.sample_calls == 0) {
        run.sample_ms.push_back(1000.0 * sample_s / static_cast<double>(sample_frames));
        sample_s = 0.0;
        sample_frames = 0;
      }
    }
    ++run.rounds;
  }
  return run;
}

/// Peak resident set of this process image, KiB.  VmHWM belongs to the
/// address space, so unlike getrusage's ru_maxrss it does not inherit
/// the high-water mark of the parent that forked us before exec.
double peak_rss_kib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
    if (kib > 0.0) return kib;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

// ------------------------------------------------ outside layer timing

/// Median wall time of one call of `fn`, microseconds.  Calls are
/// batched so each measurement spans at least ~200 µs.
double time_us(const std::function<void()>& fn) {
  fn();  // warm
  auto t0 = Clock::now();
  fn();
  const double once = std::max(1e-7, seconds_since(t0));
  const int reps = std::clamp(static_cast<int>(2e-4 / once), 1, 1000);
  std::vector<double> us;
  for (int m = 0; m < 7; ++m) {
    t0 = Clock::now();
    for (int i = 0; i < reps; ++i) fn();
    us.push_back(1e6 * seconds_since(t0) / reps);
  }
  std::nth_element(us.begin(), us.begin() + 3, us.end());
  return us[3];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Replayed results are stored here so the compiler cannot drop the
// timed calls (written by the replaying thread only).
volatile double g_sink = 0.0;

/// Replays chosen operating points through each layer's public
/// functions and times every call from outside: per-call µs, median
/// over the replayed frames.  render_color and to_luma run on the gray
/// frame lifted to rgb8, for their per-call cost at the workload's size.
std::vector<std::pair<std::string, double>> replay_layers(const Workload& w,
                                                          const Checker& chk,
                                                          double budget_s) {
  using namespace hebs;
  const auto model = power::LcdSubsystemPower::lp064v1();
  // Distinct frames, each with the first operating point chosen for it.
  std::vector<std::pair<int, const Digest*>> frames;
  std::vector<bool> seen(w.gray.size(), false);
  for (std::size_t c = 0; c < w.cycle.size(); ++c) {
    if (!chk.first[c]) continue;
    for (std::size_t j = 0; j < w.cycle[c].frames.size(); ++j) {
      const int f = w.cycle[c].frames[j];
      if (seen[static_cast<std::size_t>(f)]) continue;
      seen[static_cast<std::size_t>(f)] = true;
      frames.emplace_back(f, &(*chk.first[c])[j]);
    }
  }
  std::vector<std::string> names;
  std::vector<std::vector<double>> samples;
  const auto start = Clock::now();
  // Frames in cycle order until the time budget is spent (at least
  // one frame).
  for (std::size_t k = 0; k < frames.size(); ++k) {
    if (!names.empty() && seconds_since(start) > budget_s) break;
    const auto [f, d] = frames[k];
    if (!d->ok || d->lambda.size() < 2) continue;
    const GrayImage& img = w.gray[static_cast<std::size_t>(f)];
    const image::RgbImage rgb = image::RgbImage::from_gray(img);
    std::vector<transform::CurvePoint> pts;
    for (const auto& p : d->lambda) pts.push_back({p.x, p.y});
    const core::OperatingPoint point{transform::PwlCurve(pts), d->beta};
    const transform::FloatLut levels = core::displayed_levels(point);
    core::GheTarget target{d->g_min, d->g_max};
    if (w.kind == Kind::kVideo) target = {0, core::gmax_for_beta(d->beta)};
    if (target.range() < 2) target = {0, 255};
    const histogram::Histogram hist = histogram::Histogram::from_image(img);
    const transform::PwlCurve phi = core::ghe_transform(hist, target);
    const quality::DistortionOptions dopts;  // uiqi-hvs, the session default
    const quality::DistortionEvaluator evaluator(image::FloatImage::from_gray(img), dopts);
    const image::FloatImage ref_hvs = quality::hvs_transform(img, dopts.hvs);
    const image::FloatImage test_hvs = quality::hvs_transform_mapped(img, levels, dopts.hvs);
    const transform::Lut quantized = levels.quantize();
    const histogram::Histogram displayed_hist =
        histogram::Histogram::from_image(quantized.apply(img));
    const std::pair<const char*, std::function<void()>> layers[] = {
        {"histogram.from_image_us",
         [&] { g_sink = static_cast<double>(histogram::Histogram::from_image(img).total()); }},
        {"ghe.transform_us",
         [&] { g_sink = core::ghe_transform(hist, target).points().size(); }},
        {"plc.coarsen_us", [&] { g_sink = core::plc_coarsen(phi, 8).mse; }},
        {"power.frame_power_us",
         [&] { g_sink = model.frame_power(displayed_hist, d->beta).total(); }},
        {"quality.evaluator_build_us",
         [&] {
           quality::DistortionEvaluator e(image::FloatImage::from_gray(img), dopts);
           g_sink = e.reference().width();
         }},
        {"quality.percent_mapped_us", [&] { g_sink = evaluator.percent_mapped(img, levels); }},
        {"quality.hvs_us",
         [&] { g_sink = quality::hvs_transform_mapped(img, levels, dopts.hvs).width(); }},
        {"quality.uiqi_us", [&] { g_sink = quality::uiqi(ref_hvs, test_hvs, dopts.uiqi); }},
        {"transform.lut_apply_us", [&] { g_sink = quantized.apply(img).width(); }},
        {"color.render_us",
         [&] {
           g_sink = core::render_color(rgb, img, point, core::ColorMode::kSharedCurve).hue_error;
         }},
        {"image.rgb_to_luma_us", [&] { g_sink = rgb.to_luma().width(); }},
    };
    if (names.empty()) {
      for (const auto& layer : layers) names.emplace_back(layer.first);
      samples.resize(names.size());
    }
    for (std::size_t i = 0; i < names.size(); ++i) samples[i].push_back(time_us(layers[i].second));
  }
  if (names.empty()) die("no correct frame to replay");
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < names.size(); ++i) out.emplace_back(names[i], median(samples[i]));
  out.emplace_back("replayed_frames", static_cast<double>(samples[0].size()));
  return out;
}

// -------------------------------------------------------------- output

struct Json {
  std::string s;
  bool first = true;
  void sep() {
    if (!first) s += ", ";
    first = false;
  }
  void key(const std::string& k) {
    sep();
    s += "\"" + k + "\": ";
  }
  void num(const std::string& k, double v) {
    key(k);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += buf;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    s += "\"";
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') s += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) s += ch;
    }
    s += "\"";
  }
  void arr(const std::string& k, const std::vector<double>& v) {
    key(k);
    s += "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    s += "]";
  }
  void open(const std::string& k) {
    key(k);
    s += "{";
    first = true;
  }
  void close() {
    s += "}";
    first = false;
  }
};

void put_timed(Json& j, const std::string& k, const TimedRun& t) {
  j.open(k);
  j.arr("sample_ms", t.sample_ms);
  j.num("frames", static_cast<double>(t.frames));
  j.num("call_s", t.call_s);
  j.num("rounds", static_cast<double>(t.rounds));
  j.close();
}

void put_stats(Json& j, const std::string& k, const hebs::SessionStats& a,
               const hebs::SessionStats& b) {
  j.open(k);
#define HEBS_PB_FIELD(f) j.num(#f, static_cast<double>(b.f - a.f))
  HEBS_PB_FIELD(frames_decided);
  HEBS_PB_FIELD(temporal_frames);
  HEBS_PB_FIELD(reuse_byte_identical);
  HEBS_PB_FIELD(reuse_delta_refresh);
  HEBS_PB_FIELD(reuse_cold);
  HEBS_PB_FIELD(warm_verified);
  HEBS_PB_FIELD(range_probes);
  HEBS_PB_FIELD(beta_probes);
  HEBS_PB_FIELD(eval_memo_hits);
  HEBS_PB_FIELD(eval_memo_misses);
  HEBS_PB_FIELD(range_memo_hits);
  HEBS_PB_FIELD(range_memo_misses);
  HEBS_PB_FIELD(pool_recycled);
  HEBS_PB_FIELD(pool_fresh);
  HEBS_PB_FIELD(parallel_for_calls);
  HEBS_PB_FIELD(parallel_for_items);
  HEBS_PB_FIELD(parallel_for_queued);
  HEBS_PB_FIELD(frames_degraded);
  HEBS_PB_FIELD(pool_heap_fallbacks);
#undef HEBS_PB_FIELD
  j.close();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool setup_only = false;
  std::string out;
  std::string trace_file;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(value().c_str());
    else if (k == "--out") a.out = value();
    else if (k == "--trace-file") a.trace_file = value();
    else if (k == "--traced") a.traced = true;
    else if (k == "--setup-only") a.setup_only = true;
    else die("unknown argument " + k);
  }
  if (a.workload.empty() || a.out.empty() || a.seconds <= 0.0) {
    die("usage: hebs_perfbench --workload W --seed N --seconds S --out FILE "
        "[--setup-only | --traced --trace-file FILE]");
  }
  if (a.traced && a.trace_file.empty()) die("--traced needs --trace-file");
  return a;
}

/// Checks every distinct call against fresh threads(1) sessions, one
/// per worker thread (sessions are single-threaded objects), then
/// resolves the over-budget frames.
void check_against_reference(const Workload& w, Checker& chk) {
  std::vector<Digests> ref(w.cycle.size());
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < workers; ++t) {
    pool.emplace_back([&] {
      // A worker whose session cannot be created claims nothing; calls
      // no worker ran keep an empty reference and fail the check.
      auto session = hebs::Session::create(session_config(1));
      if (!session) return;
      for (std::size_t c = next++; c < w.cycle.size(); c = next++) {
        if (chk.first[c]) ref[c] = run_call(*session, w, w.cycle[c]).digests;
      }
    });
  }
  for (auto& t : pool) t.join();
  for (std::size_t c = 0; c < w.cycle.size(); ++c) {
    chk.against(c, ref[c], /*full=*/false, "threads(1) reference");
  }
  hebs::Session session = create_session(session_config(1));
  chk.resolve_over_budget(session, w);
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die("cannot write " + path);
  std::fputs(text.c_str(), f);
  std::fputs("\n", f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto t_inputs = Clock::now();
  const Workload w = make_workload(args.workload, args.seed);
  Json j;
  j.s = "{";
  j.str("workload", w.name);
  j.num("seed", static_cast<double>(args.seed));
  j.num("inputs_s", seconds_since(t_inputs));

  // Set-up: create the session and run the workload's first call.
  const auto t0 = Clock::now();
  std::optional<hebs::Session> session(create_session(session_config(w.threads)));
  const double create_s = seconds_since(t0);
  const CallResult first_call = run_call(*session, w, w.setup);
  if (!first_call.digests) die("set-up call failed");
  j.num("setup_s", create_s + first_call.seconds);
  if (args.setup_only) {
    write_file(args.out, j.s + "}");
    return 0;
  }
  j.str("compiler", HEBS_PERFBENCH_COMPILER);
  j.str("build_type", HEBS_PERFBENCH_BUILD_TYPE);
  j.num("thread_count", session->thread_count());
  j.str("backend", hebs::kernels::active().name);

  Checker chk(w);
  const double phase_s = args.traced ? args.seconds / 2.0 : args.seconds;
  const hebs::SessionStats before = session->stats();
  const TimedRun timed = timed_loop(*session, w, phase_s, [&](std::size_t c, const auto& got) {
    chk.timed(w, c, got);
  });
  const hebs::SessionStats after = session->stats();
  j.num("peak_rss_kib", peak_rss_kib());
  put_timed(j, "timed", timed);
  put_stats(j, "stats", before, after);
  session.reset();

  if (args.traced) {
    // Tracing is process-global: the traced session runs alone, after
    // the untraced one.  Its set-up call's spans are cleared so the
    // trace holds exactly the timed calls.
    hebs::Session traced = create_session(session_config(w.threads, args.trace_file));
    if (!run_call(traced, w, w.setup).digests) die("traced set-up call failed");
    hebs::obs::clear_trace();
    const TimedRun t = timed_loop(traced, w, std::min(phase_s, kMaxTracedSeconds),
                                  [&](std::size_t c, const auto& got) {
      ++chk.runs[c];
      chk.against(c, got, /*full=*/true, "untraced run");
    });
    put_timed(j, "traced", t);
    j.num("dropped_spans", static_cast<double>(hebs::obs::dropped_spans()));
    // ~Session stops tracing and writes the Chrome trace.
  }

  if (args.traced && w.fanout_threads > 0) {
    // The fan-out phase: the same calls through a session whose idle
    // workers take the frame's rows.  Results must match the timed
    // loop's in every field (the facade's thread-count independence).
    hebs::Session fanout = create_session(session_config(w.fanout_threads));
    if (!run_call(fanout, w, w.setup).digests) die("fan-out set-up call failed");
    const hebs::SessionStats f0 = fanout.stats();
    const TimedRun t = timed_loop(fanout, w, std::min(phase_s, kMaxTracedSeconds),
                                  [&](std::size_t c, const auto& got) {
      ++chk.runs[c];
      chk.against(c, got, /*full=*/true, "threads(1) timed loop");
    });
    put_timed(j, "fanout", t);
    put_stats(j, "fanout_stats", f0, fanout.stats());
    j.num("fanout_threads", fanout.thread_count());
  }

  check_against_reference(w, chk);

  j.num("saving_pct_mean", chk.mean_saving());

  if (args.traced) {
    j.open("layers_us");
    for (const auto& [name, us] : replay_layers(w, chk, 3.0)) j.num(name, us);
    j.close();
  }

  j.num("early_exit_frames", static_cast<double>(chk.early_exits));
  j.num("early_exit_identity_feasible_frames",
        static_cast<double>(chk.early_exits_identity_feasible));
  j.num("flicker_adjusted_frames", static_cast<double>(chk.flicker_adjusted));
  j.num("attempted", static_cast<double>(chk.attempted()));
  j.num("failed", static_cast<double>(chk.failed()));
  j.key("failures");
  j.s += "[";
  for (std::size_t i = 0; i < chk.messages.size(); ++i) {
    Json m;
    m.str("m", chk.messages[i]);
    j.s += (i ? ", " : "") + m.s.substr(5);  // the bare string literal
  }
  j.s += "]";
  write_file(args.out, j.s + "}");
  return 0;
}
