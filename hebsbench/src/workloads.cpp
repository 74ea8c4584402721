// The three workloads: inputs built from the seed with the library's
// synthetic generators, sent through hebs::Session one call at a time,
// every frame's outputs checked.
//
//   photo-single      384x384 gray photos, gradients and flats; one
//                     Session::process call per frame.
//   album-color-720p  1280x720 rgb8 photos; process_batch_color, one
//                     batch of four photos per call.
//   video-mixed       one 384x384 gray clip of static, slow-drift,
//                     pan/dim and scene-cut segments; one process_video
//                     call per clip.
//
// A seed varies pixels (level windows, noise, tone curves, shapes,
// request order), never the scene mix or the album's batch grouping:
// runs on different seeds then do the same amount of work, and their
// spread is the machine's, not the draw's.
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "bench.h"
#include "hebs/advanced/core.h"
#include "hebs/advanced/util.h"

namespace hebsbench {
namespace {

using hebs::image::GrayImage;
using hebs::image::RgbImage;
using hebs::util::Rng;

constexpr int kPhotoSize = 384;
constexpr int kAlbumWidth = 1280;
constexpr int kAlbumHeight = 720;
constexpr int kAlbumPhotos = 20;
constexpr int kAlbumBatch = 4;
constexpr double kVideoBudget = 10.0;

/// Seeded variation of a USID stand-in: a new level window and a little
/// sensor noise, so each seed gives new histograms of the same scenes.
void perturb(GrayImage& img, Rng& rng) {
  hebs::image::stretch_to_range(img, rng.uniform(0.0, 0.04),
                                rng.uniform(0.94, 1.0));
  hebs::image::add_gaussian_noise(img, rng.uniform(0.002, 0.006), rng);
}

/// Gradient i of four kinds (horizontal, vertical, radial, vignetted),
/// with seeded end levels and geometry.
GrayImage seeded_gradient(int i, int size, Rng& rng) {
  GrayImage img(size, size);
  const double v0 = rng.uniform(0.0, 0.1);
  const double v1 = rng.uniform(0.9, 1.0);
  switch (i % 4) {
    case 0: hebs::image::gradient_h(img, v0, v1); break;
    case 1: hebs::image::gradient_v(img, v1, v0); break;
    case 2:
      hebs::image::gradient_radial(img, size * rng.uniform(0.4, 0.6),
                                   size * rng.uniform(0.4, 0.6),
                                   size * rng.uniform(0.7, 0.9), v1, v0);
      break;
    default:
      hebs::image::gradient_v(img, v0, v1);
      hebs::image::vignette(img, rng.uniform(0.6, 0.7));
      break;
  }
  return img;
}

/// Checks what every workload requires of a decided frame.
bool check_frame(const hebs::FrameResult& r, double budget, bool check_budget,
                 std::string* why) {
  char buf[160];
  if (!r.status.ok() || r.degraded) {
    std::snprintf(buf, sizeof buf, "status %s%s", r.status.message().c_str(),
                  r.degraded ? " (degraded)" : "");
  } else if (!(r.beta > 0.0 && r.beta <= 1.0)) {
    std::snprintf(buf, sizeof buf, "beta %.17g outside (0, 1]", r.beta);
  } else if (check_budget && r.distortion_percent > budget + 1e-9) {
    std::snprintf(buf, sizeof buf, "distortion %.6f%% above budget %.1f%%",
                  r.distortion_percent, budget);
  } else {
    return true;
  }
  if (why->empty()) *why = buf;
  return false;
}

void digest_frame(const hebs::FrameResult& r, Digest& d) {
  d.add(r.beta);
  d.add(r.g_min);
  d.add(r.g_max);
  d.add(r.lambda);
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size() - 1; i > 0; --i) {
    const auto j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i)));
    std::swap(v[i], v[j]);
  }
}

hebs::ImageView view_of(const GrayImage& g) {
  return hebs::ImageView::gray8(g.pixels().data(), g.width(), g.height());
}

// ------------------------------------------------------------ photo-single

class PhotoSingle final : public Workload {
 public:
  const char* name() const override { return "photo-single"; }
  std::string frame_size() const override { return "384x384 gray8"; }

  void generate(std::uint64_t seed) override {
    Rng rng(seed, 0x9e0);
    // Every USID scene once, then gradients and flats: the same mix on
    // every seed, with seeded windows, noise, shapes and levels.
    for (const hebs::image::UsidId id : hebs::image::kAllUsidIds) {
      GrayImage img = hebs::image::make_usid(id, kPhotoSize);
      perturb(img, rng);
      frames_.push_back(std::move(img));
    }
    for (int i = 0; i < 9; ++i) {
      frames_.push_back(seeded_gradient(i, kPhotoSize, rng));
    }
    for (const double level : {0.1, 0.25, 0.4, 0.55, 0.7, 0.85}) {
      GrayImage img(kPhotoSize, kPhotoSize);
      hebs::image::fill_rect(img, 0, 0, kPhotoSize, kPhotoSize,
                             level + rng.uniform(-0.04, 0.04));
      frames_.push_back(std::move(img));
    }
    for (std::size_t f = 0; f < frames_.size(); ++f) {
      for (const double b : kBudgets) requests_.push_back({f, b});
    }
    // Seeded order, but the warm-up call (call 0) is always the first
    // photo at 10%, so set-up time does not depend on the seed's draw.
    shuffle(requests_, rng);
    const auto first = std::find_if(
        requests_.begin(), requests_.end(),
        [](const Request& r) { return r.frame == 0 && r.budget == 10.0; });
    std::iter_swap(requests_.begin(), first);
  }

  std::size_t calls_per_pass() const override { return requests_.size(); }
  std::size_t frames_per_call() const override { return 1; }

  CallResult call(hebs::Session& session, std::size_t k) override {
    const Request& req = requests_[k % requests_.size()];
    hebs::FrameRequest fr;
    fr.image = view_of(frames_[req.frame]);
    fr.d_max_percent = req.budget;
    const auto result = session.process(fr);
    CallResult out;
    out.frames = 1;
    if (!result) {
      out.failed = 1;
      out.first_failure = result.status().message();
      return out;
    }
    if (!check_frame(*result, req.budget, true, &out.first_failure)) {
      out.failed = 1;
    }
    out.saving_sum = result->saving_percent;
    digest_frame(*result, out.digest);
    return out;
  }

  std::vector<ProbeFrame> probe_frames() const override {
    // Four photos, two gradients and a flat: close to the 19/9/6 mix.
    std::vector<ProbeFrame> out;
    for (const std::size_t f : {0, 5, 10, 15, 19, 20, 28}) {
      out.push_back({&frames_[f], nullptr, kBudgets[f % 3]});
    }
    return out;
  }

  void internal_call(hebs::pipeline::PipelineEngine&,
                     std::size_t k) override {
    const Request& req = requests_[k % requests_.size()];
    (void)hebs::core::hebs_exact(frames_[req.frame], req.budget,
                                 hebs::core::HebsOptions{},
                                 hebs::power::LcdSubsystemPower::lp064v1());
  }

 private:
  struct Request {
    std::size_t frame;
    double budget;
  };
  std::vector<GrayImage> frames_;
  std::vector<Request> requests_;
};

// -------------------------------------------------------- album-color-720p

/// A 1280x720 color photo: the USID color stand-in at 720x720, widened
/// by mirroring its right part, under a seeded per-photo tone curve.
RgbImage album_photo(hebs::image::UsidId id, Rng& rng) {
  const RgbImage square = hebs::image::make_usid_color(id, kAlbumHeight);
  const double lo = rng.uniform(0.0, 0.04);
  const double hi = rng.uniform(0.94, 1.0);
  std::uint8_t tone[256];
  for (int v = 0; v < 256; ++v) {
    tone[v] = hebs::image::to_pixel(lo + (hi - lo) * v / 255.0);
  }
  RgbImage out(kAlbumWidth, kAlbumHeight);
  const auto src = square.data();
  auto dst = out.data();
  for (int y = 0; y < kAlbumHeight; ++y) {
    for (int x = 0; x < kAlbumWidth; ++x) {
      const int sx = x < kAlbumHeight ? x : 2 * kAlbumHeight - 1 - x;
      for (int c = 0; c < 3; ++c) {
        dst[(static_cast<std::size_t>(y) * kAlbumWidth + x) * 3 + c] =
            tone[src[(static_cast<std::size_t>(y) * kAlbumHeight + sx) * 3 +
                     c]];
      }
    }
  }
  return out;
}

class AlbumColor720p final : public Workload {
 public:
  const char* name() const override { return "album-color-720p"; }
  std::string frame_size() const override { return "1280x720 rgb8"; }

  void generate(std::uint64_t seed) override {
    // Every USID scene, plus Lena again to fill five batches of four, in
    // Table 1 order under seeded tone curves.  The order is fixed: a
    // four-frame call lasts as long as its slowest frame, so a seeded
    // grouping would move throughput with the seed.
    Rng rng(seed, 0xa1b);
    std::vector<hebs::image::UsidId> ids(hebs::image::kAllUsidIds.begin(),
                                         hebs::image::kAllUsidIds.end());
    ids.push_back(hebs::image::UsidId::kLena);
    for (const hebs::image::UsidId id : ids) {
      photos_.push_back(album_photo(id, rng));
      lumas_.push_back(photos_.back().to_luma());
    }
  }

  std::size_t calls_per_pass() const override {
    return 3 * (kAlbumPhotos / kAlbumBatch);
  }
  std::size_t frames_per_call() const override { return kAlbumBatch; }
  // A call takes ~0.5 s: 200 calls for a p95 would outlast a run.
  double tail_level() const override { return 0.75; }

  CallResult call(hebs::Session& session, std::size_t k) override {
    const double budget = kBudgets[k % 3];
    const std::size_t first = batch_of(k) * kAlbumBatch;
    std::vector<hebs::ImageView> views;
    for (std::size_t i = first; i < first + kAlbumBatch; ++i) {
      views.push_back(hebs::ImageView::rgb8(photos_[i].data().data(),
                                            kAlbumWidth, kAlbumHeight));
    }
    const auto results = session.process_batch_color(views, budget);
    CallResult out;
    out.frames = kAlbumBatch;
    if (!results) {
      out.failed = kAlbumBatch;
      out.first_failure = results.status().message();
      return out;
    }
    for (const hebs::FrameResult& r : *results) {
      if (!check_frame(r, budget, true, &out.first_failure)) ++out.failed;
      if (r.displayed_rgb.width() != kAlbumWidth) {
        ++out.failed;
        if (out.first_failure.empty()) out.first_failure = "no rgb output";
      }
      out.saving_sum += r.saving_percent;
      digest_frame(r, out.digest);
    }
    return out;
  }

  std::vector<ProbeFrame> probe_frames() const override {
    // The first batch: four 720p probes keep the traced run short.
    std::vector<ProbeFrame> out;
    for (std::size_t i = 0; i < kAlbumBatch; ++i) {
      out.push_back({&lumas_[i], &photos_[i], kBudgets[i % 3]});
    }
    return out;
  }

  void internal_call(hebs::pipeline::PipelineEngine& engine,
                     std::size_t k) override {
    const std::size_t first = batch_of(k) * kAlbumBatch;
    const std::span<const RgbImage> batch(&photos_[first], kAlbumBatch);
    (void)engine.process_batch_color(batch, kBudgets[k % 3],
                                     hebs::core::ColorMode::kSharedCurve);
  }

  bool color() const override { return true; }

 private:
  static std::size_t batch_of(std::size_t k) {
    return (k / 3) % (kAlbumPhotos / kAlbumBatch);
  }
  std::vector<RgbImage> photos_;
  std::vector<GrayImage> lumas_;
};

// ------------------------------------------------------------- video-mixed

class VideoMixed final : public Workload {
 public:
  const char* name() const override { return "video-mixed"; }
  std::string frame_size() const override { return "384x384 gray8"; }

  void generate(std::uint64_t seed) override {
    // Fixed scenes per segment, seeded windows, noise, drift path and
    // pan texture.
    Rng rng(seed, 0x71d);
    using hebs::image::UsidId;
    const auto scene = [&](UsidId id) {
      GrayImage img = hebs::image::make_usid(id, kPhotoSize);
      perturb(img, rng);
      return img;
    };
    // Static: one scene held (the byte-identical fast path).
    const GrayImage still = scene(UsidId::kPeppers);
    for (int f = 0; f < 12; ++f) clip_.push_back(still);
    // Slow drift: a small bright object crossing a held scene (few
    // pixels change per frame: the histogram delta-refresh path).
    const GrayImage backdrop = scene(UsidId::kGirl);
    const double y = kPhotoSize * rng.uniform(0.3, 0.7);
    for (int f = 0; f < 12; ++f) {
      GrayImage img = backdrop;
      hebs::image::fill_circle(img, 40.0 + 4.0 * f, y, 10.0, 0.95);
      clip_.push_back(std::move(img));
    }
    // Pan/dim: every pixel changes every frame (temporal reuse loses).
    pan_ = hebs::image::make_video_clip(24, kPhotoSize, seed);
    clip_.insert(clip_.end(), pan_.begin(), pan_.end());
    // Scene cuts: two scenes swapping every second frame.
    const GrayImage a = scene(UsidId::kSail);
    const GrayImage b = scene(UsidId::kHouseA);
    for (int f = 0; f < 8; ++f) clip_.push_back((f / 2) % 2 == 0 ? a : b);
  }

  std::size_t calls_per_pass() const override { return 1; }
  std::size_t frames_per_call() const override { return clip_.size(); }
  // One call per pass: the 20 calls a run makes back only the median.
  double tail_level() const override { return 0.5; }

  CallResult call(hebs::Session& session, std::size_t) override {
    std::vector<hebs::ImageView> views;
    for (const GrayImage& f : clip_) views.push_back(view_of(f));
    const auto results = session.process_video(views, kVideoBudget);
    CallResult out;
    out.frames = static_cast<int>(clip_.size());
    if (!results) {
      out.failed = out.frames;
      out.first_failure = results.status().message();
      return out;
    }
    for (const hebs::VideoFrameResult& r : *results) {
      if (!check_frame(r.frame, kVideoBudget, false, &out.first_failure) ||
          !(r.raw_beta > 0.0 && r.raw_beta <= 1.0)) {
        ++out.failed;
      }
      out.saving_sum += r.frame.saving_percent;
      out.digest.add(r.raw_beta);
      out.digest.add(static_cast<int>(r.scene_cut));
      digest_frame(r.frame, out.digest);
    }
    return out;
  }

  std::vector<ProbeFrame> probe_frames() const override {
    // Static, drift, the pan's two scenes, and both cut scenes.
    std::vector<ProbeFrame> out;
    for (const std::size_t f : {0, 12, 24, 44, 48, 50}) {
      out.push_back({&clip_[f], nullptr, kVideoBudget});
    }
    return out;
  }

  void internal_call(hebs::pipeline::PipelineEngine& engine,
                     std::size_t) override {
    hebs::core::VideoOptions vopts;
    vopts.d_max_percent = kVideoBudget;
    vopts.num_threads = engine.thread_count();
    (void)engine.process_stream(clip_, vopts);
  }

  const std::vector<GrayImage>* pan_clip() const override { return &pan_; }
  bool video() const override { return true; }

 private:
  std::vector<GrayImage> clip_;
  std::vector<GrayImage> pan_;
};

}  // namespace

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "photo-single", "album-color-720p", "video-mixed"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "photo-single") return std::make_unique<PhotoSingle>();
  if (name == "album-color-720p") return std::make_unique<AlbumColor720p>();
  if (name == "video-mixed") return std::make_unique<VideoMixed>();
  return nullptr;
}

hebs::SessionConfig session_config(int threads) {
  return hebs::SessionConfig().threads(threads);
}

hebs::pipeline::EngineOptions engine_options(int threads) {
  hebs::pipeline::EngineOptions opts;
  opts.num_threads = threads;
  return opts;
}

double setup_session(Workload& w, int threads,
                     std::unique_ptr<hebs::Session>* out) {
  const double t0 = now_s();
  auto session = hebs::Session::create(session_config(threads));
  if (!session) {
    std::fprintf(stderr, "Session::create failed: %s\n",
                 session.status().message().c_str());
    std::exit(1);
  }
  auto owned = std::make_unique<hebs::Session>(std::move(*session));
  const CallResult warm = w.call(*owned, 0);
  const double t1 = now_s();
  if (warm.failed != 0) {
    std::fprintf(stderr, "warm-up call failed: %s\n",
                 warm.first_failure.c_str());
  }
  *out = std::move(owned);
  return t1 - t0;
}

LoopStats run_loop(Workload& w, hebs::Session& session, double min_seconds,
                   std::size_t min_calls) {
  LoopStats s;
  const std::size_t per_pass = w.calls_per_pass();
  Digest pass;
  double pass0_saving = 0.0;
  std::size_t pass0_frames = 0;
  std::size_t pass_frames = 0;
  const double t0 = now_s();
  double pass_t0 = t0;
  const double cpu0 = cpu_now_s();
  for (std::size_t k = 0;; ++k) {
    // Stop on a pass boundary, so every run measures the same mix.
    if (k >= min_calls && k % per_pass == 0 && now_s() - t0 >= min_seconds) {
      break;
    }
    const double c0 = now_s();
    const CallResult r = w.call(session, k);
    const double c1 = now_s();
    s.frame_ms.push_back((c1 - c0) * 1e3 / r.frames);
    ++s.calls;
    s.frames += static_cast<std::size_t>(r.frames);
    s.failed += static_cast<std::size_t>(r.failed);
    if (s.first_failure.empty()) s.first_failure = r.first_failure;
    pass.add(r.digest);
    pass_frames += static_cast<std::size_t>(r.frames);
    if (k < per_pass) {
      pass0_saving += r.saving_sum;
      pass0_frames += static_cast<std::size_t>(r.frames);
    }
    if ((k + 1) % per_pass == 0) {
      s.pass_digests.push_back(pass);
      pass = Digest();
      s.pass_fps.push_back(static_cast<double>(pass_frames) / (c1 - pass_t0));
      pass_frames = 0;
      pass_t0 = now_s();
    }
  }
  s.wall_s = now_s() - t0;
  s.cpu_s = cpu_now_s() - cpu0;
  s.pass0_saving_pct = pass0_frames == 0
                           ? 0.0
                           : pass0_saving / static_cast<double>(pass0_frames);
  return s;
}

}  // namespace hebsbench
