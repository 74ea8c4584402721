// hebs_cli — command-line driver for the HEBS library, on the stable
// session facade.
//
// Subcommands:
//   transform <in.pgm|in.ppm> <out.pgm|out.ppm> [--dmax P | --range R]
//             [--segments M] [--policy NAME] [--metric NAME]
//             [--color-mode shared-curve|luma-ratio]
//             [--bit-depth 8|10|16]
//       Backlight-scale one image; prints the operating point.  A .ppm
//       input runs the color pipeline: the decision is made on BT.601
//       luma, the RGB raster is rendered per --color-mode, and the
//       hue-error of the rendering is reported next to the luma
//       distortion (run both modes to compare their chroma drift).
//       --bit-depth 10|16 reads a deep PGM (maxval up to 65535,
//       big-endian two-byte samples) and decides on the frame's own
//       level lattice; the output PGM keeps the session's maxval.
//   characterize <curve.csv> [--size N]
//       Runs the offline characterization on the synthetic album and
//       writes the distortion characteristic curve.
//   apply-curve <in.pgm> <out.pgm> <curve.csv> --dmax P
//       The deployed Fig. 4 flow: curve lookup, no metric at runtime.
//   batch <in1.pgm> [in2.pgm ...] [--dmax P] [--threads N]
//         [--policy NAME] [--metric NAME] [--out-prefix PFX]
//       One search per image, fanned out over the session's pool.
//   video [static|slow-drift|scene-cut ...] [--frames N] [--size PX]
//         [--dmax P] [--threads N] [--kernel-backend NAME]
//       Runs synthetic clips (the bench_video_temporal archetypes)
//       through the flicker-controlled video path of one session — the
//       observability smoke workload: with --trace/--stats the run
//       produces a trace whose per-frame reuse levels and a counter
//       dump whose hit rates exhibit the documented temporal contract
//       (a static clip of N frames reuses N-1 byte-identical frames).
//   info <in.pgm>
//       Histogram statistics of an image.
//   list-policies  (also: --list-policies anywhere)
//       Prints the policy and metric registries.
//   list-backends  (also: --list-backends anywhere)
//       Prints the compiled-in SIMD kernel backends (active one marked).
//
// Global flags (any subcommand, stripped before dispatch):
//   --trace <path>   Record per-stage spans and write a Chrome/Perfetto
//                    trace JSON to <path> when the session ends.  An
//                    unwritable path is a typed kIoError at session
//                    creation, not a silent drop.
//   --stats          After the subcommand, dump the observability
//                    counter registry as Prometheus-style "name value"
//                    text (what hebs_served serves).
//
// transform/batch also take --kernel-backend NAME to force a SIMD
// backend (outputs are bit-identical across backends; only speed
// changes).  Unknown --policy/--metric/--kernel-backend names print the
// registry contents and exit nonzero.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "hebs/hebs.h"
// In-repo helpers (PGM I/O, synthetic album, histogram stats, the
// counter registry dump) for the characterize/info/--stats paths — not
// part of the stable API.
#include "hebs/advanced/core.h"
#include "hebs/advanced/histogram.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/obs.h"

namespace {

using namespace hebs;

/// Global observability flags, stripped from argv before subcommand
/// dispatch (see main).
bool g_stats = false;
std::string g_trace_path;
std::string g_fault_spec;
long g_deadline_us = 0;

/// Routes --trace/--fault/--deadline-us into the config of whichever
/// session a subcommand is about to create.
void apply_globals(SessionConfig& config) {
  if (!g_trace_path.empty()) config.trace_path(g_trace_path);
  if (!g_fault_spec.empty()) config.fault_spec(g_fault_spec);
  if (g_deadline_us > 0) config.frame_deadline_us(g_deadline_us);
}

/// Exit code for a run that completed but emitted degraded frames
/// (identity fallbacks) — distinct from usage errors (2) and fatal
/// errors (1) so scripts can tell "worked, degraded" from "failed".
constexpr int kDegradedExit = 3;

/// Reports one degraded frame's typed status on stderr
/// ("frame 3 degraded [deadline-exceeded]: ...") and returns
/// kDegradedExit for the caller to fold into its exit code.
int report_degraded(std::size_t index, const FrameResult& r) {
  std::fprintf(stderr, "frame %zu degraded [%s]: %s\n", index,
               status_code_name(r.status.code()),
               r.status.message().c_str());
  return kDegradedExit;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  hebs_cli transform <in.pgm|in.ppm> <out.pgm|out.ppm>\n"
      "           [--dmax P | --range R] [--segments M] [--policy NAME]\n"
      "           [--metric NAME] [--kernel-backend NAME]\n"
      "           [--color-mode shared-curve|luma-ratio]  (.ppm inputs)\n"
      "           [--bit-depth 8|10|16]  (deep PGM in/out)\n"
      "  hebs_cli characterize <curve.csv> [--size N]\n"
      "  hebs_cli apply-curve <in.pgm> <out.pgm> <curve.csv> --dmax P\n"
      "  hebs_cli batch <in1.pgm> [in2.pgm ...] [--dmax P] [--threads N]\n"
      "           [--policy NAME] [--metric NAME] [--out-prefix PFX]\n"
      "           [--kernel-backend NAME]\n"
      "  hebs_cli video [static|slow-drift|scene-cut ...] [--frames N]\n"
      "           [--size PX] [--dmax P] [--threads N]\n"
      "           [--kernel-backend NAME]\n"
      "  hebs_cli info <in.pgm>\n"
      "  hebs_cli list-policies\n"
      "  hebs_cli list-backends\n"
      "global flags (any subcommand):\n"
      "  --trace <path>   write a Chrome/Perfetto trace JSON of the run\n"
      "  --stats          dump the observability counters on exit\n"
      "  --fault <spec>   arm deterministic fault injection\n"
      "                   (\"point[:key=val,...];...\", e.g.\n"
      "                   worker-task:first=2 — see SessionConfig::\n"
      "                   fault_spec); degraded frames are reported with\n"
      "                   their typed status and exit code 3\n"
      "  --deadline-us <n> soft per-frame deadline; a frame past it\n"
      "                   degrades to the identity fallback (exit code 3)\n");
  return 2;
}

void print_registries(std::FILE* out) {
  std::fprintf(out, "policies:\n");
  for (const RegistryEntry& e : PolicyRegistry::entries()) {
    std::fprintf(out, "  %-14s %s\n", e.name.c_str(), e.description.c_str());
  }
  std::fprintf(out, "metrics:\n");
  for (const RegistryEntry& e : MetricRegistry::entries()) {
    std::fprintf(out, "  %-18s %s\n", e.name.c_str(),
                 e.description.c_str());
  }
}

void print_backends(std::FILE* out) {
  const std::string active = KernelRegistry::active();
  std::fprintf(out, "kernel backends:\n");
  for (const RegistryEntry& e : KernelRegistry::entries()) {
    std::fprintf(out, "%s %-8s %s\n", e.name == active ? "* " : "  ",
                 e.name.c_str(), e.description.c_str());
  }
}

/// Surfaces a facade error; unknown registry names additionally dump
/// the registries so the fix is one copy/paste away.
int fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  if (status.code() == StatusCode::kUnknownPolicy ||
      status.code() == StatusCode::kUnknownMetric) {
    print_registries(stderr);
  }
  if (status.code() == StatusCode::kUnknownBackend) {
    print_backends(stderr);
  }
  return 2;
}

ImageView view_of(const image::GrayImage& img) {
  return ImageView::gray8(img.pixels().data(), img.width(), img.height());
}

image::GrayImage to_gray(const OwnedImage& img) {
  return image::GrayImage::from_pixels(img.width(), img.height(),
                                       img.pixels());
}

image::RgbImage to_rgb(const OwnedRgbImage& img) {
  return image::RgbImage::from_pixels(img.width(), img.height(),
                                      img.pixels());
}

void report(const FrameResult& r) {
  std::printf("range [%d, %d]  beta %.3f  segments %zu\n", r.g_min, r.g_max,
              r.beta, r.lambda.empty() ? 0 : r.lambda.size() - 1);
  std::printf("distortion %.2f %%  saving %.2f %%  power %.2f -> %.2f W\n",
              r.distortion_percent, r.saving_percent,
              r.reference_power.total_watts(), r.power.total_watts());
}

int cmd_transform(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  double dmax = 10.0;
  int range = 0;
  int bit_depth = 8;
  SessionConfig config;
  for (int i = 4; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--dmax" && i + 1 < argc) {
      dmax = std::atof(argv[++i]);
    } else if (flag == "--range" && i + 1 < argc) {
      range = std::atoi(argv[++i]);
    } else if (flag == "--segments" && i + 1 < argc) {
      config.segments(std::atoi(argv[++i]));
    } else if (flag == "--policy" && i + 1 < argc) {
      config.policy(argv[++i]);
    } else if (flag == "--metric" && i + 1 < argc) {
      config.metric(argv[++i]);
    } else if (flag == "--kernel-backend" && i + 1 < argc) {
      config.kernel_backend(argv[++i]);
    } else if (flag == "--color-mode" && i + 1 < argc) {
      config.color_mode(argv[++i]);
    } else if (flag == "--bit-depth" && i + 1 < argc) {
      bit_depth = std::atoi(argv[++i]);
      config.bit_depth(bit_depth);
    } else {
      return usage();
    }
  }
  apply_globals(config);
  auto session = Session::create(config);
  if (!session) return fail(session.status());

  if (bit_depth != 8) {
    if (in_path.ends_with(".ppm")) {
      std::fprintf(stderr, "error: --bit-depth applies to .pgm inputs only\n");
      return 2;
    }
    // Deep workload: raw samples on the session's level lattice end to
    // end — read, decide, write, all without rescaling.
    const int levels = 1 << bit_depth;
    const auto file = image::read_pgm16(in_path);
    if (file.levels() > levels) {
      std::fprintf(stderr, "error: %s has maxval %d, above --bit-depth %d\n",
                   in_path.c_str(), file.max_pixel(), bit_depth);
      return 2;
    }
    const auto img = image::GrayImage16::from_pixels(
        file.width(), file.height(), levels, file.pixels());
    auto result = session->process(
        {ImageView::gray16(img.pixels().data(), img.width(), img.height()),
         dmax, range});
    if (!result) return fail(result.status());
    report(*result);
    image::write_pgm16(
        image::GrayImage16::from_pixels(
            result->displayed16.width(), result->displayed16.height(),
            result->displayed16.levels(), result->displayed16.pixels()),
        out_path);
    std::printf("wrote %s (maxval %d)\n", out_path.c_str(), levels - 1);
    if (result->degraded) return report_degraded(0, *result);
    return 0;
  }

  if (in_path.ends_with(".ppm")) {
    // Color workload: decision on luma, RGB rendering per --color-mode.
    const auto img = image::read_ppm(in_path);
    FrameRequest request{
        ImageView::rgb8(img.data().data(), img.width(), img.height()), dmax,
        range};
    request.color_output = true;
    auto result = session->process(request);
    if (!result) return fail(result.status());
    report(*result);
    std::printf("hue error %.4f  (color mode %s)\n", result->hue_error,
                session->config().color_mode().c_str());
    image::write_ppm(to_rgb(result->displayed_rgb), out_path);
    std::printf("wrote %s\n", out_path.c_str());
    if (result->degraded) return report_degraded(0, *result);
    return 0;
  }

  const auto img = image::read_pgm(in_path);
  auto result = session->process({view_of(img), dmax, range});
  if (!result) return fail(result.status());
  report(*result);
  image::write_pgm(to_gray(result->displayed), out_path);
  std::printf("wrote %s\n", out_path.c_str());
  // A contained fault or a missed deadline leaves the identity fallback
  // (written above); exit 3 says the run completed degraded.
  if (result->degraded) return report_degraded(0, *result);
  return 0;
}

int cmd_characterize(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string curve_path = argv[2];
  int size = 96;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc) {
      size = std::atoi(argv[++i]);
    } else {
      return usage();
    }
  }
  const auto album = image::usid_album(size);
  const auto ranges = core::DistortionCurve::default_ranges();
  const auto curve = core::DistortionCurve::characterize(
      album, ranges, {}, power::LcdSubsystemPower::lp064v1());
  curve.save(curve_path);
  std::printf("characterized %zu images x %zu ranges -> %s\n",
              album.size(), ranges.size(), curve_path.c_str());
  for (double budget : {5.0, 10.0, 20.0}) {
    std::printf("  D_max %.0f%% -> min range %d\n", budget,
                curve.min_range_for(budget));
  }
  return 0;
}

int cmd_apply_curve(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  const std::string curve_path = argv[4];
  double dmax = 10.0;
  for (int i = 5; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dmax") == 0 && i + 1 < argc) {
      dmax = std::atof(argv[++i]);
    } else {
      return usage();
    }
  }
  const auto img = image::read_pgm(in_path);
  SessionConfig config;
  config.policy("hebs-curve").curve_path(curve_path);
  apply_globals(config);
  auto session = Session::create(config);
  if (!session) return fail(session.status());
  auto result = session->process({view_of(img), dmax});
  if (!result) return fail(result.status());
  report(*result);
  image::write_pgm(to_gray(result->displayed), out_path);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto img = image::read_pgm(argv[2]);
  const auto hist = histogram::Histogram::from_image(img);
  std::printf("%s: %dx%d\n", argv[2], img.width(), img.height());
  std::printf("  levels [%d, %d], dynamic range %d\n", hist.min_level(),
              hist.max_level(), hist.dynamic_range());
  std::printf("  mean %.1f  stddev %.1f  entropy %.2f bits\n", hist.mean(),
              std::sqrt(hist.variance()), hist.entropy_bits());
  std::printf("  percentiles: p5=%d p50=%d p95=%d\n",
              hist.percentile_level(0.05), hist.percentile_level(0.50),
              hist.percentile_level(0.95));
  return 0;
}

int cmd_batch(int argc, char** argv) {
  // One search per input on the session's pool; one output per input
  // when --out-prefix is given (PFX + basename).
  double dmax = 10.0;
  std::string out_prefix;
  SessionConfig config;
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--dmax" && i + 1 < argc) {
      dmax = std::atof(argv[++i]);
    } else if (flag == "--threads" && i + 1 < argc) {
      config.threads(std::atoi(argv[++i]));
    } else if (flag == "--policy" && i + 1 < argc) {
      config.policy(argv[++i]);
    } else if (flag == "--metric" && i + 1 < argc) {
      config.metric(argv[++i]);
    } else if (flag == "--out-prefix" && i + 1 < argc) {
      out_prefix = argv[++i];
    } else if (flag == "--kernel-backend" && i + 1 < argc) {
      config.kernel_backend(argv[++i]);
    } else if (!flag.empty() && flag[0] == '-') {
      return usage();
    } else {
      inputs.push_back(flag);
    }
  }
  if (inputs.empty()) return usage();

  std::vector<image::GrayImage> images;
  images.reserve(inputs.size());
  for (const auto& path : inputs) images.push_back(image::read_pgm(path));
  std::vector<ImageView> frames;
  frames.reserve(images.size());
  for (const auto& img : images) frames.push_back(view_of(img));

  apply_globals(config);
  auto session = Session::create(config);
  if (!session) return fail(session.status());
  std::printf("batch: %zu images, D_max %.1f%%, policy %s, %d thread(s)\n",
              frames.size(), dmax, session->config().policy().c_str(),
              session->thread_count());
  auto results = session->process_batch(frames, dmax);
  if (!results) return fail(results.status());
  int rc = 0;
  for (std::size_t i = 0; i < results->size(); ++i) {
    const FrameResult& r = (*results)[i];
    std::printf("%-28s range [%d, %d]  beta %.3f  distortion %.2f%%  "
                "saving %.2f%%%s\n",
                inputs[i].c_str(), r.g_min, r.g_max, r.beta,
                r.distortion_percent, r.saving_percent,
                r.degraded ? "  [degraded]" : "");
    if (r.degraded) rc = report_degraded(i, r);
    if (!out_prefix.empty()) {
      // Index-prefixed flattened path: unique per input position, so no
      // two inputs (even identical paths) can overwrite each other.
      std::string base = inputs[i];
      for (char& c : base) {
        if (c == '/' || c == '\\') c = '_';
      }
      image::write_pgm(to_gray(r.displayed),
                       out_prefix + std::to_string(i) + "_" + base);
    }
  }
  return rc;
}

/// The synthetic video archetypes of bench_video_temporal, reproduced
/// for the observability smoke workload: one clip per coherence regime
/// (fully static, <2% pixel churn with slow operating-point drift,
/// hard scene cuts).
std::vector<image::GrayImage> make_clip(const std::string& name, int frames,
                                        int size) {
  const auto n = static_cast<std::size_t>(frames);
  if (name == "static") {
    return std::vector<image::GrayImage>(
        n, image::make_usid(image::UsidId::kPout, size));
  }
  if (name == "slow-drift") {
    const image::GrayImage base =
        image::make_usid(image::UsidId::kSail, size);
    std::vector<image::GrayImage> clip;
    clip.reserve(n);
    int dim = 0;
    for (int f = 0; f < frames; ++f) {
      if (f > 0 && f % 6 == 0) ++dim;
      image::GrayImage frame = base;
      if (dim > 0) {
        for (auto& px : frame.pixels()) {
          px = static_cast<std::uint8_t>(px > dim ? px - dim : 0);
        }
      }
      constexpr int kSprite = 6;
      const int x0 = f % (size - kSprite);
      for (int y = size / 4; y < size / 4 + kSprite; ++y) {
        for (int x = x0; x < x0 + kSprite; ++x) frame(x, y) = 230;
      }
      clip.push_back(std::move(frame));
    }
    return clip;
  }
  if (name == "scene-cut") {
    std::vector<image::GrayImage> cuts;
    const image::UsidId scenes[] = {image::UsidId::kPout,
                                    image::UsidId::kBaboon,
                                    image::UsidId::kSplash,
                                    image::UsidId::kWest};
    int produced = 0;
    for (int block = 0; produced < frames; ++block) {
      const image::GrayImage scene = image::make_usid(scenes[block % 4], size);
      for (int i = 0; i < 6 && produced < frames; ++i, ++produced) {
        cuts.push_back(scene);
      }
    }
    return cuts;
  }
  return {};
}

int cmd_video(int argc, char** argv) {
  int frames = 48;
  int size = 96;
  double dmax = 10.0;
  SessionConfig config;
  std::vector<std::string> clip_names;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--frames" && i + 1 < argc) {
      frames = std::atoi(argv[++i]);
    } else if (flag == "--size" && i + 1 < argc) {
      size = std::atoi(argv[++i]);
    } else if (flag == "--dmax" && i + 1 < argc) {
      dmax = std::atof(argv[++i]);
    } else if (flag == "--threads" && i + 1 < argc) {
      config.threads(std::atoi(argv[++i]));
    } else if (flag == "--kernel-backend" && i + 1 < argc) {
      config.kernel_backend(argv[++i]);
    } else if (!flag.empty() && flag[0] == '-') {
      return usage();
    } else {
      clip_names.push_back(flag);
    }
  }
  if (clip_names.empty()) clip_names = {"static", "slow-drift", "scene-cut"};
  if (frames < 1 || size < 32) {
    std::fprintf(stderr, "error: need --frames >= 1 and --size >= 32\n");
    return 2;
  }

  apply_globals(config);
  auto session = Session::create(config);
  if (!session) return fail(session.status());
  std::printf("video: %d frames at %dx%d per clip, D_max %.1f%%, "
              "%d thread(s)\n",
              frames, size, size, dmax, session->thread_count());
  int rc = 0;

  for (const std::string& name : clip_names) {
    const auto clip = make_clip(name, frames, size);
    if (clip.empty()) {
      std::fprintf(stderr,
                   "error: unknown clip \"%s\" (static, slow-drift, "
                   "scene-cut)\n",
                   name.c_str());
      return 2;
    }
    std::vector<ImageView> views;
    views.reserve(clip.size());
    for (const auto& frame : clip) views.push_back(view_of(frame));
    auto results = session->process_video(views, dmax);
    if (!results) return fail(results.status());

    int cuts = 0;
    int degraded = 0;
    double beta_sum = 0.0;
    double saving_sum = 0.0;
    for (std::size_t i = 0; i < results->size(); ++i) {
      const VideoFrameResult& r = (*results)[i];
      if (r.scene_cut) ++cuts;
      if (r.frame.degraded) {
        ++degraded;
        rc = report_degraded(i, r.frame);
      }
      beta_sum += r.beta;
      saving_sum += r.frame.saving_percent;
    }
    const auto count = static_cast<double>(results->size());
    std::printf("  %-10s %zu frames  %d scene cut(s)  %d degraded  "
                "mean beta %.3f  mean saving %.2f%%\n",
                name.c_str(), results->size(), cuts, degraded,
                beta_sum / count, saving_sum / count);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Strip the global observability flags first, so every subcommand
    // sees a clean argv and --trace/--stats work uniformly.
    std::vector<char*> args;
    args.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
      if (std::strcmp(argv[i], "--stats") == 0) {
        g_stats = true;
      } else if (std::strcmp(argv[i], "--trace") == 0) {
        if (i + 1 >= argc) return usage();
        g_trace_path = argv[++i];
      } else if (std::strcmp(argv[i], "--fault") == 0) {
        if (i + 1 >= argc) return usage();
        g_fault_spec = argv[++i];
      } else if (std::strcmp(argv[i], "--deadline-us") == 0) {
        if (i + 1 >= argc) return usage();
        g_deadline_us = std::atol(argv[++i]);
      } else {
        args.push_back(argv[i]);
      }
    }
    argc = static_cast<int>(args.size());
    argv = args.data();

    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--list-policies") == 0) {
        print_registries(stdout);
        return 0;
      }
      if (std::strcmp(argv[i], "--list-backends") == 0) {
        print_backends(stdout);
        return 0;
      }
    }
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    int rc = 2;
    if (cmd == "transform") {
      rc = cmd_transform(argc, argv);
    } else if (cmd == "characterize") {
      rc = cmd_characterize(argc, argv);
    } else if (cmd == "apply-curve") {
      rc = cmd_apply_curve(argc, argv);
    } else if (cmd == "batch") {
      rc = cmd_batch(argc, argv);
    } else if (cmd == "video") {
      rc = cmd_video(argc, argv);
    } else if (cmd == "info") {
      rc = cmd_info(argc, argv);
    } else if (cmd == "list-policies") {
      print_registries(stdout);
      rc = 0;
    } else if (cmd == "list-backends") {
      print_backends(stdout);
      rc = 0;
    } else {
      return usage();
    }
    // The session (and with it the trace file) is gone by now: the
    // stats dump and the trace note describe a finished run.  A
    // degraded run (exit 3) still completed, so its counters — the
    // machine-readable record of what degraded and which fault points
    // fired — are dumped too.
    const bool completed = rc == 0 || rc == kDegradedExit;
    if (completed && g_stats) {
      std::fputs(obs::counters_text(obs::snapshot_counters()).c_str(),
                 stdout);
    }
    if (completed && !g_trace_path.empty()) {
      std::fprintf(stderr, "trace written to %s\n", g_trace_path.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
