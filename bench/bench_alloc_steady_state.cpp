// Counting-allocator harness: proves the engine's per-worker steady
// state performs ZERO heap allocations per frame.
//
// Global operator new/delete are replaced with counting versions (this
// affects the whole binary, which is why this harness is its own
// executable).  The measured loop is exactly what one engine worker
// slot runs in stream mode: a recycling BufferPool installed as the
// thread's arena, one FrameContext rebound per frame, and the exact
// HEBS search — cold and through the TemporalReuse fast path.  After a
// warm-up pass over the clip (free lists fill, vector capacities reach
// their high-water marks), steady-state frames must allocate nothing:
// every raster, integral table, curve and memo node is recycled.  The
// last rows drive Session::process, process_batch_color and
// process_video end to end and gate on the session's pool-miss count
// instead (their results must leave the pool): the engine keeps its
// slots, and the session its staging rasters, across calls.  The `lanes`
// rows also require speculative probes to run: a one-frame call's on
// the pool's idle workers, a batch's on the workers its tail leaves idle.
//
// Exit code 1 when any steady-state configuration allocates — this is
// deterministic (no timing), so CI gates on it.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sys/resource.h>
#include <vector>

#include "hebs/advanced/image.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"
#include "hebs/advanced/power.h"
#include "hebs/advanced/util.h"
#include "hebs/hebs.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Counting overrides: every allocation path funnels through these
// (including the pool's own heap misses, so a pool miss in steady state
// is counted — exactly what the harness must catch).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

constexpr double kBudget = 10.0;

/// Runs `loops` passes over the clip through one worker's steady-state
/// loop; returns allocations counted during the passes.
template <typename PerFrame>
std::uint64_t measure(const std::vector<hebs::image::GrayImage>& clip,
                      int loops, PerFrame&& per_frame) {
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int pass = 0; pass < loops; ++pass) {
    for (const auto& frame : clip) per_frame(frame);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace

int main(int argc, char** argv) {
  int frames = 24;
  int size = 96;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--frames=", 9) == 0) {
      frames = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--size=", 7) == 0) {
      size = std::atoi(arg + 7);
    } else {
      std::fprintf(stderr, "usage: %s [--frames=N] [--size=PX]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== Zero-allocation steady state (counting allocator) ===\n");
  std::printf("clip: %d slow-pan frames at %dx%d, D_max %.0f%%\n\n", frames,
              size, size, kBudget);
  const auto clip = hebs::image::make_video_clip(frames, size);
  const auto model = hebs::power::LcdSubsystemPower::lp064v1();
  const auto frames_per_pass = static_cast<std::uint64_t>(clip.size());

  bool ok = true;
  const auto report = [&](const char* config, std::uint64_t allocs,
                          std::uint64_t n_frames) {
    const double per_frame =
        static_cast<double>(allocs) / static_cast<double>(n_frames);
    const bool pass = allocs == 0;
    std::printf("  %-24s: %6llu allocations / %llu frames  (%.2f per "
                "frame)  %s\n",
                config, static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(n_frames), per_frame,
                pass ? "OK" : "FAIL");
    ok = ok && pass;
  };

  {
    // Cold per-worker loop: rebind + run_exact, pool recycling only.
    hebs::util::BufferPool pool;
    hebs::util::PoolScope scope(&pool);
    hebs::pipeline::FrameContext ctx(hebs::core::HebsOptions{}, model);
    // Warm-up: two passes fill the free lists and capacity high-water
    // marks (bisection depth varies per frame, so one pass may not
    // visit every bucket the steady state needs).
    (void)measure(clip, 2, [&](const hebs::image::GrayImage& frame) {
      ctx.rebind(frame);
      (void)hebs::pipeline::run_exact(ctx, kBudget);
    });
    const auto allocs =
        measure(clip, 3, [&](const hebs::image::GrayImage& frame) {
          ctx.rebind(frame);
          (void)hebs::pipeline::run_exact(ctx, kBudget);
        });
    report("cold rebind+run_exact", allocs, 3 * frames_per_pass);
    const auto stats = pool.stats();
    std::printf("    pool: %zu hits, %zu misses, %.1f MiB retained\n",
                stats.hits, stats.misses,
                static_cast<double>(stats.retained_bytes) / (1024 * 1024));
  }

  {
    // Temporal fast-path loop (what a stream slot runs).
    hebs::util::BufferPool pool;
    hebs::util::PoolScope scope(&pool);
    hebs::pipeline::FrameContext ctx(hebs::core::HebsOptions{}, model);
    hebs::pipeline::TemporalReuse reuse;
    (void)measure(clip, 2, [&](const hebs::image::GrayImage& frame) {
      (void)reuse.process(ctx, frame, kBudget);
    });
    const auto allocs =
        measure(clip, 3, [&](const hebs::image::GrayImage& frame) {
          (void)reuse.process(ctx, frame, kBudget);
        });
    report("temporal fast path", allocs, 3 * frames_per_pass);
  }

  {
    // Deep-pixel cold loop: the depth-generalized path (N-bin
    // histograms, pool-backed 1024-entry scratch, u16 kernels) must hold
    // the same zero-alloc steady state.  The widened clip is built
    // outside the measured window.
    std::vector<hebs::image::GrayImage16> clip16;
    clip16.reserve(clip.size());
    for (const auto& frame : clip) {
      clip16.push_back(hebs::image::GrayImage16::widen(frame, 1024));
    }
    hebs::util::BufferPool pool;
    hebs::util::PoolScope scope(&pool);
    hebs::pipeline::FrameContext ctx(hebs::core::HebsOptions{}, model);
    const auto run16 = [&](int loops) {
      const std::uint64_t before =
          g_allocations.load(std::memory_order_relaxed);
      for (int pass = 0; pass < loops; ++pass) {
        for (const auto& frame : clip16) {
          ctx.rebind(frame);
          (void)hebs::pipeline::run_exact(ctx, kBudget);
        }
      }
      return g_allocations.load(std::memory_order_relaxed) - before;
    };
    (void)run16(2);
    report("deep 10-bit run_exact", run16(3), 3 * frames_per_pass);
  }

  {
    // BBHE (the depth-generic policy) on the same 10-bit clip.
    std::vector<hebs::image::GrayImage16> clip16;
    clip16.reserve(clip.size());
    for (const auto& frame : clip) {
      clip16.push_back(hebs::image::GrayImage16::widen(frame, 1024));
    }
    hebs::util::BufferPool pool;
    hebs::util::PoolScope scope(&pool);
    hebs::pipeline::FrameContext ctx(hebs::core::HebsOptions{}, model);
    const auto run16 = [&](int loops) {
      const std::uint64_t before =
          g_allocations.load(std::memory_order_relaxed);
      for (int pass = 0; pass < loops; ++pass) {
        for (const auto& frame : clip16) {
          ctx.rebind(frame);
          (void)hebs::pipeline::run_bbhe(ctx, kBudget);
        }
      }
      return g_allocations.load(std::memory_order_relaxed) - before;
    };
    (void)run16(2);
    report("deep 10-bit bbhe", run16(3), 3 * frames_per_pass);
  }

  {
    // The observability contract: counters are always on (every config
    // above already counts), and span tracing must not add allocations
    // either — rings are pre-sized by start_tracing (the one allocating
    // call, outside the measured window), and the record path only
    // stores into them.
    hebs::obs::start_tracing();
    hebs::util::BufferPool pool;
    hebs::util::PoolScope scope(&pool);
    hebs::pipeline::FrameContext ctx(hebs::core::HebsOptions{}, model);
    hebs::pipeline::TemporalReuse reuse;
    (void)measure(clip, 2, [&](const hebs::image::GrayImage& frame) {
      (void)reuse.process(ctx, frame, kBudget);
    });
    const auto allocs =
        measure(clip, 3, [&](const hebs::image::GrayImage& frame) {
          (void)reuse.process(ctx, frame, kBudget);
        });
    hebs::obs::stop_tracing();
    report("temporal + tracing on", allocs, 3 * frames_per_pass);
  }

  // The facade's single-frame path: Session::process on the engine's
  // persistent slot.  The gate is the pool-miss counter — after warm-up
  // no per-frame scratch may need a fresh pool block.  The operator-new
  // count is printed, not gated: each FrameResult's owned rasters and
  // curve vectors leave the pool by design.  The second row runs frames
  // above the speculation floor on a 4-thread session, so the search's
  // idle-worker lanes (and their per-lane pools) are in the loop.
  const auto session_row = [&](const char* name,
                               const std::vector<hebs::image::GrayImage>& c,
                               int threads, bool lanes) {
    auto session = hebs::Session::create(hebs::SessionConfig().threads(threads));
    if (!session) {
      std::fprintf(stderr, "%s\n", session.status().to_string().c_str());
      return false;
    }
    bool decided = true;
    const auto call = [&](const hebs::image::GrayImage& frame) {
      const auto result = session->process(
          {hebs::ImageView::gray8(frame.pixels().data(), frame.width(),
                                  frame.height()),
           kBudget});
      decided = decided && result.has_value() && !result->degraded;
    };
    (void)measure(c, 2, call);
    const hebs::SessionStats before = session->stats();
    const std::uint64_t allocs = measure(c, 3, call);
    const hebs::SessionStats after = session->stats();
    const std::uint64_t fresh = after.pool_fresh - before.pool_fresh;
    const std::uint64_t spec = after.spec_probes - before.spec_probes;
    const auto n_frames = static_cast<std::uint64_t>(3 * c.size());
    // Lanes must actually run wherever two probes can run at once.
    const bool lanes_ran =
        !lanes || spec > 0 ||
        hebs::pipeline::ThreadPool(threads).effective_concurrency() < 2;
    const bool pass = fresh == 0 && decided && lanes_ran;
    std::printf("  %-24s: %6llu fresh pool blocks / %llu frames  %s\n", name,
                static_cast<unsigned long long>(fresh),
                static_cast<unsigned long long>(n_frames),
                pass ? "OK" : "FAIL");
    std::printf("    operator new: %.2f per frame (FrameResult outputs, "
                "not gated); speculative probes: %.2f per frame\n",
                static_cast<double>(allocs) / static_cast<double>(n_frames),
                static_cast<double>(spec) / static_cast<double>(n_frames));
    return pass;
  };
  ok = session_row("Session::process", clip, 0, false) && ok;
  constexpr int kLaneSize = 160;  // above the 128² speculation floor
  const auto lane_clip = hebs::image::make_video_clip(8, kLaneSize);
  ok = session_row("Session::process, lanes", lane_clip, 4, true) && ok;

  // The facade's multi-frame calls: the engine keeps its worker slots
  // (pools, contexts) and the session its staging rasters across calls,
  // so after two warm-up calls a repeated call takes no fresh pool
  // block.  Minor page faults per frame
  // (getrusage) are printed, not gated.  A `lanes` row also requires the
  // batch tail's speculative probes to run wherever two probes can run
  // at once.
  constexpr int kCallThreads = 4;
  const auto call_row = [&](const char* name, std::size_t frames_per_call,
                            const auto& call, bool lanes = false) {
    auto session =
        hebs::Session::create(hebs::SessionConfig().threads(kCallThreads));
    if (!session) {
      std::fprintf(stderr, "%s\n", session.status().to_string().c_str());
      return false;
    }
    bool decided = true;
    for (int warm = 0; warm < 2; ++warm) decided = call(*session) && decided;
    constexpr int kCalls = 3;
    const hebs::SessionStats before = session->stats();
    rusage ru_before{};
    getrusage(RUSAGE_SELF, &ru_before);
    for (int c = 0; c < kCalls; ++c) decided = call(*session) && decided;
    rusage ru_after{};
    getrusage(RUSAGE_SELF, &ru_after);
    const hebs::SessionStats after = session->stats();
    const std::uint64_t fresh = after.pool_fresh - before.pool_fresh;
    const std::uint64_t spec = after.spec_probes - before.spec_probes;
    const auto n_frames = static_cast<std::uint64_t>(kCalls) * frames_per_call;
    const bool lanes_ran =
        !lanes || spec > 0 ||
        hebs::pipeline::ThreadPool(kCallThreads).effective_concurrency() < 2;
    const bool pass = fresh == 0 && decided && lanes_ran;
    std::printf("  %-24s: %6llu fresh pool blocks / %llu frames  %s\n", name,
                static_cast<unsigned long long>(fresh),
                static_cast<unsigned long long>(n_frames),
                pass ? "OK" : "FAIL");
    std::printf("    minor page faults: %.1f per frame (not gated); "
                "speculative probes: %.2f per frame\n",
                static_cast<double>(ru_after.ru_minflt - ru_before.ru_minflt) /
                    static_cast<double>(n_frames),
                static_cast<double>(spec) / static_cast<double>(n_frames));
    return pass;
  };

  // Four 320x180 rgb8 frames: the top rows of square color scenes.
  constexpr int kColorW = 320;
  constexpr int kColorH = 180;
  std::vector<hebs::image::RgbImage> photos;
  for (const auto id : {hebs::image::UsidId::kLena, hebs::image::UsidId::kSail,
                        hebs::image::UsidId::kBaboon,
                        hebs::image::UsidId::kPeppers}) {
    photos.push_back(hebs::image::make_usid_color(id, kColorW));
  }
  std::vector<hebs::ImageView> photo_views;
  for (const auto& p : photos) {
    photo_views.push_back(
        hebs::ImageView::rgb8(p.data().data(), kColorW, kColorH));
  }
  ok = call_row("Session::process_batch_color", photo_views.size(),
                [&](hebs::Session& session) {
                  const auto results =
                      session.process_batch_color(photo_views, kBudget);
                  if (!results) return false;
                  for (const auto& r : *results) {
                    if (r.degraded) return false;
                  }
                  return true;
                }) &&
       ok;

  // One frame above the 128² speculation floor among three below it: the
  // small frames' workers finish first and serve the large frame's probe
  // rounds (the batch tail).  Round members draw from the board's two
  // member pools, warmed once per frame shape.
  constexpr int kSmall = 64;
  std::vector<hebs::image::RgbImage> small;
  for (const auto id :
       {hebs::image::UsidId::kSail, hebs::image::UsidId::kBaboon,
        hebs::image::UsidId::kPeppers}) {
    small.push_back(hebs::image::make_usid_color(id, kSmall));
  }
  std::vector<hebs::ImageView> tail_views{photo_views.front()};
  for (const auto& p : small) {
    tail_views.push_back(
        hebs::ImageView::rgb8(p.data().data(), kSmall, kSmall));
  }
  ok = call_row("process_batch_color, lanes", tail_views.size(),
                [&](hebs::Session& session) {
                  const auto results =
                      session.process_batch_color(tail_views, kBudget);
                  if (!results) return false;
                  for (const auto& r : *results) {
                    if (r.degraded) return false;
                  }
                  return true;
                },
                /*lanes=*/true) &&
       ok;

  std::vector<hebs::ImageView> clip_views;
  for (const auto& frame : clip) {
    clip_views.push_back(hebs::ImageView::gray8(
        frame.pixels().data(), frame.width(), frame.height()));
  }
  ok = call_row("Session::process_video", clip_views.size(),
                [&](hebs::Session& session) {
                  const auto results =
                      session.process_video(clip_views, kBudget);
                  if (!results) return false;
                  for (const auto& r : *results) {
                    if (r.frame.degraded) return false;
                  }
                  return true;
                }) &&
       ok;

  std::printf("\n%s\n", ok ? "steady state is allocation-free"
                           : "FAIL: steady state allocates");
  return ok ? 0 : 1;
}
