// Seeded facade sweep: every registered policy through every Session
// entry point, at a random bit depth, color mode, thread count, fault
// spec and frame deadline, on small (32–48²) frames.  The contracts it
// holds for every combination:
//   * a call returns results or its documented typed status — it never
//     throws, and whether it succeeds follows from the policy's
//     capabilities alone;
//   * a frame degrades only when a fault or the deadline was armed, and
//     then carries the identity fallback with a typed status;
//   * an injected worker-task fault degrades exactly one frame, and
//     frame_deadline_us = 1 degrades every frame with kDeadlineExceeded,
//     whatever the policy;
//   * unarmed results are bit-identical across thread counts and
//     traced/untraced runs (video with temporal_reuse = false, the
//     unconditional-identity setting — DESIGN.md §9).
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "hebs/advanced/core.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/util.h"
#include "hebs/hebs.h"

namespace {

using hebs::FrameRequest;
using hebs::FrameResult;
using hebs::ImageView;
using hebs::Session;
using hebs::SessionConfig;
using hebs::Status;
using hebs::StatusCode;
using hebs::image::GrayImage;
using hebs::image::GrayImage16;
using hebs::image::RgbImage;
using hebs::image::UsidId;

constexpr const char* kPolicies[] = {"hebs-exact", "hebs-curve", "dls",
                                     "dls-contrast", "cbcs", "bbhe"};

enum class Entry { kProcess, kBatch, kBatchColor, kVideo, kVideoColor };
constexpr Entry kEntries[] = {Entry::kProcess, Entry::kBatch,
                              Entry::kBatchColor, Entry::kVideo,
                              Entry::kVideoColor};

const char* entry_name(Entry e) {
  switch (e) {
    case Entry::kProcess: return "process";
    case Entry::kBatch: return "process_batch";
    case Entry::kBatchColor: return "process_batch_color";
    case Entry::kVideo: return "process_video";
    case Entry::kVideoColor: return "process_video_color";
  }
  return "?";
}

enum class Fault { kNone, kWorkerTask, kPoolAlloc };

struct Case {
  const char* policy = "hebs-exact";
  Entry entry = Entry::kProcess;
  int bit_depth = 8;
  const char* color_mode = "shared-curve";
  int threads = 1;
  Fault fault = Fault::kNone;
  int fault_first = 1;
  std::int64_t deadline_us = 0;
  bool color_output = false;  ///< process() only
  std::vector<UsidId> ids;
  int size = 32;

  bool deep() const { return bit_depth != 8; }
  bool color() const {
    return entry == Entry::kBatchColor || entry == Entry::kVideoColor ||
           (entry == Entry::kProcess && color_output);
  }
  bool armed() const { return fault != Fault::kNone || deadline_us > 0; }

  std::string fault_spec() const {
    switch (fault) {
      case Fault::kNone: return "off";
      case Fault::kWorkerTask:
        return "worker-task:first=" + std::to_string(fault_first);
      case Fault::kPoolAlloc:
        return "pool-alloc:first=" + std::to_string(fault_first);
    }
    return "off";
  }

  std::string describe() const {
    return std::string(policy) + " " + entry_name(entry) +
           " depth=" + std::to_string(bit_depth) + " mode=" + color_mode +
           " threads=" + std::to_string(threads) + " fault=" + fault_spec() +
           " deadline_us=" + std::to_string(deadline_us) +
           (color_output ? " color_output" : "") +
           " frames=" + std::to_string(ids.size()) + "x" +
           std::to_string(size);
  }

  /// The documented outcome: kOk, or the typed status the facade
  /// returns for a request shape the policy does not support.
  StatusCode expected_code() const {
    const std::string p = policy;
    const bool depth_generic = p == "hebs-exact" || p == "bbhe";
    switch (entry) {
      case Entry::kProcess:
      case Entry::kBatch:
        if (deep() && (color() || !depth_generic)) {
          return StatusCode::kInvalidOption;
        }
        return StatusCode::kOk;
      case Entry::kBatchColor:
        return deep() ? StatusCode::kInvalidOption : StatusCode::kOk;
      case Entry::kVideo:
      case Entry::kVideoColor:
        return deep() || p != "hebs-exact" ? StatusCode::kInvalidOption
                                           : StatusCode::kOk;
    }
    return StatusCode::kOk;
  }
};

/// The rasters one case feeds the session, kept alive for its views.
struct Frames {
  std::vector<GrayImage> gray;
  std::vector<GrayImage16> deep;
  std::vector<RgbImage> rgb;
  std::vector<ImageView> views;

  explicit Frames(const Case& c) {
    const int levels = 1 << c.bit_depth;
    for (UsidId id : c.ids) {
      if (c.color()) {
        rgb.push_back(hebs::image::make_usid_color(id, c.size));
      } else if (c.deep()) {
        deep.push_back(
            GrayImage16::widen(hebs::image::make_usid(id, c.size), levels));
      } else {
        gray.push_back(hebs::image::make_usid(id, c.size));
      }
    }
    for (const auto& img : rgb) {
      views.push_back(
          ImageView::rgb8(img.data().data(), img.width(), img.height()));
    }
    for (const auto& img : deep) {
      views.push_back(
          ImageView::gray16(img.pixels().data(), img.width(), img.height()));
    }
    for (const auto& img : gray) {
      views.push_back(
          ImageView::gray8(img.pixels().data(), img.width(), img.height()));
    }
  }
};

/// One call's outcome, normalized across entry points.
struct Outcome {
  Status status;
  std::vector<FrameResult> frames;
  /// Video only: (raw β, applied β, scene cut) per frame.
  std::vector<double> raw_beta;
  std::vector<double> beta;
  std::vector<bool> scene_cut;
};

template <typename T>
void take(hebs::Expected<std::vector<T>>& r, Outcome& out) {
  if (!r) {
    out.status = r.status();
    return;
  }
  for (auto& v : *r) {
    if constexpr (std::is_same_v<T, FrameResult>) {
      out.frames.push_back(std::move(v));
    } else {
      out.raw_beta.push_back(v.raw_beta);
      out.beta.push_back(v.beta);
      out.scene_cut.push_back(v.scene_cut);
      out.frames.push_back(std::move(v.frame));
    }
  }
}

Outcome run_case(const Case& c, const std::string& curve_path, int threads,
                 const std::string& trace_path) {
  SessionConfig cfg;
  cfg.policy(c.policy)
      .bit_depth(c.bit_depth)
      .color_mode(c.color_mode)
      .threads(threads)
      .temporal_reuse(false)
      .frame_deadline_us(c.deadline_us)
      .fault_spec(c.fault_spec())
      .curve_path(curve_path)
      .trace_path(trace_path);
  Outcome out;
  auto session = Session::create(cfg);
  if (!session) {
    out.status = session.status();
    return out;
  }
  const Frames frames(c);
  constexpr double kBudget = 10.0;
  switch (c.entry) {
    case Entry::kProcess: {
      FrameRequest request{frames.views.front(), kBudget};
      request.color_output = c.color_output;
      auto r = session->process(request);
      if (r) {
        out.frames.push_back(std::move(*r));
      } else {
        out.status = r.status();
      }
      break;
    }
    case Entry::kBatch: {
      auto r = session->process_batch(frames.views, kBudget);
      take(r, out);
      break;
    }
    case Entry::kBatchColor: {
      auto r = session->process_batch_color(frames.views, kBudget);
      take(r, out);
      break;
    }
    case Entry::kVideo: {
      auto r = session->process_video(frames.views, kBudget);
      take(r, out);
      break;
    }
    case Entry::kVideoColor: {
      auto r = session->process_video_color(frames.views, kBudget);
      take(r, out);
      break;
    }
  }
  return out;
}

/// Every computed field of two results, bit for bit (the breakdown's
/// wall time is the one field that legitimately varies).
void expect_same(const FrameResult& a, const FrameResult& b,
                 const std::string& where) {
  EXPECT_EQ(a.beta, b.beta) << where;
  EXPECT_EQ(a.g_min, b.g_min) << where;
  EXPECT_EQ(a.g_max, b.g_max) << where;
  EXPECT_EQ(a.lambda, b.lambda) << where;
  EXPECT_EQ(a.phi, b.phi) << where;
  EXPECT_EQ(a.plc_mse, b.plc_mse) << where;
  EXPECT_EQ(a.distortion_percent, b.distortion_percent) << where;
  EXPECT_EQ(a.saving_percent, b.saving_percent) << where;
  EXPECT_EQ(a.power, b.power) << where;
  EXPECT_EQ(a.reference_power, b.reference_power) << where;
  EXPECT_TRUE(a.displayed == b.displayed) << where;
  EXPECT_TRUE(a.displayed16 == b.displayed16) << where;
  EXPECT_TRUE(a.displayed_rgb == b.displayed_rgb) << where;
  EXPECT_EQ(a.hue_error, b.hue_error) << where;
  EXPECT_EQ(a.degraded, b.degraded) << where;
  EXPECT_EQ(a.status.code(), b.status.code()) << where;
}

/// The identity fallback a degraded frame carries.
void expect_identity(const FrameResult& r, const std::string& where) {
  EXPECT_EQ(r.beta, 1.0) << where;
  EXPECT_EQ(r.distortion_percent, 0.0) << where;
  EXPECT_EQ(r.saving_percent, 0.0) << where;
  EXPECT_EQ(r.hue_error, 0.0) << where;
}

class FacadeSweep : public ::testing::Test {
 protected:
  void SetUp() override { hebs::util::fault::clear_all(); }
  void TearDown() override {
    hebs::util::fault::clear_all();
    hebs::obs::clear_trace();  // the traced reruns' spans stay collected
  }

  /// One shared characteristic curve, so hebs-curve sessions load it
  /// instead of characterizing per session.
  static const std::string& curve_path() {
    static const std::string path = [] {
      const std::string p = ::testing::TempDir() + "hebs_facade_sweep.csv";
      hebs::core::DistortionCurve::characterize(
          hebs::image::usid_album(32),
          hebs::core::DistortionCurve::default_ranges(), {},
          hebs::power::LcdSubsystemPower::lp064v1())
          .save(p);
      return p;
    }();
    return path;
  }
};

TEST_F(FacadeSweep, EveryPolicyEntryDepthFaultAndDeadline) {
  constexpr int kRounds = 8;
  constexpr int kThreads[] = {1, 2, 4};
  constexpr int kDeepDepths[] = {10, 16};
  constexpr const char* kModes[] = {"shared-curve", "luma-ratio"};
  const std::string trace = ::testing::TempDir() + "hebs_facade_sweep.json";
  std::mt19937 rng(20261017);
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };

  int compared = 0;
  int degraded_cases = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const char* policy : kPolicies) {
      for (Entry entry : kEntries) {
        Case c;
        c.policy = policy;
        c.entry = entry;
        // Half the cases run 8-bit: only two policies and two entry
        // points decide deep sessions at all.
        c.bit_depth = pick(2) == 0 ? 8 : kDeepDepths[pick(2)];
        c.color_mode = kModes[pick(2)];
        c.threads = kThreads[pick(3)];
        c.color_output = entry == Entry::kProcess && pick(2) == 1;
        c.size = 32 + pick(17);
        const int n = entry == Entry::kProcess ? 1 : 2 + pick(3);
        for (int i = 0; i < n; ++i) {
          c.ids.push_back(hebs::image::kAllUsidIds[static_cast<std::size_t>(
              pick(static_cast<int>(hebs::image::kAllUsidIds.size())))]);
        }
        // Half the cases run unfaulted and three in four without a
        // deadline, so enough stay unarmed for the identity reruns.
        const int fault = pick(4);
        c.fault = fault < 2 ? Fault::kNone : static_cast<Fault>(fault - 1);
        c.fault_first = 1 + pick(n);
        c.deadline_us = pick(4) == 0 ? 1 : 0;
        const std::string where = c.describe();

        Outcome out;
        try {
          out = run_case(c, curve_path(), c.threads, "");
        } catch (const std::exception& e) {
          ADD_FAILURE() << where << ": threw " << e.what();
          continue;
        }
        hebs::util::fault::clear_all();

        ASSERT_EQ(out.status.code(), c.expected_code())
            << where << ": " << out.status.to_string();
        if (!out.status.ok()) continue;
        ASSERT_EQ(out.frames.size(), c.ids.size()) << where;

        int degraded = 0;
        for (std::size_t i = 0; i < out.frames.size(); ++i) {
          const FrameResult& r = out.frames[i];
          const std::string at = where + " frame " + std::to_string(i);
          EXPECT_EQ(r.degraded, !r.status.ok()) << at;
          if (!r.degraded) continue;
          ++degraded;
          EXPECT_TRUE(c.armed()) << at << ": degraded while unarmed: "
                                 << r.status.to_string();
          expect_identity(r, at);
          if (c.fault == Fault::kNone) {
            EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << at;
          } else {
            EXPECT_TRUE(r.status.code() == StatusCode::kDeadlineExceeded ||
                        r.status.code() == StatusCode::kInternal)
                << at << ": " << r.status.to_string();
          }
        }
        const int frames = static_cast<int>(out.frames.size());
        if (c.deadline_us > 0) {
          EXPECT_EQ(degraded, frames) << where;
        } else if (c.fault == Fault::kWorkerTask) {
          EXPECT_EQ(degraded, 1) << where;
        } else if (c.fault == Fault::kPoolAlloc) {
          EXPECT_LE(degraded, 1) << where;
        }
        if (degraded > 0) ++degraded_cases;
        if (c.armed()) continue;

        // Unarmed: rerun at another thread count, traced if the first
        // run was not, and demand the identical answer.
        const int at = c.threads == 1 ? 0 : c.threads == 2 ? 1 : 2;
        const int threads = kThreads[(at + 1 + pick(2)) % 3];
        const Outcome again = run_case(c, curve_path(), threads, trace);
        ASSERT_TRUE(again.status.ok()) << where << " rerun";
        ASSERT_EQ(again.frames.size(), out.frames.size()) << where;
        for (std::size_t i = 0; i < out.frames.size(); ++i) {
          expect_same(out.frames[i], again.frames[i],
                      where + " vs threads=" + std::to_string(threads) +
                          " traced, frame " + std::to_string(i));
        }
        EXPECT_EQ(out.raw_beta, again.raw_beta) << where;
        EXPECT_EQ(out.beta, again.beta) << where;
        EXPECT_EQ(out.scene_cut, again.scene_cut) << where;
        ++compared;
      }
    }
  }
  // The seed must exercise both halves of the contract.
  EXPECT_GT(compared, 10);
  EXPECT_GT(degraded_cases, 10);
}

}  // namespace
