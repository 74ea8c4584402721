// The observability layer's contracts (DESIGN.md §13): deterministic
// counter values on known clips, span nesting well-formedness, trace
// JSON syntax, bit-identity of traced vs untraced runs, the typed
// kIoError on unwritable trace paths, and cross-thread counter
// coherence (this file is part of the TSan suite: every counter is a
// relaxed atomic, every tracer ring is claimed by exactly one thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hebs/advanced/core.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"
#include "hebs/hebs.h"
#include "util/error.h"

namespace {

using hebs::obs::CollectedSpan;
using hebs::obs::Counter;
using hebs::obs::Span;

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

std::vector<hebs::image::GrayImage> static_clip(int frames, int size) {
  return std::vector<hebs::image::GrayImage>(
      static_cast<std::size_t>(frames),
      hebs::image::make_usid(hebs::image::UsidId::kPout, size));
}

hebs::ImageView view_of(const hebs::image::GrayImage& img) {
  return hebs::ImageView::gray8(img.pixels().data(), img.width(),
                                img.height());
}

/// Guard restoring the process-global tracer to "off, empty" whatever a
/// test does (tests share the registry with the whole binary).
struct TracingGuard {
  ~TracingGuard() {
    hebs::obs::stop_tracing();
    hebs::obs::clear_trace();
  }
};

// ----------------------------------------------------------------------
// Counter registry
// ----------------------------------------------------------------------

TEST(ObsCounters, EveryCounterHasANameAndATextLine) {
  const auto snap = hebs::obs::snapshot_counters();
  const std::string text = hebs::obs::counters_text(snap);
  std::size_t lines = 0;
  for (std::size_t c = 0; c < hebs::obs::kCounterCount; ++c) {
    const char* name = hebs::obs::counter_name(static_cast<Counter>(c));
    ASSERT_NE(name, nullptr);
    EXPECT_NE(text.find(name), std::string::npos) << name;
    ++lines;
  }
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            lines);
}

TEST(ObsCounters, DeltaSinceSubtractsTotalsButKeepsGauges) {
  hebs::obs::CounterSnapshot a;
  hebs::obs::CounterSnapshot b;
  a.values[static_cast<std::size_t>(Counter::kRangeProbes)] = 10;
  b.values[static_cast<std::size_t>(Counter::kRangeProbes)] = 25;
  a.values[static_cast<std::size_t>(Counter::kPoolBytesOutstanding)] = 4096;
  b.values[static_cast<std::size_t>(Counter::kPoolBytesOutstanding)] = 1024;
  const auto d = b.delta_since(a);
  EXPECT_EQ(d[Counter::kRangeProbes], 15u);
  // The gauge reports the level at the later snapshot, not a difference
  // (which could underflow when blocks were returned in between).
  EXPECT_EQ(d[Counter::kPoolBytesOutstanding], 1024u);
  EXPECT_TRUE(hebs::obs::counter_is_gauge(Counter::kPoolBytesOutstanding));
  EXPECT_FALSE(hebs::obs::counter_is_gauge(Counter::kRangeProbes));
}

// The documented temporal contract: a static clip of N frames takes the
// byte-identical fast path on every frame after the first.  Level 1 is
// the stream's position check, so the clip runs through the engine.
TEST(ObsCounters, StaticClipCountsNMinusOneByteIdenticalReuses) {
  constexpr int kFrames = 8;
  const auto clip = static_clip(kFrames, 48);
  hebs::pipeline::EngineOptions eopts;
  eopts.num_threads = 1;
  hebs::pipeline::PipelineEngine engine(eopts, model());
  hebs::core::VideoOptions vopts;
  vopts.num_threads = 1;
  const auto before = hebs::obs::snapshot_counters();
  (void)engine.process_stream(clip, vopts);
  const auto d = hebs::obs::snapshot_counters().delta_since(before);
  EXPECT_EQ(d[Counter::kTemporalFrames], static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(d[Counter::kTemporalByteIdentical],
            static_cast<std::uint64_t>(kFrames - 1));
  EXPECT_EQ(d[Counter::kTemporalCold], 1u);
  EXPECT_EQ(d[Counter::kTemporalDeltaRefresh], 0u);
  // Exactly one full search ran (the cold head).
  EXPECT_EQ(d[Counter::kFramesDecided], 1u);
  EXPECT_GT(d[Counter::kRangeProbes], 0u);
}

// ----------------------------------------------------------------------
// Span tracer
// ----------------------------------------------------------------------

/// Spans on one thread must nest like a call stack: sorted by start
/// (ties: longer first), each span either contains or is disjoint from
/// every other.
void expect_well_nested(const std::vector<CollectedSpan>& spans) {
  std::vector<std::pair<std::uint32_t, std::int64_t>> stack;  // (tid, end)
  std::uint32_t tid = 0;
  std::vector<std::int64_t> ends;
  for (const CollectedSpan& s : spans) {
    if (ends.empty() || s.tid != tid) {
      tid = s.tid;
      ends.clear();
    }
    while (!ends.empty() && ends.back() <= s.start_ns) ends.pop_back();
    if (!ends.empty()) {
      EXPECT_LE(s.start_ns + s.dur_ns, ends.back())
          << "span " << hebs::obs::span_name(s.span)
          << " overlaps its enclosing span without nesting";
    }
    ends.push_back(s.start_ns + s.dur_ns);
  }
}

TEST(ObsTrace, DisabledByDefaultAndSpansAreWellNested) {
  TracingGuard guard;
  EXPECT_FALSE(hebs::obs::tracing_enabled());
  { hebs::obs::ScopedSpan untraced(Span::kFrame); }
  EXPECT_TRUE(hebs::obs::collect_trace().empty());

  constexpr int kFrames = 6;
  hebs::obs::start_tracing();
  EXPECT_TRUE(hebs::obs::tracing_enabled());
  hebs::core::VideoOptions vopts;
  vopts.num_threads = 1;
  hebs::core::VideoBacklightController controller(vopts, model());
  (void)controller.process_clip(static_clip(kFrames, 48));
  hebs::obs::stop_tracing();

  const auto spans = hebs::obs::collect_trace();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(hebs::obs::dropped_spans(), 0u);
  std::size_t frames = 0;
  std::size_t reuse = 0;
  std::size_t byte_identical = 0;
  for (const CollectedSpan& s : spans) {
    EXPECT_GE(s.dur_ns, 0);
    if (s.span == Span::kFrame) ++frames;
    if (s.span == Span::kTemporalReuse) {
      ++reuse;
      if (s.arg == 2) ++byte_identical;
    }
  }
  EXPECT_EQ(frames, static_cast<std::size_t>(kFrames));
  EXPECT_EQ(reuse, static_cast<std::size_t>(kFrames));
  // The static clip's reuse levels are visible in the trace itself.
  EXPECT_EQ(byte_identical, static_cast<std::size_t>(kFrames - 1));
  expect_well_nested(spans);
}

TEST(ObsTrace, RingWrapDropsOldestAndCounts) {
  TracingGuard guard;
  hebs::obs::TraceOptions opts;
  opts.max_threads = 2;
  opts.events_per_thread = 16;
  hebs::obs::start_tracing(opts);
  for (int i = 0; i < 100; ++i) {
    hebs::obs::ScopedSpan span(Span::kRangeProbe, i);
  }
  hebs::obs::stop_tracing();
  const auto spans = hebs::obs::collect_trace();
  EXPECT_EQ(spans.size(), 16u);
  EXPECT_EQ(hebs::obs::dropped_spans(), 84u);
  // The ring keeps the newest events (a flight recorder, not a head
  // capture): args of the survivors are the last 16 of the 100.
  for (const CollectedSpan& s : spans) EXPECT_GE(s.arg, 84);
}

// ----------------------------------------------------------------------
// Chrome trace JSON
// ----------------------------------------------------------------------

/// A minimal JSON syntax checker (objects/arrays/strings/numbers/
/// literals, no semantics): enough to prove the exported trace is
/// parseable by a real consumer.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') {
        ++pos_;
      } else if (s_[pos_] == '"') {
        ++pos_;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string temp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

TEST(ObsTrace, ChromeTraceJsonParsesAndNamesEveryStage) {
  TracingGuard guard;
  hebs::obs::start_tracing();
  hebs::core::VideoOptions vopts;
  vopts.num_threads = 1;
  hebs::core::VideoBacklightController controller(vopts, model());
  (void)controller.process_clip(static_clip(4, 48));
  hebs::obs::stop_tracing();

  const std::string path = temp_path("hebs_test_trace.json");
  hebs::obs::write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::remove(path.c_str());

  EXPECT_TRUE(JsonChecker(text).parse()) << "trace JSON does not parse";
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  for (const Span s : {Span::kFrame, Span::kTemporalReuse,
                       Span::kRangeSearch, Span::kFlickerPost}) {
    EXPECT_NE(text.find(std::string("\"") + hebs::obs::span_name(s) + "\""),
              std::string::npos)
        << hebs::obs::span_name(s);
  }
}

TEST(ObsTrace, WriteToUnopenablePathThrowsIoError) {
  TracingGuard guard;
  hebs::obs::start_tracing();
  { hebs::obs::ScopedSpan span(Span::kFrame); }
  hebs::obs::stop_tracing();
  EXPECT_THROW(
      hebs::obs::write_chrome_trace("/nonexistent-dir-hebs/trace.json"),
      hebs::util::IoError);
}

// ----------------------------------------------------------------------
// Bit-identity: tracing must observe, never perturb
// ----------------------------------------------------------------------

TEST(ObsTrace, TracedRunIsBitIdenticalToUntraced) {
  TracingGuard guard;
  const auto clip = hebs::image::make_video_clip(10, 48);
  hebs::core::VideoOptions vopts;
  vopts.num_threads = 1;

  hebs::core::VideoBacklightController untraced(vopts, model());
  const auto want = untraced.process_clip(clip);

  hebs::obs::start_tracing();
  hebs::core::VideoBacklightController traced(vopts, model());
  const auto got = traced.process_clip(clip);
  hebs::obs::stop_tracing();

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].beta, want[i].beta) << i;
    EXPECT_EQ(got[i].raw_beta, want[i].raw_beta) << i;
    EXPECT_EQ(got[i].scene_cut, want[i].scene_cut) << i;
    EXPECT_EQ(got[i].evaluation.distortion_percent,
              want[i].evaluation.distortion_percent)
        << i;
    EXPECT_TRUE(got[i].evaluation.transformed ==
                want[i].evaluation.transformed)
        << i;
  }
}

// ----------------------------------------------------------------------
// Facade: Session::stats(), FrameBreakdown, trace plumbing
// ----------------------------------------------------------------------

TEST(ObsSession, UnwritableTracePathIsATypedIoError) {
  auto session = hebs::Session::create(
      hebs::SessionConfig().trace_path("/nonexistent-dir-hebs/trace.json"));
  ASSERT_FALSE(session.has_value());
  EXPECT_EQ(session.status().code(), hebs::StatusCode::kIoError);
  EXPECT_NE(session.status().message().find("trace path"),
            std::string::npos);
}

TEST(ObsSession, TracePathProducesAParseableTraceAtTeardown) {
  TracingGuard guard;
  const std::string path = temp_path("hebs_session_trace.json");
  const auto img = hebs::image::make_usid(hebs::image::UsidId::kPout, 48);
  {
    auto session =
        hebs::Session::create(hebs::SessionConfig().trace_path(path));
    ASSERT_TRUE(session.has_value()) << session.status().to_string();
    auto result = session->process({view_of(img), 10.0});
    ASSERT_TRUE(result.has_value()) << result.status().to_string();
  }  // teardown writes the trace
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "no trace written to " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_TRUE(JsonChecker(buffer.str()).parse());
  EXPECT_NE(buffer.str().find("\"range-search\""), std::string::npos);
}

TEST(ObsSession, StatsCountFramesAndBreakdownFillsOnSingleFrames) {
  auto session = hebs::Session::create({});
  ASSERT_TRUE(session.has_value());
  const auto img = hebs::image::make_usid(hebs::image::UsidId::kLena, 48);

  auto result = session->process({view_of(img), 10.0});
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->breakdown.collected);
  EXPECT_GT(result->breakdown.decide_ms, 0.0);
  EXPECT_GT(result->breakdown.range_probes, 0u);
  EXPECT_GT(result->breakdown.beta_probes, 0u);
  EXPECT_GT(result->breakdown.range_memo_misses, 0u);

  const auto stats = session->stats();
  EXPECT_EQ(stats.frames_decided, 1u);
  EXPECT_EQ(stats.range_probes, result->breakdown.range_probes);
  const std::string text = stats.to_text();
  EXPECT_NE(text.find("hebs_frames_decided_total 1\n"), std::string::npos);
  EXPECT_TRUE(JsonChecker("1").parse());  // sanity on the checker itself

  // Batch frames run concurrently; their results must say "not
  // collected" rather than carry meaningless attributions.
  auto batch =
      session->process_batch({view_of(img), view_of(img)}, 10.0);
  ASSERT_TRUE(batch.has_value());
  for (const auto& r : *batch) EXPECT_FALSE(r.breakdown.collected);
  EXPECT_EQ(session->stats().frames_decided, 3u);
}

// Cross-thread coherence: an 8-thread batch must count exactly one
// decided frame per image, with every increment arriving from a worker
// thread (TSan runs this file; relaxed atomics must come back clean).
TEST(ObsSession, CountersAreCoherentAcrossWorkerThreads) {
  constexpr std::size_t kImages = 16;
  auto session =
      hebs::Session::create(hebs::SessionConfig().threads(8));
  ASSERT_TRUE(session.has_value());
  const auto img = hebs::image::make_usid(hebs::image::UsidId::kPeppers, 48);
  const std::vector<hebs::ImageView> frames(kImages, view_of(img));
  auto results = session->process_batch(frames, 10.0);
  ASSERT_TRUE(results.has_value());
  const auto stats = session->stats();
  EXPECT_EQ(stats.frames_decided, kImages);
  EXPECT_GE(stats.parallel_for_calls, 1u);
  EXPECT_GE(stats.parallel_for_items, kImages);
}

}  // namespace
