#include "core/plc.h"

#include <algorithm>
#include <limits>

#include "kernels/kernels.h"
#include "util/error.h"
#include "util/pool.h"

namespace hebs::core {

namespace {

/// O(1) chord-error oracle over a point list, built on prefix sums.
///
/// For the chord from p_j to p_i, the error at an interior point p_k is
/// d_k = (y_k - y_j) - s (x_k - x_j) with s the chord slope; the summed
/// squared error expands into prefix sums of y, y², x, x², xy and cross
/// terms, all precomputable.  The per-candidate arithmetic lives in the
/// kernel layer (plc_scan_f64 / ref::plc_chord_err); this class owns the
/// tables and hoists the i-side terms out of the DP's inner j loop.
class ChordError {
 public:
  explicit ChordError(const hebs::transform::PwlCurve::PointList& pts)
      : px_(pts.size()),
        py_(pts.size()),
        sx_(pts.size() + 1, 0.0),
        sy_(pts.size() + 1, 0.0),
        sxx_(pts.size() + 1, 0.0),
        syy_(pts.size() + 1, 0.0),
        sxy_(pts.size() + 1, 0.0) {
    for (std::size_t k = 0; k < pts.size(); ++k) {
      px_[k] = pts[k].x;
      py_[k] = pts[k].y;
      sx_[k + 1] = sx_[k] + pts[k].x;
      sy_[k + 1] = sy_[k] + pts[k].y;
      sxx_[k + 1] = sxx_[k] + pts[k].x * pts[k].x;
      syy_[k + 1] = syy_[k] + pts[k].y * pts[k].y;
      sxy_[k + 1] = sxy_[k] + pts[k].x * pts[k].y;
    }
  }

  /// Fills the table pointers and the hoisted i-side terms of one scan.
  void fill(hebs::kernels::PlcScanArgs& a, std::size_t i) const {
    a.px = px_.data();
    a.py = py_.data();
    a.sx = sx_.data();
    a.sy = sy_.data();
    a.sxx = sxx_.data();
    a.syy = syy_.data();
    a.sxy = sxy_.data();
    a.pix = px_[i];
    a.piy = py_[i];
    a.sxi = sx_[i + 1];
    a.syi = sy_[i + 1];
    a.sxxi = sxx_[i + 1];
    a.syyi = syy_[i + 1];
    a.sxyi = sxy_[i + 1];
    a.i = i;
  }

 private:
  hebs::util::PoolVector<double> px_, py_;
  hebs::util::PoolVector<double> sx_, sy_, sxx_, syy_, sxy_;
};

/// Candidate-count ceiling for the DP.  The program is O(m n²) (with
/// pruning) in the breakpoint candidates, which is fine on the 8-bit
/// (257-point) and 10-bit (1025-point) lattices but takes tens of
/// seconds on a dense 16-bit curve (65536 points per ghe_transform).
/// Above the cap the candidate set is uniformly decimated — endpoints
/// always kept — before the DP runs.  Lattices at or below the cap are
/// untouched, so u8/u10 results stay byte-for-byte identical.
constexpr std::size_t kMaxDpPoints = 4096;

}  // namespace

PlcResult plc_coarsen(const hebs::transform::PwlCurve& exact, int segments) {
  HEBS_REQUIRE(segments >= 1, "need at least one segment");
  const auto& pts = exact.points();
  const std::size_t n = pts.size();
  HEBS_REQUIRE(n >= 2, "cannot coarsen a degenerate curve");

  if (n > kMaxDpPoints) {
    const std::size_t stride = (n - 2) / (kMaxDpPoints - 1) + 1;
    hebs::util::PoolVector<std::size_t> sel;
    sel.reserve(kMaxDpPoints + 1);
    for (std::size_t i = 0; i + 1 < n; i += stride) sel.push_back(i);
    sel.push_back(n - 1);
    hebs::transform::PwlCurve::PointList sub;
    sub.reserve(sel.size());
    for (std::size_t idx : sel) sub.push_back(pts[idx]);
    PlcResult result =
        plc_coarsen(hebs::transform::PwlCurve(std::move(sub)), segments);
    for (std::size_t& idx : result.breakpoint_indices) idx = sel[idx];
    return result;
  }

  PlcResult result;
  if (static_cast<std::size_t>(segments) >= n - 1) {
    result.curve = exact;
    result.mse = 0.0;
    result.breakpoint_indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) result.breakpoint_indices[i] = i;
    return result;
  }

  const ChordError chord(pts);
  const auto m = static_cast<std::size_t>(segments);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // best[s][i]: minimal squared error of approximating points 0..i with s
  // segments ending exactly at point i.  parent[s][i] reconstructs the
  // chosen breakpoints.  Flat row-per-segment storage keeps the inner
  // loop on two contiguous rows; iterating s outermost consumes row s-1
  // sequentially.
  hebs::util::PoolVector<double> best((m + 1) * n, kInf);
  hebs::util::PoolVector<std::size_t> parent((m + 1) * n, 0);
  best[0] = 0.0;  // best[0][0]
  const auto& kn = hebs::kernels::active();
  for (std::size_t s = 1; s <= m; ++s) {
    const double* prev = best.data() + (s - 1) * n;
    double* cur = best.data() + s * n;
    std::size_t* par = parent.data() + s * n;
    hebs::kernels::PlcScanArgs args;
    args.prev = prev;
    args.j_begin = s - 1;
    for (std::size_t i = s; i < n; ++i) {
      chord.fill(args, i);
      // Seed with the previous column's parent — usually near the
      // optimum, so the kernel's prune bound is tight from the start.
      // The seed is only a performance hint: the kernel always returns
      // the lowest-j argmin.
      args.j_seed = i > s ? par[i - 1] : s - 1;
      std::size_t pj = 0;
      cur[i] = kn.plc_scan_f64(&args, &pj);
      par[i] = pj;
    }
  }

  // The approximation may use fewer than m segments if that is already
  // optimal (extra segments can only help, so take the best s <= m).
  std::size_t best_s = m;
  for (std::size_t s = 1; s <= m; ++s) {
    if (best[s * n + n - 1] < best[best_s * n + n - 1]) best_s = s;
  }
  HEBS_REQUIRE(best[best_s * n + n - 1] < kInf,
               "PLC DP failed to reach the end");

  hebs::util::PoolVector<std::size_t> chosen;
  std::size_t i = n - 1;
  std::size_t s = best_s;
  while (true) {
    chosen.push_back(i);
    if (s == 0) break;
    i = parent[s * n + i];
    --s;
  }
  std::reverse(chosen.begin(), chosen.end());

  hebs::transform::PwlCurve::PointList qpts;
  qpts.reserve(chosen.size());
  for (std::size_t idx : chosen) qpts.push_back(pts[idx]);

  result.curve = hebs::transform::PwlCurve(std::move(qpts));
  result.mse = best[best_s * n + n - 1] / static_cast<double>(n);
  result.breakpoint_indices = std::move(chosen);
  return result;
}

}  // namespace hebs::core
