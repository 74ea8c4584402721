// Whole-LCD-subsystem power accounting.
//
// Combines the CCFL backlight model with the TFT panel model to compute
// the quantities the paper reports: normalized power and power-saving
// percentages (Table 1, Figure 8), and per-clip energy for video
// workloads.
#pragma once

#include <vector>

#include "histogram/histogram.h"
#include "image/image.h"
#include "power/ccfl.h"
#include "power/tft_panel.h"

namespace hebs::power {

/// Per-component power of one displayed frame.
struct PowerBreakdown {
  double ccfl_watts = 0.0;
  double panel_watts = 0.0;
  double total() const noexcept { return ccfl_watts + panel_watts; }
};

/// Power model of the complete display subsystem.
class LcdSubsystemPower {
 public:
  LcdSubsystemPower(CcflModel ccfl, TftPanelModel panel);

  /// The paper's measurement platform (LG Philips LP064V1).
  static LcdSubsystemPower lp064v1();

  /// Power drawn when displaying an image with the given backlight
  /// factor.
  PowerBreakdown frame_power(const hebs::image::GrayImage& frame,
                             double beta) const;

  /// Same, from a precomputed histogram of the displayed frame.
  PowerBreakdown frame_power(const hebs::histogram::Histogram& hist,
                             double beta) const;

  /// Power saving (percent) of displaying `transformed` at backlight β
  /// instead of `original` at full backlight — the quantity in Table 1
  /// and Figure 8.
  double saving_percent(const hebs::image::GrayImage& original,
                        const hebs::image::GrayImage& transformed,
                        double beta) const;

  /// Histogram-based overload (exact and much faster).
  double saving_percent(const hebs::histogram::Histogram& original,
                        const hebs::histogram::Histogram& transformed,
                        double beta) const;

  /// Normalized power: total(F', β) / total(F, 1).
  double normalized_power(const hebs::histogram::Histogram& original,
                          const hebs::histogram::Histogram& transformed,
                          double beta) const;

  /// Energy (joules) of displaying a sequence of frames, each for
  /// `frame_seconds`, at the given per-frame backlight factors.
  double clip_energy_joules(const std::vector<hebs::image::GrayImage>& frames,
                            const std::vector<double>& betas,
                            double frame_seconds) const;

  const CcflModel& ccfl() const noexcept { return ccfl_; }
  const TftPanelModel& panel() const noexcept { return panel_; }

  bool operator==(const LcdSubsystemPower&) const = default;

 private:
  CcflModel ccfl_;
  TftPanelModel panel_;
};

}  // namespace hebs::power
