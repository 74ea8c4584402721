#include "hebs/registry.h"

#include "api/registry_internal.h"
#include "baseline/cbcs.h"
#include "baseline/dls.h"
#include "kernels/kernels.h"

namespace hebs::api {

namespace {

using pipeline::DbsPolicyAdapter;

std::unique_ptr<pipeline::Policy> make_dls(const PolicyEnv& env,
                                           baseline::DlsMode mode) {
  return std::make_unique<DbsPolicyAdapter>(
      std::make_unique<baseline::DlsPolicy>(mode, env.distortion,
                                            env.model));
}

}  // namespace

const std::vector<PolicyInfo>& policy_table() {
  static const std::vector<PolicyInfo> table = {
      {{"hebs-exact",
        "HEBS oracle mode: bisects the dynamic range until the measured "
        "distortion lands on the budget (the Table 1 protocol)"},
       [](const PolicyEnv&) -> std::unique_ptr<pipeline::Policy> {
         return std::make_unique<pipeline::ExactPolicy>();
       },
       /*deep=*/true, /*fixed_range=*/true, /*video=*/true},
      {{"hebs-curve",
        "HEBS deployed mode: range looked up from the distortion "
        "characteristic curve, no metric in the decision loop (Fig. 4)"},
       [](const PolicyEnv& env) -> std::unique_ptr<pipeline::Policy> {
         return std::make_unique<pipeline::CurvePolicy>(env.curve);
       },
       /*deep=*/false, /*fixed_range=*/true},
      {{"dls",
        "DLS baseline [4]: global brightness compensation, backlight "
        "bisected against the shared metric"},
       [](const PolicyEnv& env) {
         return make_dls(env, baseline::DlsMode::kBrightnessCompensation);
       }},
      {{"dls-contrast",
        "DLS baseline [4]: global contrast enhancement, backlight "
        "bisected against the shared metric"},
       [](const PolicyEnv& env) {
         return make_dls(env, baseline::DlsMode::kContrastEnhancement);
       }},
      {{"cbcs",
        "CBCS baseline [5]: histogram band truncation + concurrent "
        "brightness/contrast scaling, grid-searched"},
       [](const PolicyEnv& env) -> std::unique_ptr<pipeline::Policy> {
         return std::make_unique<DbsPolicyAdapter>(
             std::make_unique<baseline::CbcsPolicy>(
                 baseline::CbcsOptions{}, env.distortion, env.model));
       }},
      {{"bbhe",
        "brightness-preserving bi-histogram equalization (Kim 1997): "
        "mean-split per-half equalization, backlight bisected against "
        "the measured distortion budget; depth-generic (8/10/16-bit)"},
       [](const PolicyEnv&) -> std::unique_ptr<pipeline::Policy> {
         return std::make_unique<pipeline::BbhePolicy>();
       },
       /*deep=*/true},
  };
  return table;
}

const std::vector<MetricInfo>& metric_table() {
  using hebs::quality::Metric;
  static const std::vector<MetricInfo> table = {
      {{"uiqi-hvs",
        "UIQI on HVS-transformed rasters (the paper's default measure)"},
       Metric::kUiqiHvs},
      {{"percent-mapped",
        "uiqi-hvs evaluated through the per-level mapped fast path the "
        "deployed pipeline uses (bit-identical to uiqi-hvs)"},
       Metric::kUiqiHvs},
      {{"uiqi", "plain UIQI on pixel values"}, Metric::kUiqi},
      {{"ssim", "SSIM (the paper's stated future-work metric)"},
       Metric::kSsim},
      {{"ssim-hvs", "SSIM on HVS-transformed rasters"}, Metric::kSsimHvs},
      {{"rmse", "root mean squared pixel error, scaled to percent"},
       Metric::kRmse},
      {{"contrast-fidelity", "1 - contrast fidelity (the CBCS measure [5])"},
       Metric::kContrastFidelity},
      {{"ms-ssim", "multi-scale SSIM (viewing-distance robust)"},
       Metric::kMsSsim},
      // Report-only: attached to every color FrameResult (hue_error) so
      // the two color modes are comparable; not a decision metric (the
      // decision loop measures luma, which has no chroma to drift).
      {{"hue-error",
        "mean absolute chromaticity drift of the displayed RGB raster "
        "against the input (color results; report-only)"},
       std::nullopt},
  };
  return table;
}

const PolicyInfo* find_policy(std::string_view name) {
  for (const PolicyInfo& info : policy_table()) {
    if (info.entry.name == name) return &info;
  }
  return nullptr;
}

const MetricInfo* find_metric(std::string_view name) {
  for (const MetricInfo& info : metric_table()) {
    if (info.entry.name == name) return &info;
  }
  return nullptr;
}

}  // namespace hebs::api

namespace hebs {

namespace {

template <typename Table>
std::vector<RegistryEntry> entries_of(const Table& table) {
  std::vector<RegistryEntry> out;
  out.reserve(table.size());
  for (const auto& info : table) out.push_back(info.entry);
  return out;
}

template <typename Table>
std::vector<std::string> names_of(const Table& table) {
  std::vector<std::string> out;
  out.reserve(table.size());
  for (const auto& info : table) out.push_back(info.entry.name);
  return out;
}

}  // namespace

const std::vector<RegistryEntry>& PolicyRegistry::entries() {
  static const std::vector<RegistryEntry> cached =
      entries_of(api::policy_table());
  return cached;
}

std::vector<std::string> PolicyRegistry::names() {
  return names_of(api::policy_table());
}

bool PolicyRegistry::contains(std::string_view name) {
  return api::find_policy(name) != nullptr;
}

const std::vector<RegistryEntry>& MetricRegistry::entries() {
  static const std::vector<RegistryEntry> cached =
      entries_of(api::metric_table());
  return cached;
}

std::vector<std::string> MetricRegistry::names() {
  return names_of(api::metric_table());
}

bool MetricRegistry::contains(std::string_view name) {
  return api::find_metric(name) != nullptr;
}

const std::vector<RegistryEntry>& KernelRegistry::entries() {
  static const std::vector<RegistryEntry> cached = [] {
    std::vector<RegistryEntry> out;
    for (const kernels::BackendInfo& info : kernels::backends()) {
      std::string description = info.set->description;
      if (!info.supported) description += " [not supported by this CPU]";
      out.push_back({info.set->name, std::move(description)});
    }
    return out;
  }();
  return cached;
}

std::vector<std::string> KernelRegistry::names() {
  std::vector<std::string> out;
  for (const kernels::BackendInfo& info : kernels::backends()) {
    out.push_back(info.set->name);
  }
  return out;
}

bool KernelRegistry::contains(std::string_view name) {
  return kernels::find_backend(name) != nullptr;
}

std::string KernelRegistry::active() { return kernels::active().name; }

}  // namespace hebs
