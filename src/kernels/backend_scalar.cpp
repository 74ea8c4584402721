// The scalar backend: the reference KernelSet every other backend is
// measured and parity-tested against.  Always compiled, always
// supported.
#include "kernels/kernels.h"

#include <cmath>

#include "kernels/kernels_ref.h"

namespace hebs::kernels {

const KernelSet* kernelset_scalar() {
  static const KernelSet set = {
      "scalar",
      "portable reference loops (the bit-exactness baseline)",
      &ref::histogram_u8,
      &ref::lut_apply_u8,
      &ref::lut_apply_rgb8,
      &ref::luma_bt601_rgb8,
      &ref::sum_u8,
      &ref::lut_apply_u16,
      &ref::sum_u16,
      &ref::blur_row_f64,
      &ref::blur_col_f64,
      &ref::sum_f64,
      &ref::prefix_row_f64,
      &ref::window_sums_single_f64,
      &ref::window_sums_pair_f64,
      &ref::uiqi_q_row_f64,
      &ref::plc_scan_f64,
  };
  return &set;
}

void histogram_u16(const std::uint16_t* src, std::size_t n,
                   std::uint64_t* counts) {
  ref::histogram_u16(src, n, counts);
}

void lut_apply_f64(const std::uint8_t* src, std::size_t n, const double* lut,
                   double* dst) {
  ref::lut_apply_f64(src, n, lut, dst);
}

void mul_f64(const double* a, const double* b, double* dst, std::size_t n) {
  ref::mul_f64(a, b, dst, n);
}

void saxpy_f64(double a, const double* x, double* y, std::size_t n) {
  ref::saxpy_f64(a, x, y, n);
}

bool exact_reciprocal(double n) {
  int e = 0;
  return std::isfinite(n) && std::frexp(n, &e) == 0.5 && e > -1000 &&
         e < 1000;
}

}  // namespace hebs::kernels
