// The scalar backend: the reference KernelSet every other backend is
// measured and parity-tested against.  Always compiled, always
// supported.  Also home to the plain f64 loops of kernels.h, whose one
// definition each is compiled here under this TU's -ffp-contract=off.
#include "kernels/kernels.h"
#include "kernels/kernels_ref.h"

namespace hebs::kernels {

const KernelSet* kernelset_scalar() {
  static const KernelSet set = {
      "scalar",
      "portable reference loops (the bit-exactness baseline)",
      &ref::histogram_u8,
      &ref::lut_apply_u8,
      &ref::luma_bt601_rgb8,
      &ref::sum_u8,
      &ref::histogram_u16,
      &ref::lut_apply_u16,
      &ref::sum_u16,
      &ref::blur_row_f64,
      &ref::blur_col_f64,
      &ref::uiqi_q_row_f64,
      &ref::plc_step_f64,
  };
  return &set;
}

void lut_apply_f64(const std::uint8_t* src, std::size_t n, const double* lut,
                   double* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = lut[src[i]];
}

void mul_f64(const double* a, const double* b, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] * b[i];
}

void saxpy_f64(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + a * x[i];
}

double sum_f64(const double* v, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += v[i];
  return acc;
}

void prefix_row_f64(const double* v, const double* above, double* out,
                    std::size_t n) {
  double row = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    row += v[i];
    out[i] = above[i] + row;
  }
}

void window_sums_single_f64(const double* v, std::size_t n,
                            const double* above_s, const double* above_ss,
                            double* out_s, double* out_ss) {
  double rs = 0.0;
  double rss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = v[i];
    rs += x;
    out_s[i] = above_s[i] + rs;
    rss += x * x;
    out_ss[i] = above_ss[i] + rss;
  }
}

void window_sums_pair_f64(const double* a, const double* b, std::size_t n,
                          const double* above_b, const double* above_bb,
                          const double* above_ab, double* out_b,
                          double* out_bb, double* out_ab) {
  double rb = 0.0;
  double rbb = 0.0;
  double rab = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xb = b[i];
    rb += xb;
    out_b[i] = above_b[i] + rb;
    rbb += xb * xb;
    out_bb[i] = above_bb[i] + rbb;
    rab += a[i] * xb;
    out_ab[i] = above_ab[i] + rab;
  }
}

}  // namespace hebs::kernels
