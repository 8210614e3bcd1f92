// SIMD kernel subsystem: runtime-dispatched per-pixel primitives.
//
// The per-pixel loops some backend vectorizes — histogram accumulation,
// 8/16-bit LUT application, BT.601 luma extraction, byte/sample sums,
// Gaussian blur rows/columns, the UIQI window row and the PLC DP column
// step — are reached through a `KernelSet` vtable.  One set per backend
// (scalar, SSE4.2, AVX2, NEON); the backend is chosen once at startup
// from CPU feature detection, overridable through the HEBS_FORCE_BACKEND
// environment variable and SessionConfig::kernel_backend.
//
// Output contract (enforced by the parity fuzz test):
//   * integer kernels are bit-identical across every backend;
//   * float kernels perform the same IEEE-754 operations per element in
//     the same order as the scalar reference, so they are bit-identical
//     too.
//
// The f64 loops no backend vectorizes are plain functions, declared at
// the end of this header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace hebs::kernels {

/// Arguments of one PLC dynamic-program column step (core/plc.cpp).
/// The px/py/s* pointers are the chord-error point and prefix-sum
/// arrays (prefix arrays have one extra leading zero entry); the scalar
/// fields are the i-side values hoisted out of the j loop (p_i and the
/// prefix sums at i+1).  `best`/`parent` are the DP tables, row s
/// starting at s * stride.  Entries of row s below column s are +inf,
/// best[s][s] is finite and row 0 is finite only at column 0, as the DP
/// leaves them.
struct PlcStepArgs {
  const double* px;
  const double* py;
  const double* sx;
  const double* sy;
  const double* sxx;
  const double* syy;
  const double* sxy;
  double pix, piy;
  double sxi, syi, sxxi, syyi, sxyi;
  std::size_t i;          ///< chord endpoint: the DP column being filled
  double* col;            ///< scratch of >= i entries, receives e(j, i)
  double* best;           ///< DP values best[s * stride + j]
  std::size_t* parent;    ///< DP argmins, same layout
  std::size_t stride;     ///< row length (the curve's point count)
  std::size_t rows;       ///< rows 1..rows of column i are filled; <= i
};

/// Dispatch table of the per-pixel hot-path primitives.  All pointers
/// are non-null in every registered set.
struct KernelSet {
  const char* name;         ///< registry key ("scalar", "sse42", ...)
  const char* description;  ///< one-line summary for --list-backends

  // ------------------------------------------------- integer kernels
  /// counts[v] += number of occurrences of v in src[0..n)
  /// (256 bins; counts is accumulated into, not cleared).
  void (*histogram_u8)(const std::uint8_t* src, std::size_t n,
                       std::uint64_t* counts);
  /// dst[i] = lut[src[i]] for a 256-entry 8-bit table.
  void (*lut_apply_u8)(const std::uint8_t* src, std::size_t n,
                       const std::uint8_t* lut, std::uint8_t* dst);
  /// ITU-R BT.601 luma of n interleaved RGB8 pixels:
  /// dst[i] = clamp(round(0.299 R + 0.587 G + 0.114 B), 0, 255).
  void (*luma_bt601_rgb8)(const std::uint8_t* rgb, std::size_t n,
                          std::uint8_t* dst);
  /// Sum of n bytes (exact in 64 bits for any raster < 2^56 pixels).
  std::uint64_t (*sum_u8)(const std::uint8_t* src, std::size_t n);

  // -------------------------------------- deep-pixel integer kernels
  // The u16 twins of the three per-pixel primitives the depth-
  // generalized pipeline needs (10/16-bit content stored as 16-bit
  // samples).  Same shape as the u8 entries: the caller sizes the
  // counts / lut arrays to the frame's level count; every sample is
  // < that count by the GrayImage16 invariant.  All three are pure
  // integer kernels, so backends are trivially bit-identical.
  /// counts[v] += number of occurrences of v in src[0..n)
  /// (caller-sized bins; counts is accumulated into, not cleared).
  void (*histogram_u16)(const std::uint16_t* src, std::size_t n,
                        std::uint64_t* counts);
  /// dst[i] = lut[src[i]] for a caller-sized 16-bit table.
  void (*lut_apply_u16)(const std::uint16_t* src, std::size_t n,
                        const std::uint16_t* lut, std::uint16_t* dst);
  /// Sum of n 16-bit samples (exact in 64 bits for any raster
  /// < 2^48 pixels).
  std::uint64_t (*sum_u16)(const std::uint16_t* src, std::size_t n);

  // ------------------------------ float kernels (Gaussian blur, bit-exact)
  /// One horizontal blur row with clamped borders: for every x,
  /// dst[x] = sum_k taps[k] * src[clamp(x + k - radius, 0, w-1)],
  /// taps accumulated in k order (2*radius+1 taps).
  void (*blur_row_f64)(const double* src, double* dst, int w,
                       const double* taps, int radius);
  /// One vertical blur output row y over the w x h raster `src`:
  /// out_row[x] = sum_k taps[k] * src[clamp(y + k - radius, 0, h-1)][x].
  void (*blur_col_f64)(const double* src, int w, int h, int y,
                       const double* taps, int radius, double* out_row);

  // ------------------- float kernels (per-window / per-candidate,
  //                      elementwise bit-exact; see DESIGN.md §8, §11)
  /// One stride-1 row of UIQI window quality indices.  Window x has its
  /// b / b·b / a·b rectangle sums read from the integral-table row pairs
  ///   rect(x) = bot[x + block] - bot[x] - top[x + block] + top[x]
  /// and its reference-side moments from the cached mean_a/var_a arrays
  /// (the reference/test evaluator split).  q_out[x] receives exactly
  /// the per-window value quality::uiqi_from_stats' scalar loop
  /// computes; the caller owns the strictly serial accumulation over
  /// q_out, so the metric keeps the scalar summation order.
  void (*uiqi_q_row_f64)(const double* mean_a, const double* var_a,
                         const double* b_top, const double* b_bot,
                         const double* bb_top, const double* bb_bot,
                         const double* ab_top, const double* ab_bot,
                         std::size_t n_win, int block, double n_px,
                         double* q_out);
  /// One column of the PLC DP (DESIGN.md §11): col[j] = e(j, i), the
  /// squared error of the chord p_j -> p_i, for every j < i, computed
  /// once; then for s = 1..rows, best[s][i] and parent[s][i] receive
  /// the minimum of best[s-1][j] + col[j] over j < i and its lowest-j
  /// argmin, exactly what a plain ascending scan with strict `<`
  /// returns.  With rows == 1 only col[0] is written: row 0 has no
  /// other finite entry.  Every candidate is formed with the scalar
  /// chord arithmetic, so every backend fills identical tables.
  void (*plc_step_f64)(const PlcStepArgs* args);
};

/// One compiled-in backend plus whether this machine can run it.
struct BackendInfo {
  const KernelSet* set = nullptr;
  bool supported = false;  ///< CPU has the required ISA extensions
};

/// All backends compiled into this build, in preference order
/// (scalar first, widest ISA last).  The scalar backend is always
/// present and always supported.
std::span<const BackendInfo> backends();

/// The compiled-in backend with this name, or nullptr.
const KernelSet* find_backend(std::string_view name);

/// The scalar reference set (always available).
const KernelSet& scalar_kernels();

/// The set every call site dispatches through.  First use selects the
/// widest supported backend, unless HEBS_FORCE_BACKEND names a
/// compiled-in, supported backend (unknown or unsupported names warn on
/// stderr and fall back to auto-detection).
const KernelSet& active();

enum class SetBackendResult {
  kOk,
  kUnknownBackend,      ///< name not compiled into this build
  kUnsupportedBackend,  ///< compiled in, but this CPU lacks the ISA
};

/// Switches the process-global active backend.  Thread-safe; in-flight
/// rasters finish on the set they started with.
SetBackendResult set_backend(std::string_view name);

// ------------------------------------------------------ plain f64 loops
// Not dispatched: the elementwise ones are memory-bound (vector versions
// measured at parity with scalar) and the serial ones would reassociate
// if vectorized, so every backend would run these very loops.  Each has
// one definition (backend_scalar.cpp, compiled with -ffp-contract=off),
// which keeps the serial ones' strictly left-to-right accumulation the
// same under every backend; callers (image means, power integrals, the
// integral-image tables) compare their results bit-exactly across
// configurations and against the seed path.

/// dst[i] = lut[src[i]] for a 256-entry double table.
void lut_apply_f64(const std::uint8_t* src, std::size_t n, const double* lut,
                   double* dst);
/// dst[i] = a[i] * b[i].
void mul_f64(const double* a, const double* b, double* dst, std::size_t n);
/// y[i] = y[i] + a * x[i].
void saxpy_f64(double a, const double* x, double* y, std::size_t n);
/// Left-to-right sum of n doubles.
double sum_f64(const double* v, std::size_t n);
/// Integral-image row step: out[i] = above[i] + (v[0] + ... + v[i]),
/// the running sum accumulated left to right.
void prefix_row_f64(const double* v, const double* above, double* out,
                    std::size_t n);
/// Fused single-raster window-sum row: the sum and sum-of-squares
/// integral rows of v in one sweep (each table's running sum left to
/// right; products v[i]*v[i] are elementwise-exact).
void window_sums_single_f64(const double* v, std::size_t n,
                            const double* above_s, const double* above_ss,
                            double* out_s, double* out_ss);
/// Fused pair window-sum row: the b, b*b and a*b integral rows in one
/// sweep (for PairStats' covariance tables).
void window_sums_pair_f64(const double* a, const double* b, std::size_t n,
                          const double* above_b, const double* above_bb,
                          const double* above_ab, double* out_b,
                          double* out_bb, double* out_ab);

}  // namespace hebs::kernels
