#ifndef GVA_BACKEND_BACKEND_H_
#define GVA_BACKEND_BACKEND_H_

#include <cstddef>
#include <vector>

namespace gva::backend {

/// Elements per abandon-check block of the z-normalized distance kernel.
/// Every backend builds the one kernel in distance_kernel.h, which checks
/// the abandon limit at exactly this granularity and sums in one fixed
/// order, so values and abandon decisions are the same bits on every
/// backend (DESIGN.md §11). SubsequenceDistance::kBlock aliases this.
inline constexpr size_t kDistanceBlock = 16;

/// Stable identifiers exported through the `backend.selected` gauge.
/// Gauge value 0 means "no backend selected yet", so ids start at 1.
enum class BackendId : int { kScalar = 1, kAvx2 = 2 };

/// A table of kernel implementations — the ggml-style seam between the
/// algorithm layer (the discord searches' distance oracle) and
/// ISA-specific builds. All ISA-specific code in the tree lives behind
/// this table, under src/backend/ (enforced by the `simd-intrinsics` lint
/// rule). A future GPU/OpenCL backend is one more table (plus staging
/// buffers), not a rewrite of the call sites.
struct KernelBackend {
  /// Stable lowercase name ("scalar", "avx2"), printed by gva_cli and
  /// /healthz and used as kernel_bench row suffixes.
  const char* name;
  BackendId id;

  /// Fused squared-Euclidean pass between a query that is already
  /// z-normalized, za[0..length), and a window b[0..length) normalized on
  /// the fly: accumulates (za[i] - (b[i]-mean_b)*inv_b)^2 with an abandon
  /// check against `limit_sq` once per kDistanceBlock elements plus once
  /// after the tail. The caller computes za[i] = (a[i]-mean_a)*inv_a once
  /// per scan, the same expression the kernel applies to b, so a query
  /// normalized ahead of time contributes the same bits as one normalized
  /// here would. Passing limit_sq == +infinity disables the checks
  /// (full-length path). Returns true when the scan completed — *sum_sq
  /// then holds the squared distance — and false when the running sum
  /// reached limit_sq (early abandon; *sum_sq untouched). The summation
  /// order is fixed by distance_kernel.h and is the same on every backend,
  /// so every backend returns the same bits, and a non-abandoned limited
  /// call returns the same bits as the unlimited call.
  bool (*znorm_distance_block)(const double* za, const double* b,
                               size_t length, double mean_b, double inv_b,
                               double limit_sq, double* sum_sq);
};

/// The distance kernel built at the baseline ISA (SSE2 on x86-64, NEON on
/// aarch64). Always available.
const KernelBackend* ScalarBackend();

/// The distance kernel built with AVX2. Null when the compiler cannot
/// target AVX2 or the CPU lacks it.
const KernelBackend* Avx2Backend();

/// Available backends in preference order (fastest first, scalar always
/// last). Never empty.
std::vector<const KernelBackend*> AvailableBackends();

/// The process-wide backend used by default-constructed oracles: the first
/// entry of AvailableBackends(), resolved once on first use, when it is
/// recorded in the `backend.selected` gauge: the CPU decides.
/// Thread-safe.
const KernelBackend& ActiveBackend();

/// Test seam: makes `backend` the active one, so a test can run whole
/// searches under each build in one process. Affects oracles constructed
/// afterwards, not ones already holding the previous backend. Only tests
/// call it.
void SetActiveBackend(const KernelBackend& backend);

}  // namespace gva::backend

#endif  // GVA_BACKEND_BACKEND_H_
