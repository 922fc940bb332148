// Runtime-dispatched SIMD kernels for the distance hot paths.
//
// The O(n²) pairwise-distance loop is the system's dominant cost, and its
// inner kernels — sorted-id set intersection (token/structure/result
// Jaccard), edit distance over interned id sequences (Levenshtein), the
// argmin reduction over matrix rows (kNN scoring) — are exact
// integer/double computations. That makes a SIMD backend *testable*, not
// approximate: every backend must produce the bit-identical distance the
// scalar reference produces, a property the test suite enforces on
// adversarial inputs.
//
// Dispatch is resolved at runtime, once, from three sources (highest
// priority first):
//   1. an explicit KernelBackend carried in the distance MeasureContext
//      (set from EngineOptions::kernel_backend — per-engine override),
//   2. the DPE_KERNEL_BACKEND environment variable ("scalar", "sse4.2",
//      "avx2", "auto") — the CI/testing override,
//   3. CPU feature detection (AVX2 > SSE4.2 > scalar).
// A backend that is not compiled in or not runnable on this CPU degrades
// to the best runnable one below it — distances are backend-invariant, so
// a fallback can only ever change speed, never results. Engine entry
// points additionally validate an explicitly requested backend so a
// misconfiguration fails loudly instead of silently running scalar.
//
// Kernel/backends matrix (see README "Performance"):
//   intersect   scalar merge | SSE4.2 4x4 shuffle block + gallop
//                            | AVX2 8x8 permute block + gallop
//   edit_u32 /  scalar two-row DP | SSE4.2/AVX2: Myers bit-parallel
//   edit_bytes    (64 DP cells per word op; blocked for length > 64)
//   argmin      scalar scan | AVX2 4-lane compare/blend (SSE4.2 = scalar)
//
// On non-x86 targets only the scalar backend is compiled; building with
// -DDPE_DISABLE_SIMD simulates that on x86 (used by CI to keep the scalar
// fallback honest).

#ifndef DPE_COMMON_SIMD_H_
#define DPE_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dpe::common::simd {

enum class KernelBackend : uint8_t {
  kAuto = 0,    ///< resolve from env, then CPU detection
  kScalar = 1,  ///< portable reference kernels (always available)
  kSse42 = 2,   ///< SSE4.2 block intersection; bit-parallel edit distance
  kAvx2 = 3,    ///< AVX2 everything
};

/// Stable lowercase name ("auto", "scalar", "sse4.2", "avx2").
const char* BackendName(KernelBackend backend);

/// Inverse of BackendName; also accepts "sse42". InvalidArgument otherwise.
Result<KernelBackend> ParseBackend(std::string_view name);

/// Result of an argmin reduction: the minimum value and the *lowest* index
/// attaining it (ties resolve to the earliest element, matching a serial
/// first-min scan).
struct ArgMinResult {
  double value = 0.0;
  size_t index = 0;
};

/// One backend's kernel set. All kernels are pure functions; every backend
/// returns bit-identical results to the scalar entries (exact counts and
/// IEEE doubles — no reassociation of inexact arithmetic anywhere).
struct KernelTable {
  KernelBackend backend = KernelBackend::kScalar;

  /// |A ∩ B| of two sorted unique u32 arrays (either may be empty).
  size_t (*intersect)(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb) = nullptr;
  /// Unit-cost Levenshtein distance between two u32 id sequences — the
  /// exact integer the reference DP computes.
  size_t (*edit_u32)(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb) = nullptr;
  /// Unit-cost Levenshtein distance between two byte strings.
  size_t (*edit_bytes)(const char* a, size_t na, const char* b,
                       size_t nb) = nullptr;
  /// (min value, lowest index attaining it) of v[0..n); n must be >= 1.
  ArgMinResult (*argmin)(const double* v, size_t n) = nullptr;
};

/// Best backend this CPU can run (ignores overrides). kScalar on non-x86
/// or when compiled with DPE_DISABLE_SIMD.
KernelBackend DetectBackend();

/// Backends compiled in AND runnable on this CPU, kScalar first. The
/// property tests iterate this to compare every backend against scalar.
const std::vector<KernelBackend>& RunnableBackends();

/// True when `backend` appears in RunnableBackends() (kAuto is always
/// considered runnable — it resolves to something runnable).
bool BackendIsRunnable(KernelBackend backend);

/// InvalidArgument when an explicitly requested backend cannot run here;
/// OK for kAuto and runnable backends. Engine build entry points call this
/// so a forced backend fails loudly instead of silently degrading.
Status ValidateBackend(KernelBackend backend);

/// Resolves a DPE_KERNEL_BACKEND env value against the detected-best
/// backend: the parsed backend when it is runnable, `detected` otherwise.
/// Every fallback (unparseable value, or a backend above `detected`)
/// increments the `kernel.backend_fallback` counter in the default metrics
/// registry and emits a structured warning through the obs log sink.
/// Factored out of the kAuto resolution path (which caches its answer in a
/// static) so tests can force the fallback repeatably.
KernelBackend ApplyEnvBackendOverride(std::string_view value,
                                      KernelBackend detected);

/// Kernel table for `backend`. kAuto resolves DPE_KERNEL_BACKEND, then
/// DetectBackend(), and caches the answer. A non-runnable explicit backend
/// degrades to the best runnable backend below it (results are identical
/// by construction; use ValidateBackend for loud failure).
const KernelTable& KernelsFor(KernelBackend backend);

/// KernelsFor(kAuto) — the process-wide default table.
inline const KernelTable& Kernels() { return KernelsFor(KernelBackend::kAuto); }

/// The backend Kernels() resolved to (for logging / bench labels).
inline KernelBackend ActiveBackend() { return Kernels().backend; }

}  // namespace dpe::common::simd

#endif  // DPE_COMMON_SIMD_H_
