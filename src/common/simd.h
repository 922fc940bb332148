// Distance-layer kernels: a runtime-dispatched sorted-set intersection and
// two portable edit-distance functions.
//
// The O(n²) pairwise-distance loop is the system's dominant cost. Its
// inner kernels are exact integer computations: |A ∩ B| of two sorted id
// sets (token/structure/result Jaccard) and the Levenshtein distance of
// two sequences. Only one of them depends on the instruction set — the
// merge of two intersection operands of balanced size — so only that one
// is dispatched:
//   intersect   scalar: branchless merge | AVX2: 8x8 permute block
//               (both gallop when one set is >= 32x the other)
// Myers' bit-parallel edit distance (EditDistanceU32, EditDistanceBytes)
// and galloping are plain C++ and run on every CPU.
//
// Every backend returns the exact count std::set_intersection does, a
// property the test suite enforces on adversarial inputs, so a backend can
// change speed but never a distance.
//
// Dispatch is resolved at runtime, once, from three sources (highest
// priority first):
//   1. an explicit KernelBackend carried in the distance MeasureContext
//      (set from EngineOptions::kernel_backend — per-engine override),
//   2. the DPE_KERNEL_BACKEND environment variable ("scalar", "avx2",
//      "auto") — the CI/testing override,
//   3. CPU feature detection (AVX2 > scalar).
// A backend that is not compiled in or not runnable on this CPU degrades
// to scalar. Engine entry points additionally validate an explicitly
// requested backend so a misconfiguration fails loudly instead of
// silently running scalar.
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
  kScalar = 1,  ///< branchless merge (always available)
  kAvx2 = 2,    ///< AVX2 8x8 block merge
};

/// Stable lowercase name ("auto", "scalar", "avx2").
const char* BackendName(KernelBackend backend);

/// Inverse of BackendName. InvalidArgument otherwise.
Result<KernelBackend> ParseBackend(std::string_view name);

/// One backend's kernel. Every backend returns the exact count.
struct KernelTable {
  KernelBackend backend = KernelBackend::kScalar;

  /// |A ∩ B| of two sorted unique u32 arrays (either may be empty).
  size_t (*intersect)(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb) = nullptr;
};

/// Unit-cost Levenshtein distance between two u32 id sequences (Myers'
/// bit-parallel algorithm; the exact integer the two-row DP computes).
size_t EditDistanceU32(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb);

/// Unit-cost Levenshtein distance between two byte strings.
size_t EditDistanceBytes(const char* a, size_t na, const char* b, size_t nb);

/// Best backend this CPU can run (ignores overrides). kScalar on non-x86
/// or when compiled with DPE_DISABLE_SIMD.
KernelBackend DetectBackend();

/// Backends compiled in AND runnable on this CPU, kScalar first. The
/// property tests iterate this to check every backend against an oracle.
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
/// degrades to scalar (results are identical by construction; use
/// ValidateBackend for loud failure).
const KernelTable& KernelsFor(KernelBackend backend);

/// KernelsFor(kAuto) — the process-wide default table.
inline const KernelTable& Kernels() { return KernelsFor(KernelBackend::kAuto); }

/// The backend Kernels() resolved to (for logging / bench labels).
inline KernelBackend ActiveBackend() { return Kernels().backend; }

}  // namespace dpe::common::simd

#endif  // DPE_COMMON_SIMD_H_
