#include "common/simd.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"

#if !defined(DPE_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define DPE_SIMD_X86 1
#include <immintrin.h>
#else
#define DPE_SIMD_X86 0
#endif

namespace dpe::common::simd {

namespace {

// -- Galloping intersection (every backend) ----------------------------------
//
// When one set is much smaller than the other, a linear merge touches every
// element of the big set; galloping binary-searches each small element in an
// exponentially grown window instead. The count is exact either way, so the
// skew cutoff (a pure function of the sizes) never affects results.

constexpr size_t kGallopSkew = 32;

size_t IntersectGallop(const uint32_t* small, size_t ns, const uint32_t* large,
                       size_t nl) {
  size_t j = 0, count = 0;
  for (size_t i = 0; i < ns && j < nl; ++i) {
    const uint32_t x = small[i];
    // Grow a window [j, j + bound) whose end is the first position >= x.
    size_t bound = 1;
    while (j + bound < nl && large[j + bound] < x) bound <<= 1;
    const size_t hi = std::min(nl, j + bound + 1);
    j = static_cast<size_t>(std::lower_bound(large + j, large + hi, x) - large);
    if (j < nl && large[j] == x) {
      ++count;
      ++j;
    }
  }
  return count;
}

bool Skewed(size_t na, size_t nb) {
  const size_t lo = std::min(na, nb), hi = std::max(na, nb);
  return lo > 0 && hi / lo >= kGallopSkew;
}

size_t IntersectGallopOrdered(const uint32_t* a, size_t na, const uint32_t* b,
                              size_t nb) {
  return na <= nb ? IntersectGallop(a, na, b, nb)
                  : IntersectGallop(b, nb, a, na);
}

// -- Scalar intersection -----------------------------------------------------

// The branchless merge, also the tail of the AVX2 block loop.
size_t MergeScalar(const uint32_t* a, size_t na, const uint32_t* b,
                   size_t nb) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    const uint32_t x = a[i], y = b[j];
    count += static_cast<size_t>(x == y);
    i += static_cast<size_t>(x <= y);
    j += static_cast<size_t>(y <= x);
  }
  return count;
}

size_t IntersectScalar(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb) {
  if (Skewed(na, nb)) return IntersectGallopOrdered(a, na, b, nb);
  return MergeScalar(a, na, b, nb);
}

// -- Myers bit-parallel edit distance (every CPU) ----------------------------
//
// Hyyrö's formulation of Myers' algorithm: one 64-bit word carries 64 DP
// cells as vertical-delta bit vectors, advanced per text symbol with ~15
// word ops; patterns longer than 64 use the blocked variant with the
// horizontal delta carried between words. The score it maintains is the
// exact DP value D[m][j], so the result is the integer the two-row DP
// computes — tested on block-boundary and adversarial inputs.
//
// The symbol alphabet is open-ended (interned u32 token ids), so the
// match-bit table Peq is built per call over the pattern's distinct
// symbols; scratch buffers are thread_local because Distance() runs
// concurrently inside the parallel matrix builder.

struct MyersScratch {
  // Open-addressing symbol -> Peq-row table (power-of-two capacity, linear
  // probing; key stored as sym+1 in a u64 so every u32 symbol is
  // representable and 0 means empty). An unordered_map here costs more than
  // the bit-parallel core for typical SQL token sequences.
  std::vector<uint64_t> keys;
  std::vector<uint32_t> rows;
  std::vector<uint64_t> peq;  // row-major, `blocks` words per row
  std::vector<uint64_t> zero;
  std::vector<uint64_t> pv, mv;
};

template <typename Sym>
size_t MyersEdit(const Sym* a, size_t na, const Sym* b, size_t nb) {
  // The shorter sequence is the pattern: fewer blocks per text symbol.
  // Levenshtein distance is symmetric, so the swap never changes results.
  const Sym* pat = a;
  size_t m = na;
  const Sym* txt = b;
  size_t n = nb;
  if (m > n) {
    std::swap(pat, txt);
    std::swap(m, n);
  }
  if (m == 0) return n;

  const size_t blocks = (m + 63) / 64;
  thread_local MyersScratch s;
  size_t cap = 16;
  while (cap < 2 * m) cap <<= 1;
  s.keys.assign(cap, 0);
  s.rows.resize(cap);
  auto slot_of = [&](uint64_t key) {
    size_t h = static_cast<size_t>(key * 0x9E3779B97F4A7C15ull) & (cap - 1);
    while (s.keys[h] != 0 && s.keys[h] != key) h = (h + 1) & (cap - 1);
    return h;
  };
  s.peq.clear();
  uint32_t row_count = 0;
  for (size_t i = 0; i < m; ++i) {
    const uint64_t key = static_cast<uint64_t>(pat[i]) + 1;
    const size_t slot = slot_of(key);
    if (s.keys[slot] == 0) {
      s.keys[slot] = key;
      s.rows[slot] = row_count++;
      s.peq.resize(s.peq.size() + blocks, 0);
    }
    s.peq[s.rows[slot] * blocks + i / 64] |= 1ull << (i % 64);
  }

  // The score delta of column j is read off the pattern's last row: bit
  // (m-1) % 64 of the top block. Garbage bits above it never flow down —
  // carries and shifts both propagate low-to-high only.
  const uint64_t top_bit = 1ull << ((m - 1) % 64);
  int64_t score = static_cast<int64_t>(m);

  if (blocks == 1) {
    // Single-word fast path (m <= 64 — nearly every SQL token sequence):
    // the generic loop below with blocks == 1 and hin pinned to +1 at the
    // block's entry, constants folded.
    uint64_t pv = ~0ull, mv = 0;
    for (size_t j = 0; j < n; ++j) {
      const uint64_t key = static_cast<uint64_t>(txt[j]) + 1;
      const size_t slot = slot_of(key);
      const uint64_t eq = s.keys[slot] == key ? s.peq[s.rows[slot]] : 0;
      const uint64_t xv = eq | mv;
      const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
      uint64_t ph = mv | ~(xh | pv);
      uint64_t mh = pv & xh;
      score += static_cast<int64_t>((ph >> (m - 1)) & 1) -
               static_cast<int64_t>((mh >> (m - 1)) & 1);
      ph = (ph << 1) | 1;  // hin = +1 (boundary row grows by 1 per column)
      mh <<= 1;
      pv = mh | ~(xv | ph);
      mv = ph & xv;
    }
    return static_cast<size_t>(score);
  }

  s.zero.assign(blocks, 0);
  s.pv.assign(blocks, ~0ull);
  s.mv.assign(blocks, 0);
  for (size_t j = 0; j < n; ++j) {
    const uint64_t key = static_cast<uint64_t>(txt[j]) + 1;
    const size_t slot = slot_of(key);
    const uint64_t* eq_row =
        s.keys[slot] == key ? &s.peq[s.rows[slot] * blocks] : s.zero.data();
    int hin = 1;  // boundary row: D[0][j] - D[0][j-1] = 1
    for (size_t bl = 0; bl < blocks; ++bl) {
      const uint64_t eq = eq_row[bl];
      const uint64_t pv = s.pv[bl], mv = s.mv[bl];
      const uint64_t xv = eq | mv;
      const uint64_t eq_in = eq | (hin < 0 ? 1ull : 0ull);
      const uint64_t xh = (((eq_in & pv) + pv) ^ pv) | eq_in;
      uint64_t ph = mv | ~(xh | pv);
      uint64_t mh = pv & xh;
      const uint64_t out_bit = bl + 1 == blocks ? top_bit : 1ull << 63;
      int hout = 0;
      if (ph & out_bit) {
        hout = 1;
      } else if (mh & out_bit) {
        hout = -1;
      }
      ph <<= 1;
      mh <<= 1;
      if (hin > 0) {
        ph |= 1;
      } else if (hin < 0) {
        mh |= 1;
      }
      s.pv[bl] = mh | ~(xv | ph);
      s.mv[bl] = ph & xv;
      hin = hout;
    }
    score += hin;
  }
  return static_cast<size_t>(score);
}

#if DPE_SIMD_X86

// -- AVX2 8x8 block intersection ---------------------------------------------
//
// Compare an 8-lane block of A against the 8 rotations of an 8-lane block
// of B: every (a, b) lane pair meets exactly once, the OR of the equality
// masks marks A-lanes with a match (each A element matches at most one B
// element — the inputs are unique), and popcount(movemask) counts them.
// Whichever block's max is smaller is exhausted and advances; on equal
// maxes both advance (any cross match involving the consumed elements was
// already counted). The tail falls back to the scalar merge.

__attribute__((target("avx2"))) size_t IntersectAvx2(const uint32_t* a,
                                                     size_t na,
                                                     const uint32_t* b,
                                                     size_t nb) {
  if (Skewed(na, nb)) return IntersectGallopOrdered(a, na, b, nb);
  size_t i = 0, j = 0, count = 0;
  if (i + 8 <= na && j + 8 <= nb) {
    // The 7 non-identity lane rotations of a 256-bit vector of u32.
    const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    const __m256i rot2 = _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1);
    const __m256i rot3 = _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2);
    const __m256i rot4 = _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3);
    const __m256i rot5 = _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4);
    const __m256i rot6 = _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5);
    const __m256i rot7 = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
    while (i + 8 <= na && j + 8 <= nb) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      __m256i any = _mm256_cmpeq_epi32(va, vb);
      any = _mm256_or_si256(
          any, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot1)));
      any = _mm256_or_si256(
          any, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot2)));
      any = _mm256_or_si256(
          any, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot3)));
      any = _mm256_or_si256(
          any, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot4)));
      any = _mm256_or_si256(
          any, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot5)));
      any = _mm256_or_si256(
          any, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot6)));
      any = _mm256_or_si256(
          any, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot7)));
      count += static_cast<size_t>(
          __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(any))));
      const uint32_t amax = a[i + 7], bmax = b[j + 7];
      i += amax <= bmax ? 8 : 0;
      j += bmax <= amax ? 8 : 0;
    }
  }
  return count + MergeScalar(a + i, na - i, b + j, nb - j);
}

#endif  // DPE_SIMD_X86

// -- Backend tables and resolution -------------------------------------------

constexpr KernelTable kScalarTable = {KernelBackend::kScalar, IntersectScalar};

#if DPE_SIMD_X86
constexpr KernelTable kAvx2Table = {KernelBackend::kAvx2, IntersectAvx2};
#endif

const KernelTable& TableOf(KernelBackend backend) {
#if DPE_SIMD_X86
  if (backend == KernelBackend::kAvx2) return kAvx2Table;
#else
  (void)backend;
#endif
  return kScalarTable;
}

KernelBackend DetectBackendUncached() {
#if DPE_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return KernelBackend::kAvx2;
#endif
  return KernelBackend::kScalar;
}

/// DPE_KERNEL_BACKEND if set, parseable and runnable; DetectBackend()
/// otherwise (an unusable value warns once instead of crashing later with
/// an illegal instruction).
KernelBackend ResolveAuto() {
  const KernelBackend detected = DetectBackendUncached();
  const char* env = std::getenv("DPE_KERNEL_BACKEND");
  if (env == nullptr || *env == '\0') return detected;
  return ApplyEnvBackendOverride(env, detected);
}

}  // namespace

size_t EditDistanceU32(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb) {
  return MyersEdit(a, na, b, nb);
}

size_t EditDistanceBytes(const char* a, size_t na, const char* b, size_t nb) {
  // Map char through unsigned char so equal bytes intern to equal symbols
  // regardless of char's signedness.
  return MyersEdit(reinterpret_cast<const unsigned char*>(a), na,
                   reinterpret_cast<const unsigned char*>(b), nb);
}

const char* BackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
      return "auto";
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Result<KernelBackend> ParseBackend(std::string_view name) {
  if (name == "auto") return KernelBackend::kAuto;
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "avx2") return KernelBackend::kAvx2;
  return Status::InvalidArgument(
      "unknown kernel backend '" + std::string(name) +
      "' (expected auto, scalar or avx2)");
}

KernelBackend ApplyEnvBackendOverride(std::string_view value,
                                      KernelBackend detected) {
  // One process-lifetime counter; resolved lazily so the first fallback
  // registers it and later ones reuse the same instrument.
  obs::Counter& fallbacks =
      obs::MetricsRegistry::Default().counter("kernel.backend_fallback");
  const Result<KernelBackend> parsed = ParseBackend(value);
  if (!parsed.ok()) {
    fallbacks.Increment();
    obs::Log(obs::LogLevel::kWarn, "kernel",
             "ignoring unparseable DPE_KERNEL_BACKEND",
             {{"requested", std::string(value)},
              {"resolved", BackendName(detected)},
              {"error", parsed.status().message()}});
    return detected;
  }
  if (*parsed == KernelBackend::kAuto) return detected;
  if (*parsed > detected) {
    fallbacks.Increment();
    obs::Log(obs::LogLevel::kWarn, "kernel",
             "DPE_KERNEL_BACKEND not runnable here; falling back",
             {{"requested", std::string(value)},
              {"resolved", BackendName(detected)}});
    return detected;
  }
  return *parsed;
}

KernelBackend DetectBackend() {
  static const KernelBackend detected = DetectBackendUncached();
  return detected;
}

const std::vector<KernelBackend>& RunnableBackends() {
  static const std::vector<KernelBackend> runnable = [] {
    std::vector<KernelBackend> v{KernelBackend::kScalar};
    if (DetectBackend() == KernelBackend::kAvx2) {
      v.push_back(KernelBackend::kAvx2);
    }
    return v;
  }();
  return runnable;
}

bool BackendIsRunnable(KernelBackend backend) {
  if (backend == KernelBackend::kAuto) return true;
  const std::vector<KernelBackend>& runnable = RunnableBackends();
  return std::find(runnable.begin(), runnable.end(), backend) != runnable.end();
}

Status ValidateBackend(KernelBackend backend) {
  if (BackendIsRunnable(backend)) return Status::OK();
  return Status::InvalidArgument(
      std::string("kernel backend '") + BackendName(backend) +
      "' is not runnable on this CPU/build (detected: " +
      BackendName(DetectBackend()) + ")");
}

const KernelTable& KernelsFor(KernelBackend backend) {
  if (backend == KernelBackend::kAuto) {
    static const KernelTable& resolved = TableOf(ResolveAuto());
    return resolved;
  }
  // An explicit backend that cannot run here degrades to the best runnable
  // one below it — never changes results, only speed (ValidateBackend is
  // the loud path).
  const KernelBackend best = DetectBackend();
  return TableOf(backend <= best ? backend : best);
}

}  // namespace dpe::common::simd
