// Property tests for the distance-layer kernels. Every backend compiled in
// AND runnable on this CPU must return the exact intersection count
// std::set_intersection does, on adversarial inputs — empty inputs,
// disjoint and identical sets, 1-element-vs-huge skew (the galloping
// path), and sizes straddling the 8-lane AVX2 block. Myers' edit distance
// must equal the Levenshtein measure's two-row DP (distance::EditDistance)
// at the 64-bit word boundaries, over bytes and over an open u32 alphabet.
// On a scalar-only build (non-x86 or -DDPE_DISABLE_SIMD) the backend loops
// run scalar alone and still check it against the oracle.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "distance/levenshtein_distance.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace dpe::common::simd {
namespace {

uint64_t FallbackCount() {
  return obs::MetricsRegistry::Default()
      .counter("kernel.backend_fallback")
      .value();
}

TEST(BackendOverrideTest, RequestAboveDetectedFallsBackWithWarning) {
  std::vector<obs::LogRecord> captured;
  obs::ScopedLogSink sink(
      [&captured](const obs::LogRecord& r) { captured.push_back(r); });
  const uint64_t before = FallbackCount();

  const KernelBackend resolved =
      ApplyEnvBackendOverride("avx2", KernelBackend::kScalar);

  EXPECT_EQ(resolved, KernelBackend::kScalar);
  EXPECT_EQ(FallbackCount(), before + 1);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].level, obs::LogLevel::kWarn);
  EXPECT_EQ(captured[0].component, "kernel");
  ASSERT_GE(captured[0].fields.size(), 2u);
  EXPECT_EQ(captured[0].fields[0], (std::pair<std::string, std::string>{
                                       "requested", "avx2"}));
  EXPECT_EQ(captured[0].fields[1], (std::pair<std::string, std::string>{
                                       "resolved", "scalar"}));
}

TEST(BackendOverrideTest, UnparseableValueFallsBackWithWarning) {
  std::vector<obs::LogRecord> captured;
  obs::ScopedLogSink sink(
      [&captured](const obs::LogRecord& r) { captured.push_back(r); });
  const uint64_t before = FallbackCount();

  // "sse4.2" is not a backend name.
  const KernelBackend resolved =
      ApplyEnvBackendOverride("sse4.2", KernelBackend::kAvx2);

  EXPECT_EQ(resolved, KernelBackend::kAvx2);
  EXPECT_EQ(FallbackCount(), before + 1);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].level, obs::LogLevel::kWarn);
  // The warning carries the parse error, not just the names.
  ASSERT_EQ(captured[0].fields.size(), 3u);
  EXPECT_EQ(captured[0].fields[2].first, "error");
}

TEST(BackendOverrideTest, RunnableRequestIsHonoredSilently) {
  std::vector<obs::LogRecord> captured;
  obs::ScopedLogSink sink(
      [&captured](const obs::LogRecord& r) { captured.push_back(r); });
  const uint64_t before = FallbackCount();

  EXPECT_EQ(ApplyEnvBackendOverride("scalar", DetectBackend()),
            KernelBackend::kScalar);
  EXPECT_EQ(ApplyEnvBackendOverride("auto", DetectBackend()),
            DetectBackend());

  EXPECT_EQ(FallbackCount(), before);
  EXPECT_TRUE(captured.empty());
}

std::vector<uint32_t> SortedUnique(std::mt19937& rng, size_t target,
                                   uint32_t max_value) {
  std::set<uint32_t> s;
  std::uniform_int_distribution<uint32_t> value(0, max_value);
  // max_value + 1 distinct values exist; don't loop forever asking for more.
  const size_t reachable = std::min<size_t>(target, max_value + 1);
  while (s.size() < reachable) s.insert(value(rng));
  return {s.begin(), s.end()};
}

size_t ReferenceIntersect(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

TEST(BackendResolutionTest, NamesRoundTrip) {
  for (KernelBackend b :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2}) {
    auto parsed = ParseBackend(BackendName(b));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_EQ(ParseBackend("sse4.2").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseBackend("neon").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseBackend("").status().code(), StatusCode::kInvalidArgument);
}

TEST(BackendResolutionTest, ScalarIsAlwaysRunnableAndFirst) {
  const auto& runnable = RunnableBackends();
  ASSERT_FALSE(runnable.empty());
  EXPECT_EQ(runnable.front(), KernelBackend::kScalar);
  EXPECT_TRUE(BackendIsRunnable(KernelBackend::kScalar));
  EXPECT_TRUE(BackendIsRunnable(KernelBackend::kAuto));
  EXPECT_TRUE(BackendIsRunnable(DetectBackend()));
  EXPECT_TRUE(ValidateBackend(KernelBackend::kAuto).ok());
  EXPECT_TRUE(ValidateBackend(KernelBackend::kScalar).ok());
}

TEST(BackendResolutionTest, TablesReportTheirBackendAndAutoResolves) {
  for (KernelBackend b : RunnableBackends()) {
    EXPECT_EQ(KernelsFor(b).backend, b);
  }
  // The auto table is one of the runnable ones.
  EXPECT_TRUE(BackendIsRunnable(Kernels().backend));
  EXPECT_NE(Kernels().backend, KernelBackend::kAuto);
}

TEST(IntersectKernelTest, AdversarialCasesAreExactOnEveryBackend) {
  const std::vector<uint32_t> empty;
  std::vector<uint32_t> ramp(100);
  for (uint32_t i = 0; i < 100; ++i) ramp[i] = 3 * i;
  std::vector<uint32_t> odd(100);
  for (uint32_t i = 0; i < 100; ++i) odd[i] = 3 * i + 1;  // fully disjoint
  const std::vector<uint32_t> one{150};  // gallops into ramp (hit: 150=3*50)

  for (KernelBackend b : RunnableBackends()) {
    const KernelTable& k = KernelsFor(b);
    auto isect = [&](const std::vector<uint32_t>& x,
                     const std::vector<uint32_t>& y) {
      return k.intersect(x.data(), x.size(), y.data(), y.size());
    };
    EXPECT_EQ(isect(empty, empty), 0u) << BackendName(b);
    EXPECT_EQ(isect(empty, ramp), 0u) << BackendName(b);
    EXPECT_EQ(isect(ramp, empty), 0u) << BackendName(b);
    EXPECT_EQ(isect(ramp, ramp), 100u) << BackendName(b);  // identical
    EXPECT_EQ(isect(ramp, odd), 0u) << BackendName(b);     // disjoint
    EXPECT_EQ(isect(one, ramp), 1u) << BackendName(b);     // 1 vs huge
    EXPECT_EQ(isect(ramp, one), 1u) << BackendName(b);
  }
}

TEST(IntersectKernelTest, SizesStraddlingSimdWidthAreExact) {
  std::mt19937 rng(20260729);
  for (size_t na : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u,
                    32u, 33u, 64u}) {
    for (size_t nb : {0u, 1u, 3u, 4u, 5u, 8u, 9u, 16u, 17u, 33u, 100u}) {
      for (uint32_t density : {8u, 40u, 1000u}) {
        const auto a = SortedUnique(rng, na, density);
        const auto b = SortedUnique(rng, nb, density);
        const size_t expect = ReferenceIntersect(a, b);
        for (KernelBackend backend : RunnableBackends()) {
          const KernelTable& k = KernelsFor(backend);
          EXPECT_EQ(k.intersect(a.data(), a.size(), b.data(), b.size()),
                    expect)
              << BackendName(backend) << " na=" << a.size()
              << " nb=" << b.size() << " density=" << density;
        }
      }
    }
  }
}

TEST(IntersectKernelTest, SkewedSizesTakeTheGallopPathAndStayExact) {
  std::mt19937 rng(42);
  const auto big = SortedUnique(rng, 4096, 100000);
  for (size_t ns : {1u, 2u, 5u, 16u, 33u, 127u}) {
    // Half the small set drawn from big (guaranteed hits), half random.
    std::set<uint32_t> small_set;
    std::uniform_int_distribution<size_t> pick(0, big.size() - 1);
    std::uniform_int_distribution<uint32_t> any(0, 100000);
    while (small_set.size() < ns / 2 + 1) small_set.insert(big[pick(rng)]);
    while (small_set.size() < ns) small_set.insert(any(rng));
    const std::vector<uint32_t> small(small_set.begin(), small_set.end());
    const size_t expect = ReferenceIntersect(small, big);
    for (KernelBackend b : RunnableBackends()) {
      const KernelTable& k = KernelsFor(b);
      EXPECT_EQ(k.intersect(small.data(), small.size(), big.data(),
                            big.size()),
                expect)
          << BackendName(b) << " ns=" << small.size();
      EXPECT_EQ(k.intersect(big.data(), big.size(), small.data(),
                            small.size()),
                expect)
          << BackendName(b) << " (swapped) ns=" << small.size();
    }
  }
}

size_t EditBytes(const std::string& a, const std::string& b) {
  return EditDistanceBytes(a.data(), a.size(), b.data(), b.size());
}

TEST(EditKernelTest, KnownDistances) {
  struct Case {
    std::string a, b;
    size_t d;
  };
  const std::vector<Case> cases = {
      {"", "", 0},         {"", "abc", 3},       {"abc", "", 3},
      {"abc", "abc", 0},   {"kitten", "sitting", 3},
      {"abc", "xyz", 3},   {"ab", "ba", 2},      {"a", "ab", 1},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(EditBytes(c.a, c.b), c.d) << "'" << c.a << "' vs '" << c.b << "'";
  }
}

TEST(EditKernelTest, WordBoundaryLengthsMatchTheDp) {
  // The Myers kernel switches to multi-word bookkeeping past 64 symbols:
  // lengths 63/64/65 and 127/128/129 are where a carry or top-bit bug
  // would show. Compare against the DP on random strings over a small
  // alphabet (maximizing matches, the hard case for Peq handling), and
  // over bytes above 0x7f (a signed char must not split a symbol).
  std::mt19937 rng(7);
  for (int high : {0, 1}) {
    std::uniform_int_distribution<int> sym(high ? 0xfc : 'a',
                                           high ? 0xff : 'd');
    for (size_t la : {1u, 31u, 63u, 64u, 65u, 100u, 127u, 128u, 129u, 200u}) {
      for (size_t lb : {0u, 1u, 63u, 64u, 65u, 129u}) {
        std::string a(la, 'x'), b(lb, 'x');
        for (char& c : a) c = static_cast<char>(sym(rng));
        for (char& c : b) c = static_cast<char>(sym(rng));
        const size_t expect = distance::EditDistance(a, b);
        EXPECT_EQ(EditBytes(a, b), expect) << "la=" << la << " lb=" << lb;
        // Symmetry (the kernel may swap pattern/text internally).
        EXPECT_EQ(EditBytes(b, a), expect)
            << "swapped la=" << la << " lb=" << lb;
      }
    }
  }
}

TEST(EditKernelTest, U32SequencesWithOpenAlphabetMatchTheDp) {
  // Interned token ids: sparse, unbounded alphabet — exercises the hashed
  // Peq rows (including text symbols absent from the pattern).
  std::mt19937 rng(13);
  for (int round = 0; round < 60; ++round) {
    std::uniform_int_distribution<size_t> len(0, 150);
    std::uniform_int_distribution<uint32_t> sym(0, round % 2 ? 5 : 1000000);
    std::vector<uint32_t> a(len(rng)), b(len(rng));
    for (uint32_t& v : a) v = sym(rng);
    for (uint32_t& v : b) v = sym(rng);
    EXPECT_EQ(EditDistanceU32(a.data(), a.size(), b.data(), b.size()),
              distance::EditDistance(a, b))
        << "round " << round;
  }
}

}  // namespace
}  // namespace dpe::common::simd
