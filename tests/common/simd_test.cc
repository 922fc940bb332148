// Property tests for the runtime-dispatched SIMD kernel backend: every
// backend compiled in AND runnable on this CPU must return bit-identical
// results to the scalar reference kernels, on adversarial inputs — empty
// inputs, disjoint and identical sets, 1-element-vs-huge skew (the
// galloping path), and sizes straddling every SIMD width (4/8 lanes for
// the intersection, the 64-bit word boundary for the Myers edit kernel).
// On a scalar-only build (non-x86 or -DDPE_DISABLE_SIMD) the loops
// degenerate to scalar-vs-scalar and still pass — that is the point.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

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

  const KernelBackend resolved =
      ApplyEnvBackendOverride("bogus", KernelBackend::kSse42);

  EXPECT_EQ(resolved, KernelBackend::kSse42);
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
  for (KernelBackend b : {KernelBackend::kAuto, KernelBackend::kScalar,
                          KernelBackend::kSse42, KernelBackend::kAvx2}) {
    auto parsed = ParseBackend(BackendName(b));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_TRUE(ParseBackend("sse42").ok());  // alias
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

TEST(IntersectKernelTest, AdversarialCasesMatchScalarOnEveryBackend) {
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

TEST(IntersectKernelTest, SizesStraddlingSimdWidthMatchScalar) {
  std::mt19937 rng(20260729);
  const KernelTable& scalar = KernelsFor(KernelBackend::kScalar);
  for (size_t na : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u,
                    32u, 33u, 64u}) {
    for (size_t nb : {0u, 1u, 3u, 4u, 5u, 8u, 9u, 16u, 17u, 33u, 100u}) {
      for (uint32_t density : {8u, 40u, 1000u}) {
        const auto a = SortedUnique(rng, na, density);
        const auto b = SortedUnique(rng, nb, density);
        const size_t expect = ReferenceIntersect(a, b);
        ASSERT_EQ(scalar.intersect(a.data(), a.size(), b.data(), b.size()),
                  expect);
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

TEST(EditKernelTest, KnownDistancesOnEveryBackend) {
  struct Case {
    std::string a, b;
    size_t d;
  };
  const std::vector<Case> cases = {
      {"", "", 0},         {"", "abc", 3},       {"abc", "", 3},
      {"abc", "abc", 0},   {"kitten", "sitting", 3},
      {"abc", "xyz", 3},   {"ab", "ba", 2},      {"a", "ab", 1},
  };
  for (KernelBackend backend : RunnableBackends()) {
    const KernelTable& k = KernelsFor(backend);
    for (const Case& c : cases) {
      EXPECT_EQ(k.edit_bytes(c.a.data(), c.a.size(), c.b.data(), c.b.size()),
                c.d)
          << BackendName(backend) << " '" << c.a << "' vs '" << c.b << "'";
    }
  }
}

TEST(EditKernelTest, WordBoundaryLengthsMatchScalarDp) {
  // The Myers kernel switches to multi-word bookkeeping past 64 symbols:
  // lengths 63/64/65 and 127/128/129 are where a carry or top-bit bug
  // would show. Compare against the scalar DP on random strings over a
  // small alphabet (maximizing matches, the hard case for Peq handling).
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> sym('a', 'd');
  const KernelTable& scalar = KernelsFor(KernelBackend::kScalar);
  for (size_t la : {1u, 31u, 63u, 64u, 65u, 100u, 127u, 128u, 129u, 200u}) {
    for (size_t lb : {0u, 1u, 63u, 64u, 65u, 129u}) {
      std::string a(la, 'x'), b(lb, 'x');
      for (char& c : a) c = static_cast<char>(sym(rng));
      for (char& c : b) c = static_cast<char>(sym(rng));
      const size_t expect =
          scalar.edit_bytes(a.data(), la, b.data(), lb);
      for (KernelBackend backend : RunnableBackends()) {
        const KernelTable& k = KernelsFor(backend);
        EXPECT_EQ(k.edit_bytes(a.data(), la, b.data(), lb), expect)
            << BackendName(backend) << " la=" << la << " lb=" << lb;
        // Symmetry (the kernel may swap pattern/text internally).
        EXPECT_EQ(k.edit_bytes(b.data(), lb, a.data(), la), expect)
            << BackendName(backend) << " swapped la=" << la << " lb=" << lb;
      }
    }
  }
}

TEST(EditKernelTest, U32SequencesWithOpenAlphabetMatchScalarDp) {
  // Interned token ids: sparse, unbounded alphabet — exercises the hashed
  // Peq rows (including text symbols absent from the pattern).
  std::mt19937 rng(13);
  const KernelTable& scalar = KernelsFor(KernelBackend::kScalar);
  for (int round = 0; round < 60; ++round) {
    std::uniform_int_distribution<size_t> len(0, 150);
    std::uniform_int_distribution<uint32_t> sym(0, round % 2 ? 5 : 1000000);
    std::vector<uint32_t> a(len(rng)), b(len(rng));
    for (uint32_t& v : a) v = sym(rng);
    for (uint32_t& v : b) v = sym(rng);
    const size_t expect =
        scalar.edit_u32(a.data(), a.size(), b.data(), b.size());
    for (KernelBackend backend : RunnableBackends()) {
      const KernelTable& k = KernelsFor(backend);
      EXPECT_EQ(k.edit_u32(a.data(), a.size(), b.data(), b.size()), expect)
          << BackendName(backend) << " round " << round;
    }
  }
}

TEST(ArgMinKernelTest, TiesResolveToTheLowestIndexOnEveryBackend) {
  // All-equal rows, duplicated minima at lane boundaries, and the minimum
  // planted at every position of an 19-element row.
  for (KernelBackend backend : RunnableBackends()) {
    const KernelTable& k = KernelsFor(backend);
    const std::vector<double> flat(17, 0.25);
    ArgMinResult r = k.argmin(flat.data(), flat.size());
    EXPECT_EQ(r.value, 0.25) << BackendName(backend);
    EXPECT_EQ(r.index, 0u) << BackendName(backend);

    for (size_t pos = 0; pos < 19; ++pos) {
      std::vector<double> v(19, 0.5);
      v[pos] = 0.125;
      v[(pos + 7) % 19] = pos == (pos + 7) % 19 ? 0.125 : 0.25;
      r = k.argmin(v.data(), v.size());
      EXPECT_EQ(r.value, 0.125) << BackendName(backend) << " pos=" << pos;
      EXPECT_EQ(r.index, pos) << BackendName(backend) << " pos=" << pos;
      // Duplicate the minimum later: the earlier index must still win.
      v[18] = 0.125;
      r = k.argmin(v.data(), v.size());
      EXPECT_EQ(r.index, std::min<size_t>(pos, 18))
          << BackendName(backend) << " pos=" << pos;
    }
  }
}

TEST(ArgMinKernelTest, RandomRowsMatchScalarAcrossWidths) {
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> value(0.0, 1.0);
  // Few distinct values => frequent exact ties, the adversarial case.
  std::uniform_int_distribution<int> coarse(0, 3);
  const KernelTable& scalar = KernelsFor(KernelBackend::kScalar);
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 16u, 17u, 64u, 65u,
                   257u}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<double> v(n);
      for (double& d : v) {
        d = round % 2 ? value(rng) : coarse(rng) * 0.25;
      }
      const ArgMinResult expect = scalar.argmin(v.data(), n);
      for (KernelBackend backend : RunnableBackends()) {
        const ArgMinResult got = KernelsFor(backend).argmin(v.data(), n);
        EXPECT_EQ(got.value, expect.value)
            << BackendName(backend) << " n=" << n;
        EXPECT_EQ(got.index, expect.index)
            << BackendName(backend) << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace dpe::common::simd
