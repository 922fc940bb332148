// Property test for the feature-precompute pipeline: for every built-in
// measure, the prepared path (FeatureCache::Compute, Prepare, then
// Distance(i, j) by log index) returns the exact same distance —
// bit-identical, not approximately equal — as the per-pair reference
// Distance(q1, q2, context), over every pair of a generated query log.

#include "distance/features.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/log_encryptor.h"
#include "distance/access_area_distance.h"
#include "distance/jaccard.h"
#include "distance/levenshtein_distance.h"
#include "distance/result_distance.h"
#include "distance/structure_distance.h"
#include "distance/token_distance.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "tests/scenario_test_util.h"

namespace dpe::distance {
namespace {

std::vector<std::unique_ptr<QueryDistanceMeasure>> AllMeasures() {
  std::vector<std::unique_ptr<QueryDistanceMeasure>> measures;
  measures.push_back(std::make_unique<TokenDistance>());
  measures.push_back(std::make_unique<StructureDistance>());
  measures.push_back(std::make_unique<ResultDistance>());
  measures.push_back(std::make_unique<AccessAreaDistance>(
      AccessAreaDistance::CanonicalDpeOptions()));
  AccessAreaDistance::Options x03 = AccessAreaDistance::CanonicalDpeOptions();
  x03.x = 0.3;
  measures.push_back(std::make_unique<AccessAreaDistance>(x03));
  measures.push_back(std::make_unique<LevenshteinDistance>(
      LevenshteinDistance::Granularity::kTokenSequence));
  measures.push_back(std::make_unique<LevenshteinDistance>(
      LevenshteinDistance::Granularity::kCharacter));
  return measures;
}

TEST(FeatureCacheTest, ComputesOneEntryPerQuery) {
  workload::Scenario s = testutil::Shop(7, 12);
  auto cache = FeatureCache::Compute(s.log).value();
  ASSERT_EQ(cache.size(), s.log.size());
  for (size_t i = 0; i < cache.size(); ++i) {
    const QueryFeatures& f = cache[i];
    EXPECT_EQ(f.sql, sql::ToSql(s.log[i]));
    EXPECT_FALSE(f.token_seq.empty());
    // token_ids is the sorted unique projection of token_seq.
    std::vector<uint32_t> expect(f.token_seq.begin(), f.token_seq.end());
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    EXPECT_TRUE(std::equal(f.token_ids.begin(), f.token_ids.end(),
                           expect.begin(), expect.end()));
    EXPECT_TRUE(std::is_sorted(f.structure_ids.begin(),
                               f.structure_ids.end()));
  }
}

// The SoA contract: every span of every query slices the cache's single
// flat arena, and the per-query stripes are packed in log order — the
// layout the blocked builder's tiles rely on for locality.
TEST(FeatureCacheTest, SpansSliceOneArenaInLogOrder) {
  workload::Scenario s = testutil::Shop(11, 9);
  auto cache = FeatureCache::Compute(s.log).value();
  const std::vector<uint32_t>& arena = cache.arena();
  const uint32_t* base = arena.data();
  const uint32_t* cursor = base;
  for (size_t i = 0; i < cache.size(); ++i) {
    const QueryFeatures& f = cache[i];
    // Per-query stripe: [token_seq][token_ids][structure_ids], contiguous.
    EXPECT_EQ(f.token_seq.data(), cursor);
    EXPECT_EQ(f.token_ids.data(), f.token_seq.data() + f.token_seq.size());
    EXPECT_EQ(f.structure_ids.data(),
              f.token_ids.data() + f.token_ids.size());
    cursor = f.structure_ids.data() + f.structure_ids.size();
    EXPECT_GE(f.token_seq.data(), base);
    EXPECT_LE(cursor, base + arena.size());
  }
  EXPECT_EQ(cursor, base + arena.size());
}

// The log the property runs on: a shop log, two exact repeats (the result
// measure executes each distinct text once and shares its ids), and a pair
// whose access areas differ only by an empty area on age (the
// contradiction age < 20 AND age > 30), which must count like an
// unaccessed attribute (delta 0).
std::vector<sql::SelectQuery> PropertyLog(const workload::Scenario& s) {
  std::vector<sql::SelectQuery> log = s.log;
  log.push_back(s.log[3]);
  log.push_back(s.log[7]);
  log.push_back(sql::Parse("SELECT cid FROM customers WHERE cid = 5 AND "
                           "age < 20 AND age > 30")
                    .value());
  log.push_back(sql::Parse("SELECT cid FROM customers WHERE cid = 5").value());
  return log;
}

// Prepared == reference, bit for bit, for every measure whose Table-I
// shared information `context` carries, over every ordered pair (i, j) of
// `log`, the diagonal included.
void ExpectPreparedEqualsReference(const std::vector<sql::SelectQuery>& log,
                                   const MeasureContext& context,
                                   const std::string& label) {
  auto features = FeatureCache::Compute(log);
  ASSERT_TRUE(features.ok()) << label << ": " << features.status();
  size_t checked = 0;
  for (const auto& measure : AllMeasures()) {
    const SharedInformation shared = measure->Shared();
    if ((shared.db_content && context.database == nullptr) ||
        (shared.domains && context.domains == nullptr)) {
      continue;
    }
    const std::string name = label + " " + measure->Name() + " #" +
                             std::to_string(checked++);
    auto prepared = measure->Prepare(log, *features, context);
    ASSERT_TRUE(prepared.ok()) << name << ": " << prepared.status();
    for (size_t i = 0; i < log.size(); ++i) {
      for (size_t j = 0; j < log.size(); ++j) {
        auto expect = measure->Distance(log[i], log[j], context);
        ASSERT_TRUE(expect.ok()) << name << ": " << expect.status();
        const double got = (*prepared)->Distance(i, j);
        EXPECT_EQ(std::bit_cast<uint64_t>(got),
                  std::bit_cast<uint64_t>(*expect))
            << name << " pair (" << i << ", " << j << "): " << got << " vs "
            << *expect;
      }
    }
  }
  EXPECT_GE(checked, 4u) << label;
}

// The tentpole property: the prepared path equals the per-pair reference
// for all six measures (access-area also at a non-dyadic x, where a changed
// summation order would show), on plaintext and on the ciphertexts of each
// Table-I scheme.
TEST(FeaturizedDistanceProperty, BitIdenticalToReferenceForAllMeasures) {
  workload::Scenario s = testutil::Shop(42, 30);
  const std::vector<sql::SelectQuery> log = PropertyLog(s);
  ExpectPreparedEqualsReference(log, s.Context(), "plaintext");

  crypto::KeyManager keys("prepared-vs-reference");
  core::LogEncryptor::Options options;
  options.paillier_bits = 256;
  options.ope_range_bits = 80;
  options.rng_seed = "prepared";
  for (core::MeasureKind kind :
       {core::MeasureKind::kToken, core::MeasureKind::kStructure,
        core::MeasureKind::kResult, core::MeasureKind::kAccessArea}) {
    auto enc = core::LogEncryptor::Create(core::CanonicalScheme(kind), keys,
                                          s.database, log, s.domains, options);
    ASSERT_TRUE(enc.ok()) << enc.status();
    auto artifacts = enc->EncryptAll();
    ASSERT_TRUE(artifacts.ok()) << artifacts.status();
    // The schemes that share more than the log share it here, so the
    // result and access-area measures run on their own ciphertexts.
    ASSERT_EQ(artifacts->encrypted_db.has_value(),
              kind == core::MeasureKind::kResult);
    ASSERT_EQ(artifacts->encrypted_domains.has_value(),
              kind == core::MeasureKind::kAccessArea);
    MeasureContext context;
    if (artifacts->encrypted_db.has_value()) {
      context.database = &*artifacts->encrypted_db;
      context.exec_options = &artifacts->provider_options;
    }
    if (artifacts->encrypted_domains.has_value()) {
      context.domains = &*artifacts->encrypted_domains;
    }
    ExpectPreparedEqualsReference(
        artifacts->encrypted_log, context,
        std::string(core::MeasureKindName(kind)) + " ciphertexts");
  }
}

// Merge-intersection kernel vs std::set_intersection on random sorted
// unique vectors.
TEST(SortedIntersectionTest, MatchesSetIntersectionOnRandomInputs) {
  std::mt19937 rng(1234);
  for (int round = 0; round < 200; ++round) {
    std::set<uint32_t> sa, sb;
    std::uniform_int_distribution<uint32_t> value(0, 60);
    std::uniform_int_distribution<size_t> len(0, 40);
    const size_t na = len(rng), nb = len(rng);
    while (sa.size() < na) sa.insert(value(rng));
    while (sb.size() < nb) sb.insert(value(rng));
    std::vector<uint32_t> a(sa.begin(), sa.end()), b(sb.begin(), sb.end());
    std::vector<uint32_t> expect;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expect));
    EXPECT_EQ(SortedIntersectionCount(a, b), expect.size());
    EXPECT_EQ(SortedIntersectionCount(b, a), expect.size());
    // And the distance agrees with the std::set reference implementation.
    std::set<uint32_t> set_a(a.begin(), a.end()), set_b(b.begin(), b.end());
    EXPECT_EQ(JaccardDistanceSorted(a, b), JaccardDistance(set_a, set_b));
  }
}

TEST(SortedIntersectionTest, EmptyEdgeCases) {
  std::vector<uint32_t> empty, some{1, 2, 3};
  EXPECT_EQ(SortedIntersectionCount(empty, empty), 0u);
  EXPECT_EQ(SortedIntersectionCount(empty, some), 0u);
  EXPECT_EQ(JaccardDistanceSorted(empty, empty), 0.0);
  EXPECT_EQ(JaccardDistanceSorted(empty, some), 1.0);
  EXPECT_EQ(JaccardDistanceSorted(some, some), 0.0);
}

}  // namespace
}  // namespace dpe::distance
