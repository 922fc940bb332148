#include "distance/access_area_distance.h"

#include <gtest/gtest.h>

#include <vector>

#include "distance/features.h"
#include "sql/parser.h"

namespace dpe::distance {
namespace {

class AccessAreaDistanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    domains_.Set("r.a", {db::Value::Int(0), db::Value::Int(100)});
    domains_.Set("r.b", {db::Value::Int(0), db::Value::Int(100)});
    ctx_.domains = &domains_;
  }

  double D(const std::string& a, const std::string& b, double x = 0.5) {
    AccessAreaDistance::Options opt;
    opt.x = x;
    AccessAreaDistance measure(opt);
    return measure
        .Distance(sql::Parse(a).value(), sql::Parse(b).value(), ctx_)
        .value();
  }

  db::DomainRegistry domains_;
  MeasureContext ctx_;
};

TEST_F(AccessAreaDistanceTest, IdenticalAccessAreasGiveZero) {
  EXPECT_EQ(D("SELECT a FROM r WHERE b = 5", "SELECT a FROM r WHERE b = 5"), 0.0);
  // Different SELECT clause, same WHERE: SELECT does not influence areas.
  EXPECT_EQ(D("SELECT a FROM r WHERE b = 5", "SELECT b FROM r WHERE b = 5"), 0.0);
}

TEST_F(AccessAreaDistanceTest, OverlappingAreasGiveX) {
  // [0,50] vs [40,100] on the same attribute: delta = x.
  EXPECT_DOUBLE_EQ(D("SELECT a FROM r WHERE b <= 50",
                     "SELECT a FROM r WHERE b >= 40"),
                   0.5);
  EXPECT_DOUBLE_EQ(D("SELECT a FROM r WHERE b <= 50",
                     "SELECT a FROM r WHERE b >= 40", 0.25),
                   0.25);
}

TEST_F(AccessAreaDistanceTest, DisjointAreasGiveOne) {
  EXPECT_DOUBLE_EQ(
      D("SELECT a FROM r WHERE b < 10", "SELECT a FROM r WHERE b > 90"), 1.0);
}

TEST_F(AccessAreaDistanceTest, AttributeAccessedByOnlyOneQuery) {
  // Q1 accesses b, Q2 accesses a: Attr = {a, b}; both deltas are 1
  // (area vs empty) -> distance 1.
  EXPECT_DOUBLE_EQ(
      D("SELECT a FROM r WHERE b = 5", "SELECT b FROM r WHERE a = 5"), 1.0);
}

TEST_F(AccessAreaDistanceTest, MixedAttributesAverage) {
  // Shared attribute b equal (delta 0); a accessed only by Q2 (delta 1).
  // Average over {a, b} = 0.5.
  EXPECT_DOUBLE_EQ(D("SELECT a FROM r WHERE b = 5",
                     "SELECT b FROM r WHERE b = 5 AND a = 1"),
                   0.5);
}

TEST_F(AccessAreaDistanceTest, NoAccessedAttributesAnywhere) {
  EXPECT_EQ(D("SELECT a FROM r", "SELECT b FROM r"), 0.0);
}

TEST_F(AccessAreaDistanceTest, PointInsideRangeIsOverlap) {
  EXPECT_DOUBLE_EQ(D("SELECT a FROM r WHERE b = 20",
                     "SELECT a FROM r WHERE b BETWEEN 10 AND 30"),
                   0.5);
}

TEST_F(AccessAreaDistanceTest, EmptyAreaEqualsUnaccessedAttribute) {
  // b < 5 AND b > 10 accesses b with an empty area. Q2 does not access b,
  // so b counts in |Attr| with delta 0 (empty against empty), as does a.
  const auto q1 =
      sql::Parse("SELECT a FROM r WHERE a = 5 AND b < 5 AND b > 10").value();
  const auto q2 = sql::Parse("SELECT a FROM r WHERE a = 5").value();
  for (const AccessAreaDistance::Options& options :
       {AccessAreaDistance::Options{},
        AccessAreaDistance::CanonicalDpeOptions()}) {
    AccessAreaDistance measure(options);
    EXPECT_EQ(measure.Distance(q1, q2, ctx_).value(), 0.0)
        << "clip_to_domain " << options.extraction.clip_to_domain;
  }
}

TEST_F(AccessAreaDistanceTest, RequiresDomains) {
  AccessAreaDistance measure;
  MeasureContext empty;
  const std::vector<sql::SelectQuery> log = {
      sql::Parse("SELECT a FROM r WHERE b = 1").value()};
  EXPECT_FALSE(measure.Distance(log[0], log[0], empty).ok());
  auto features = FeatureCache::Compute(log).value();
  EXPECT_EQ(measure.Prepare(log, features, empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AccessAreaDistanceTest, SharedInformationDeclaresDomains) {
  AccessAreaDistance measure;
  EXPECT_TRUE(measure.Shared().domains);
  EXPECT_FALSE(measure.Shared().db_content);
}

// Parameterized sweep over the x parameter (ablation A1d).
class XParamSweep : public ::testing::TestWithParam<double> {};

TEST_P(XParamSweep, OverlapDeltaEqualsX) {
  db::DomainRegistry domains;
  domains.Set("r.b", {db::Value::Int(0), db::Value::Int(100)});
  MeasureContext ctx;
  ctx.domains = &domains;
  AccessAreaDistance::Options opt;
  opt.x = GetParam();
  AccessAreaDistance measure(opt);
  auto q1 = sql::Parse("SELECT a FROM r WHERE b <= 50").value();
  auto q2 = sql::Parse("SELECT a FROM r WHERE b >= 40").value();
  EXPECT_DOUBLE_EQ(measure.Distance(q1, q2, ctx).value(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(XValues, XParamSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

}  // namespace
}  // namespace dpe::distance
