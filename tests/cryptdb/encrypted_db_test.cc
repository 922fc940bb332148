#include "cryptdb/encrypted_db.h"

#include <gtest/gtest.h>

#include "sql/parser.h"
#include "sql/printer.h"

namespace dpe::cryptdb {
namespace {

using db::ColumnType;
using db::Value;

/// End-to-end CryptDB flow on the emp/dept database of the executor tests.
class CryptDbTest : public ::testing::Test {
 protected:
  static db::Database MakePlain() {
    db::Database plain;
    db::Table emp("emp", db::TableSchema({{"id", ColumnType::kInt},
                                          {"dept", ColumnType::kString},
                                          {"salary", ColumnType::kInt},
                                          {"rating", ColumnType::kDouble}}));
    auto add = [&](int id, const char* dept, int salary, double rating) {
      ASSERT_TRUE(emp.Append({Value::Int(id), Value::String(dept),
                              Value::Int(salary), Value::Double(rating)})
                      .ok());
    };
    add(1, "eng", 100, 4.5);
    add(2, "eng", 120, 3.5);
    add(3, "sales", 90, 4.0);
    add(4, "sales", 110, 2.5);
    add(5, "hr", 80, 5.0);
    EXPECT_TRUE(plain.CreateTable(std::move(emp)).ok());
    db::Table dept("dept", db::TableSchema({{"name", ColumnType::kString},
                                            {"budget", ColumnType::kInt}}));
    EXPECT_TRUE(dept.Append({Value::String("eng"), Value::Int(1000)}).ok());
    EXPECT_TRUE(dept.Append({Value::String("sales"), Value::Int(500)}).ok());
    EXPECT_TRUE(plain.CreateTable(std::move(dept)).ok());
    return plain;
  }

  static CryptDb& Instance() {
    static crypto::KeyManager keys("cryptdb-test-master");
    static db::Database plain = MakePlain();
    static CryptDb cdb = [] {
      OnionLayout layout;
      layout.columns["emp.id"] = {true, true, false};
      layout.columns["emp.dept"] = {true, false, false};
      layout.columns["emp.salary"] = {true, true, true};
      layout.columns["emp.rating"] = {true, true, false};
      layout.columns["dept.name"] = {true, false, false};
      layout.columns["dept.budget"] = {true, true, false};
      layout.join_group_of["emp.dept"] = "g";
      layout.join_group_of["dept.name"] = "g";
      CryptDb::Options options;
      options.crypto.paillier_bits = 256;
      return CryptDb::Build(plain, layout, keys, options,
                            crypto::Csprng::FromSeed("cdb"))
          .value();
    }();
    return cdb;
  }

  static const db::Database& Plain() {
    static db::Database plain = MakePlain();
    return plain;
  }

  /// Runs plaintext and encrypted flavors and compares decrypted results.
  void ExpectSameResults(const std::string& text) {
    auto q = sql::Parse(text).value();
    auto plain_result = db::Execute(Plain(), q);
    ASSERT_TRUE(plain_result.ok()) << text;
    auto enc_q = Instance().Rewrite(q);
    ASSERT_TRUE(enc_q.ok()) << text << " -> " << enc_q.status();
    auto enc_result = Instance().ExecuteEncrypted(*enc_q);
    ASSERT_TRUE(enc_result.ok()) << sql::ToSql(*enc_q) << " -> "
                                 << enc_result.status();
    auto decrypted = Instance().DecryptResult(q, *enc_result);
    ASSERT_TRUE(decrypted.ok()) << text << " -> " << decrypted.status();
    EXPECT_EQ(decrypted->TupleKeySet(), plain_result->TupleKeySet()) << text;
    EXPECT_EQ(decrypted->rows.size(), plain_result->rows.size()) << text;
  }
};

TEST_F(CryptDbTest, EncryptedSchemaHasOnionColumnsOnly) {
  const db::Database& enc = Instance().encrypted();
  EXPECT_EQ(enc.table_count(), 2u);
  std::string enc_emp = Instance().onion_crypto().EncryptRelName("emp");
  auto table = enc.GetTable(enc_emp).value();
  // id: eq+ord, dept: eq, salary: eq+ord+add, rating: eq+ord -> 8 columns.
  EXPECT_EQ(table->schema().size(), 8u);
  EXPECT_EQ(table->row_count(), 5u);
  for (const auto& col : table->schema().columns()) {
    EXPECT_EQ(col.type, ColumnType::kString);
  }
}

TEST_F(CryptDbTest, PointQuery) {
  ExpectSameResults("SELECT id FROM emp WHERE dept = 'eng'");
}

TEST_F(CryptDbTest, RangeQueriesViaOpe) {
  ExpectSameResults("SELECT id FROM emp WHERE salary > 100");
  ExpectSameResults("SELECT id FROM emp WHERE salary BETWEEN 90 AND 110");
  ExpectSameResults("SELECT id, dept FROM emp WHERE rating < 4.0");
  ExpectSameResults("SELECT id FROM emp WHERE rating >= 4");
}

TEST_F(CryptDbTest, BooleanCombinations) {
  ExpectSameResults(
      "SELECT id FROM emp WHERE dept = 'eng' AND salary > 110");
  ExpectSameResults("SELECT id FROM emp WHERE dept = 'hr' OR salary = 90");
  ExpectSameResults("SELECT id FROM emp WHERE NOT dept = 'eng'");
  ExpectSameResults("SELECT id FROM emp WHERE id IN (1, 3, 5)");
}

TEST_F(CryptDbTest, ProjectionAndStar) {
  ExpectSameResults("SELECT * FROM emp WHERE salary >= 100");
  ExpectSameResults("SELECT dept, rating FROM emp");
  ExpectSameResults("SELECT DISTINCT dept FROM emp");
}

TEST_F(CryptDbTest, OrderByLimit) {
  ExpectSameResults("SELECT id FROM emp ORDER BY salary DESC LIMIT 2");
  ExpectSameResults("SELECT id, salary FROM emp ORDER BY rating LIMIT 3");
}

TEST_F(CryptDbTest, PaillierSum) {
  ExpectSameResults("SELECT SUM(salary) FROM emp");
  ExpectSameResults("SELECT SUM(salary) FROM emp WHERE dept = 'eng'");
}

TEST_F(CryptDbTest, PaillierAvgAndCount) {
  ExpectSameResults("SELECT AVG(salary) FROM emp");
  ExpectSameResults("SELECT COUNT(*) FROM emp WHERE salary > 90");
}

TEST_F(CryptDbTest, MinMaxViaOrdOnion) {
  ExpectSameResults("SELECT MIN(salary), MAX(salary) FROM emp");
  ExpectSameResults("SELECT MAX(rating) FROM emp WHERE dept = 'sales'");
}

TEST_F(CryptDbTest, GroupByAggregates) {
  ExpectSameResults("SELECT dept, COUNT(*) FROM emp GROUP BY dept");
  ExpectSameResults("SELECT dept, SUM(salary) FROM emp GROUP BY dept");
  ExpectSameResults(
      "SELECT dept, AVG(salary) FROM emp WHERE salary >= 90 GROUP BY dept");
}

TEST_F(CryptDbTest, JoinThroughSharedJoinGroupKeys) {
  ExpectSameResults(
      "SELECT emp.id, dept.budget FROM emp JOIN dept ON emp.dept = dept.name");
  ExpectSameResults(
      "SELECT emp.id FROM emp JOIN dept ON emp.dept = dept.name "
      "WHERE dept.budget > 600");
}

TEST_F(CryptDbTest, AggregateOverEmptySelection) {
  ExpectSameResults("SELECT SUM(salary), COUNT(*) FROM emp WHERE salary > 99999");
}

TEST_F(CryptDbTest, ProviderSeesNoPlaintext) {
  // Every cell of the encrypted database is a tagged ciphertext string; no
  // plaintext value from the original database appears.
  const db::Database& enc = Instance().encrypted();
  for (const std::string& name : enc.TableNames()) {
    auto table = enc.GetTable(name).value();
    for (const auto& row : table->rows()) {
      for (const auto& cell : row) {
        if (cell.is_null()) continue;
        ASSERT_TRUE(cell.is_string());
        char tag = cell.string_value()[0];
        EXPECT_TRUE(tag == 'e' || tag == 'o' || tag == 'h' || tag == 'p');
        EXPECT_EQ(cell.string_value().find("eng"), std::string::npos);
      }
    }
  }
}

TEST_F(CryptDbTest, StarWithJoinExpandsBothRelations) {
  ExpectSameResults(
      "SELECT * FROM emp JOIN dept ON emp.dept = dept.name "
      "WHERE dept.budget >= 500");
}

TEST_F(CryptDbTest, StarWithPredicateAndDistinct) {
  ExpectSameResults("SELECT DISTINCT * FROM dept");
}

TEST_F(CryptDbTest, RewrittenStarParsesAndHasExplicitColumns) {
  auto q = sql::Parse("SELECT * FROM emp").value();
  auto enc_q = Instance().Rewrite(q).value();
  // Star expanded: 4 plaintext columns -> 4 explicit onion refs.
  ASSERT_EQ(enc_q.items.size(), 4u);
  for (const auto& item : enc_q.items) {
    EXPECT_FALSE(item.star);
    EXPECT_TRUE(item.column.name.ends_with(kEqSuffix));
  }
  EXPECT_TRUE(sql::Parse(sql::ToSql(enc_q)).ok());
}

TEST_F(CryptDbTest, SharedValueKeysLinkEqualValuesAcrossColumns) {
  // The result scheme's global JOIN usage mode (OnionLayout, onion.h): with
  // shared_value_keys, equal typed values in different columns encrypt
  // identically, so cross-attribute plaintext tuple collisions survive.
  OnionLayout layout;
  layout.columns["a.x"] = {true, false, false};
  layout.columns["b.y"] = {true, false, false};
  layout.shared_value_keys = true;
  crypto::KeyManager keys("shared-keys-test");
  OnionCrypto::Options copts;
  copts.paillier_bits = 256;
  auto crypto =
      OnionCrypto::Create(keys, layout, copts, crypto::Csprng::FromSeed("sv"))
          .value();
  EXPECT_EQ(crypto.EncryptEq("a.x", Value::Int(17)).value(),
            crypto.EncryptEq("b.y", Value::Int(17)).value());
  EXPECT_EQ(crypto.EncryptOrd("a.x", Value::Int(17)).value(),
            crypto.EncryptOrd("b.y", Value::Int(17)).value());
  // Typed ORD tags keep int/double images disjoint even under shared keys.
  auto int_cell = crypto.EncryptOrd("a.x", Value::Int(17)).value();
  auto dbl_cell = crypto.EncryptOrd("a.x", Value::Double(17.0)).value();
  EXPECT_NE(int_cell, dbl_cell);
  EXPECT_EQ(int_cell.string_value().substr(0, 2), "oi");
  EXPECT_EQ(dbl_cell.string_value().substr(0, 2), "od");
}

TEST_F(CryptDbTest, DecryptResultValidatesArity) {
  auto q = sql::Parse("SELECT id, dept FROM emp").value();
  db::ResultTable bogus;
  bogus.rows.push_back({Value::String("e00")});  // arity 1, plan expects 2
  EXPECT_FALSE(Instance().DecryptResult(q, bogus).ok());
}

TEST_F(CryptDbTest, DecryptResultRejectsMalformedAvgCounts) {
  // The provider's AVG cell is "h<hex>|<count>"; the owner divides by the
  // count, so anything but a whole positive int64 after the bar is refused.
  auto q = sql::Parse("SELECT AVG(salary) FROM emp").value();
  auto enc_result =
      Instance().ExecuteEncrypted(Instance().Rewrite(q).value()).value();
  ASSERT_EQ(enc_result.rows.size(), 1u);
  const std::string cell = enc_result.rows[0][0].string_value();
  const size_t bar = cell.rfind('|');
  ASSERT_NE(bar, std::string::npos);
  ASSERT_EQ(cell.substr(bar + 1), "5");

  auto decrypted = Instance().DecryptResult(q, enc_result);
  ASSERT_TRUE(decrypted.ok()) << decrypted.status();
  EXPECT_EQ(decrypted->rows[0][0], Value::Double(100.0));

  for (const char* count :
       {"4x", " 4", "+4", "99999999999999999999", "0", "-1", ""}) {
    db::ResultTable tampered = enc_result;
    tampered.rows[0][0] = Value::String(cell.substr(0, bar + 1) + count);
    EXPECT_EQ(Instance().DecryptResult(q, tampered).status().code(),
              StatusCode::kCryptoError)
        << "count '" << count << "'";
  }
}

}  // namespace
}  // namespace dpe::cryptdb
