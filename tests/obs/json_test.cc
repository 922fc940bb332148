#include "obs/json.h"

#include <gtest/gtest.h>

#include <string>

namespace dpe::obs {
namespace {

TEST(JsonQuotedTest, EscapesQuoteBackslashAndControlCharacters) {
  EXPECT_EQ(JsonQuoted(""), "\"\"");
  EXPECT_EQ(JsonQuoted("token"), "\"token\"");
  EXPECT_EQ(JsonQuoted("we\"ird\\name"), "\"we\\\"ird\\\\name\"");
  EXPECT_EQ(JsonQuoted(std::string("a\x01\n\x1f" "b")),
            "\"a\\u0001\\u000a\\u001fb\"");
  // Bytes from 0x20 up, UTF-8 included, pass through.
  EXPECT_EQ(JsonQuoted(" ~\x7f\xc3\xa9"), "\" ~\x7f\xc3\xa9\"");
}

}  // namespace
}  // namespace dpe::obs
