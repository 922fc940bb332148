// Structural check shared by the tests of every JSON document the tree
// emits (the trace export, /healthz, /stats): outside strings, braces and
// brackets balance; every string closes.

#ifndef DPE_TESTS_JSON_TEST_UTIL_H_
#define DPE_TESTS_JSON_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string_view>

namespace dpe::testutil {

inline ::testing::AssertionResult JsonIsBalanced(std::string_view json) {
  long depth = 0;
  bool in_string = false, escaped = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      if (--depth < 0) {
        return ::testing::AssertionFailure()
               << "unmatched '" << c << "' at byte " << i;
      }
    }
  }
  if (in_string) return ::testing::AssertionFailure() << "unclosed string";
  if (depth != 0) {
    return ::testing::AssertionFailure() << depth << " unclosed braces";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace dpe::testutil

#endif  // DPE_TESTS_JSON_TEST_UTIL_H_
