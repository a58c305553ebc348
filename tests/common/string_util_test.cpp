#include "src/common/string_util.hpp"

#include <gtest/gtest.h>

namespace fsmon::common {
namespace {

TEST(SplitJoinTest, RoundTrip) {
  const auto parts = split("a/b//c", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, '/'), "a/b//c");
}

TEST(SplitTest, EmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimTest, Whitespace) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nx"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(NormalizePathTest, Basics) {
  EXPECT_EQ(normalize_path("/a/b"), "/a/b");
  EXPECT_EQ(normalize_path("a/b"), "/a/b");
  EXPECT_EQ(normalize_path("/a//b/"), "/a/b");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path(""), "/");
  EXPECT_EQ(normalize_path("/a/./b"), "/a/b");
  EXPECT_EQ(normalize_path("/a/../b"), "/b");
  EXPECT_EQ(normalize_path("/../.."), "/");
}

TEST(NormalizePathTest, IsNormalizedAgreesWithNormalize) {
  for (const char* path : {"/", "/a", "/a/b", "/a.b/..c", "", "a/b", "/a//b", "/a/",
                           "/a/./b", "/a/../b", "/..", "/.", "//", "/a/b/.", "/a/b/.."}) {
    EXPECT_EQ(is_normalized_path(path), normalize_path(path) == path) << path;
  }
}

TEST(ParentBaseTest, Decomposition) {
  EXPECT_EQ(parent_path("/a/b"), "/a");
  EXPECT_EQ(parent_path("/a"), "/");
  EXPECT_EQ(parent_path("/"), "/");
  EXPECT_EQ(base_name("/a/b"), "b");
  EXPECT_EQ(base_name("/a"), "a");
  EXPECT_EQ(base_name("/"), "");
}

TEST(IsUnderTest, SubtreeChecks) {
  EXPECT_TRUE(is_under("/a/b", "/a"));
  EXPECT_TRUE(is_under("/a", "/a"));
  EXPECT_FALSE(is_under("/ab", "/a"));  // prefix but not a component boundary
  EXPECT_TRUE(is_under("/a", "/"));
  EXPECT_FALSE(is_under("/b/c", "/a"));
}

TEST(GlobMatchTest, Wildcards) {
  EXPECT_TRUE(glob_match("*.txt", "hello.txt"));
  EXPECT_FALSE(glob_match("*.txt", "hello.dat"));
  EXPECT_TRUE(glob_match("h?llo", "hello"));
  EXPECT_FALSE(glob_match("h?llo", "hllo"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(glob_match("a*b*c", "aXXbYY"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_FALSE(glob_match("", "x"));
}

TEST(GlobMatchTest, StarDoesNotCrossSlash) {
  EXPECT_FALSE(glob_match("*.txt", "dir/hello.txt"));
  EXPECT_TRUE(glob_match("dir/*.txt", "dir/hello.txt"));
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
}

TEST(FormatFixedTest, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
  EXPECT_EQ(format_fixed(0.005, 2), "0.01");
}

}  // namespace
}  // namespace fsmon::common
