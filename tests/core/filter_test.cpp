#include "src/core/filter.hpp"

#include <gtest/gtest.h>

#include "src/common/string_util.hpp"

namespace fsmon::core {
namespace {

StdEvent event_at(const std::string& path, EventKind kind = EventKind::kCreate) {
  StdEvent event;
  event.kind = kind;
  event.path = path;
  return event;
}

TEST(FilterRuleTest, DefaultMatchesEverything) {
  FilterRule rule;
  EXPECT_TRUE(rule.matches(event_at("/any/path")));
  EXPECT_TRUE(rule.matches(event_at("/x")));
}

TEST(FilterRuleTest, SubtreeRoot) {
  FilterRule rule;
  rule.root = "/project";
  EXPECT_TRUE(rule.matches(event_at("/project/file")));
  EXPECT_TRUE(rule.matches(event_at("/project/deep/er/file")));
  EXPECT_FALSE(rule.matches(event_at("/other/file")));
  EXPECT_FALSE(rule.matches(event_at("/projectile")));  // boundary check
}

TEST(FilterRuleTest, NonRecursiveIsDirectChildrenOnly) {
  // This is inotify's single-directory semantics, implemented as a
  // filtering rule (Section V-C1).
  FilterRule rule;
  rule.root = "/dir";
  rule.recursive = false;
  EXPECT_TRUE(rule.matches(event_at("/dir/file")));
  EXPECT_FALSE(rule.matches(event_at("/dir/sub/file")));
  EXPECT_FALSE(rule.matches(event_at("/dir")));
}

TEST(FilterRuleTest, RecursiveSeesSubdirectories) {
  FilterRule rule;
  rule.root = "/dir";
  rule.recursive = true;
  EXPECT_TRUE(rule.matches(event_at("/dir/sub/deeper/file")));
}

TEST(FilterRuleTest, NamePattern) {
  FilterRule rule;
  rule.name_pattern = "*.h5";
  EXPECT_TRUE(rule.matches(event_at("/data/run1.h5")));
  EXPECT_FALSE(rule.matches(event_at("/data/run1.txt")));
}

TEST(FilterRuleTest, KindRestriction) {
  FilterRule rule;
  rule.kinds = std::set<EventKind>{EventKind::kCreate, EventKind::kDelete};
  EXPECT_TRUE(rule.matches(event_at("/f", EventKind::kCreate)));
  EXPECT_TRUE(rule.matches(event_at("/f", EventKind::kDelete)));
  EXPECT_FALSE(rule.matches(event_at("/f", EventKind::kModify)));
}

TEST(FilterRuleTest, CombinedConstraints) {
  FilterRule rule;
  rule.root = "/data";
  rule.recursive = false;
  rule.name_pattern = "*.csv";
  rule.kinds = std::set<EventKind>{EventKind::kClose};
  EXPECT_TRUE(rule.matches(event_at("/data/x.csv", EventKind::kClose)));
  EXPECT_FALSE(rule.matches(event_at("/data/sub/x.csv", EventKind::kClose)));
  EXPECT_FALSE(rule.matches(event_at("/data/x.csv", EventKind::kCreate)));
  EXPECT_FALSE(rule.matches(event_at("/data/x.txt", EventKind::kClose)));
}

TEST(FilterRuleTest, PathNormalizationApplied) {
  FilterRule rule;
  rule.root = "/dir/";
  EXPECT_TRUE(rule.matches(event_at("/dir//file")));
}

// Boundary regressions pinned for both the legacy matcher and the
// compiled rule set consumers match with: the two must agree
// byte-for-byte on every edge case.

bool compiled_matches(const FilterRule& rule, const StdEvent& event) {
  return CompiledRuleSet(std::span<const FilterRule>(&rule, 1)).matches(event);
}

void expect_both(const FilterRule& rule, const std::string& path, bool expected,
                 bool recursive) {
  FilterRule r = rule;
  r.recursive = recursive;
  EXPECT_EQ(r.matches(event_at(path)), expected)
      << "legacy root=" << r.root << " path=" << path << " recursive=" << recursive;
  EXPECT_EQ(compiled_matches(r, event_at(path)), expected)
      << "compiled root=" << r.root << " path=" << path << " recursive=" << recursive;
}

TEST(FilterBoundaryTest, PrefixRuleDoesNotMatchSiblingWithSharedPrefix) {
  FilterRule rule;
  rule.root = "/foo";
  for (bool recursive : {true, false}) {
    expect_both(rule, "/foobar", false, recursive);
    expect_both(rule, "/foobar/x", false, recursive);
  }
  expect_both(rule, "/foo/x", true, true);
  expect_both(rule, "/foo/x", true, false);
}

TEST(FilterBoundaryTest, TrailingSlashRootIsEquivalent) {
  FilterRule plain;
  plain.root = "/foo";
  FilterRule slashed;
  slashed.root = "/foo/";
  for (bool recursive : {true, false}) {
    for (const std::string path : {"/foo", "/foo/x", "/foo/x/y", "/foobar"}) {
      FilterRule a = plain;
      a.recursive = recursive;
      FilterRule b = slashed;
      b.recursive = recursive;
      EXPECT_EQ(a.matches(event_at(path)), b.matches(event_at(path)))
          << path << " recursive=" << recursive;
      EXPECT_EQ(compiled_matches(a, event_at(path)),
                compiled_matches(b, event_at(path)))
          << path << " recursive=" << recursive;
    }
  }
}

TEST(FilterBoundaryTest, RootSlashRecursiveMatchesEverything) {
  FilterRule rule;
  rule.root = "/";
  expect_both(rule, "/", true, true);
  expect_both(rule, "/a", true, true);
  expect_both(rule, "/a/b/c", true, true);
}

TEST(FilterBoundaryTest, RootSlashNonRecursiveMatchesRootAndDirectChildren) {
  // Legacy quirk, deliberately preserved: parent_path("/") == "/", so a
  // non-recursive "/" rule matches the root path itself.
  FilterRule rule;
  rule.root = "/";
  expect_both(rule, "/", true, false);
  expect_both(rule, "/a", true, false);
  expect_both(rule, "/a/b", false, false);
}

TEST(FilterBoundaryTest, NonRecursiveRootNeverMatchesItself) {
  FilterRule rule;
  rule.root = "/foo";
  expect_both(rule, "/foo", false, false);
  expect_both(rule, "/foo", true, true);
}

}  // namespace
}  // namespace fsmon::core
