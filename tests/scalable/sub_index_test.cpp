// SubscriptionIndex: trie semantics against the legacy per-consumer
// matcher, including the byte-identity property test over randomized
// rule sets that the ISSUE acceptance criteria require.
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "src/core/filter.hpp"
#include "src/scalable/sub_index.hpp"

namespace fsmon::scalable {
namespace {

using core::CompiledRule;
using core::CompiledRuleSet;
using core::EventKind;
using core::FilterRule;
using core::StdEvent;

StdEvent event_at(std::string path, EventKind kind = EventKind::kCreate) {
  StdEvent event;
  event.path = std::move(path);
  event.kind = kind;
  return event;
}

std::vector<CompiledRule> compile(const std::vector<FilterRule>& rules) {
  std::vector<CompiledRule> compiled;
  for (const auto& rule : rules) compiled.push_back(CompiledRule::compile(rule));
  return compiled;
}

bool index_matches(const SubscriptionIndex& index, SubscriberId id,
                   const StdEvent& event) {
  auto ids = index.match_event(event);
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// The hub matches on path and kind read in place; these views point
/// into `events`, which outlives each call.
std::vector<MatchKey> keys_of(const std::vector<StdEvent>& events) {
  std::vector<MatchKey> keys;
  for (const StdEvent& event : events) keys.push_back({event.path, event.kind});
  return keys;
}

TEST(SubIndexTest, EmptyRuleSetMatchesEverything) {
  SubscriptionIndex index;
  const SubscriberId id = index.add_subscriber({});
  EXPECT_TRUE(index_matches(index, id, event_at("/")));
  EXPECT_TRUE(index_matches(index, id, event_at("/a/b/c")));
}

TEST(SubIndexTest, RecursiveRuleMatchesSubtreeWithExactBoundary) {
  SubscriptionIndex index;
  std::vector<FilterRule> rules{{.root = "/foo", .recursive = true}};
  const SubscriberId id = index.add_subscriber(compile(rules));
  EXPECT_TRUE(index_matches(index, id, event_at("/foo")));
  EXPECT_TRUE(index_matches(index, id, event_at("/foo/x")));
  EXPECT_TRUE(index_matches(index, id, event_at("/foo/x/y")));
  // The classic prefix bug: "/foo" must not match "/foobar".
  EXPECT_FALSE(index_matches(index, id, event_at("/foobar")));
  EXPECT_FALSE(index_matches(index, id, event_at("/foobar/x")));
  EXPECT_FALSE(index_matches(index, id, event_at("/")));
}

TEST(SubIndexTest, TrailingSlashRootNormalizesLikeLegacy) {
  SubscriptionIndex index;
  std::vector<FilterRule> rules{{.root = "/foo/", .recursive = true}};
  const SubscriberId id = index.add_subscriber(compile(rules));
  EXPECT_TRUE(index_matches(index, id, event_at("/foo")));
  EXPECT_TRUE(index_matches(index, id, event_at("/foo/x")));
  EXPECT_FALSE(index_matches(index, id, event_at("/foobar")));
}

TEST(SubIndexTest, NonRecursiveRuleMatchesDirectChildrenOnly) {
  SubscriptionIndex index;
  std::vector<FilterRule> rules{{.root = "/foo", .recursive = false}};
  const SubscriberId id = index.add_subscriber(compile(rules));
  EXPECT_FALSE(index_matches(index, id, event_at("/foo")));
  EXPECT_TRUE(index_matches(index, id, event_at("/foo/x")));
  EXPECT_FALSE(index_matches(index, id, event_at("/foo/x/y")));
  EXPECT_FALSE(index_matches(index, id, event_at("/foobar")));
  EXPECT_FALSE(index_matches(index, id, event_at("/foobar/x")));
}

TEST(SubIndexTest, RootRuleQuirksMatchLegacySemantics) {
  SubscriptionIndex index;
  std::vector<FilterRule> recursive_rules{{.root = "/", .recursive = true}};
  std::vector<FilterRule> direct_rules{{.root = "/", .recursive = false}};
  const SubscriberId rec = index.add_subscriber(compile(recursive_rules));
  const SubscriberId dir = index.add_subscriber(compile(direct_rules));
  EXPECT_TRUE(index_matches(index, rec, event_at("/")));
  EXPECT_TRUE(index_matches(index, rec, event_at("/a/b")));
  // Legacy quirk: parent_path("/") == "/", so a non-recursive "/" rule
  // matches the root path itself, plus direct children.
  EXPECT_TRUE(index_matches(index, dir, event_at("/")));
  EXPECT_TRUE(index_matches(index, dir, event_at("/a")));
  EXPECT_FALSE(index_matches(index, dir, event_at("/a/b")));
}

TEST(SubIndexTest, KindMaskRestrictsPerNodeBitmaps) {
  SubscriptionIndex index;
  std::vector<FilterRule> rules{
      {.root = "/d", .recursive = true, .kinds = std::set<EventKind>{EventKind::kModify}}};
  const SubscriberId id = index.add_subscriber(compile(rules));
  EXPECT_TRUE(index_matches(index, id, event_at("/d/f", EventKind::kModify)));
  EXPECT_FALSE(index_matches(index, id, event_at("/d/f", EventKind::kCreate)));
}

TEST(SubIndexTest, GlobPatternAppliesToBaseName) {
  SubscriptionIndex index;
  std::vector<FilterRule> rules{
      {.root = "/data", .recursive = true, .name_pattern = "*.h5"}};
  const SubscriberId id = index.add_subscriber(compile(rules));
  EXPECT_TRUE(index_matches(index, id, event_at("/data/run/out.h5")));
  EXPECT_FALSE(index_matches(index, id, event_at("/data/run/out.txt")));
}

TEST(SubIndexTest, RemoveSubscriberPrunesNodesAndReusesIds) {
  SubscriptionIndex index;
  std::vector<FilterRule> rules{{.root = "/a/b/c", .recursive = true}};
  const SubscriberId id = index.add_subscriber(compile(rules));
  EXPECT_EQ(index.subscriber_count(), 1u);
  EXPECT_EQ(index.node_count(), 4u);  // root + a + b + c
  index.remove_subscriber(id);
  EXPECT_EQ(index.subscriber_count(), 0u);
  EXPECT_EQ(index.node_count(), 1u);
  EXPECT_FALSE(index_matches(index, id, event_at("/a/b/c")));
  const SubscriberId reused = index.add_subscriber(compile(rules));
  EXPECT_EQ(reused, id);
}

TEST(SubIndexTest, MatchBatchYieldsPerSubscriberIndicesInBatchOrder) {
  SubscriptionIndex index;
  std::vector<FilterRule> foo_rules{{.root = "/foo", .recursive = true}};
  std::vector<FilterRule> bar_rules{{.root = "/bar", .recursive = true}};
  const SubscriberId foo = index.add_subscriber(compile(foo_rules));
  const SubscriberId bar = index.add_subscriber(compile(bar_rules));

  std::vector<StdEvent> events{event_at("/foo/1"), event_at("/bar/1"),
                               event_at("/baz/1"), event_at("/foo/2")};
  DeliverySet out;
  index.match_batch(keys_of(events), out);
  ASSERT_EQ(out.touched().size(), 2u);
  const auto foo_indices = out.indices_for(foo);
  const auto bar_indices = out.indices_for(bar);
  EXPECT_EQ(std::vector<std::uint32_t>(foo_indices.begin(), foo_indices.end()),
            (std::vector<std::uint32_t>{0, 3}));
  EXPECT_EQ(std::vector<std::uint32_t>(bar_indices.begin(), bar_indices.end()),
            (std::vector<std::uint32_t>{1}));
}

// ---------------------------------------------------------------------------
// Randomized byte-identity property: for every (subscriber, event) pair,
// index delivery == CompiledRuleSet::matches == legacy matches_any. This
// is the acceptance criterion that lets the hub replace per-consumer
// filtering without changing a single delivered byte.

FilterRule random_rule(std::mt19937& rng) {
  static const char* kRoots[] = {
      "/",      "/foo",       "/foo/",   "/foobar",    "/foo/bar",
      "/a",     "/a/b",       "/a/b/c",  "/data",      "/data/run1",
      "//a//b", "/a/./b",     "/a/../b", "/deep/x/y/z", "/foo/bar/baz",
      "a/b",    "foo/",       "/../foo", "/../..",     "/a/b/",
  };
  static const char* kPatterns[] = {"", "", "", "*.h5", "f*", "?", "*a*"};
  std::uniform_int_distribution<std::size_t> root_dist(0, std::size(kRoots) - 1);
  std::uniform_int_distribution<std::size_t> pattern_dist(0, std::size(kPatterns) - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  FilterRule rule;
  rule.root = kRoots[root_dist(rng)];
  rule.recursive = coin(rng) == 1;
  rule.name_pattern = kPatterns[pattern_dist(rng)];
  if (coin(rng) == 1) {
    std::set<EventKind> kinds;
    std::uniform_int_distribution<int> kind_dist(0, 7);
    const int count = 1 + kind_dist(rng) % 3;
    for (int i = 0; i < count; ++i)
      kinds.insert(static_cast<EventKind>(kind_dist(rng)));
    rule.kinds = std::move(kinds);
  }
  return rule;
}

StdEvent random_event(std::mt19937& rng) {
  static const char* kPaths[] = {
      "/",          "/foo",        "/foobar",      "/foo/bar",
      "/foo/bar/x", "/foo/f.h5",   "/foobar/f.h5", "/a",
      "/a/b",       "/a/b/c",      "/a/b/c/d",     "/data/run1/out.h5",
      "/data/run2/out.txt",        "/deep/x/y/z/w", "/b",
      "//foo//bar", "/a/./b/../c",
      // Relative, trailing-slash and above-the-root forms, which the
      // compiled matcher must normalize exactly as the legacy one does.
      "a/b",        "foo/bar/x",   "/foo/",        "/a/b/",
      "/..",        "/../a",       "/../../foo/bar", "a/../../b",
      "",           "/a/b/.",      "ParentDirectoryRemoved",
  };
  std::uniform_int_distribution<std::size_t> path_dist(0, std::size(kPaths) - 1);
  std::uniform_int_distribution<int> kind_dist(0, 7);
  return event_at(kPaths[path_dist(rng)], static_cast<EventKind>(kind_dist(rng)));
}

TEST(SubIndexPropertyTest, IndexDeliveryIsByteIdenticalToLegacyFiltering) {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 40; ++round) {
    SubscriptionIndex index;
    std::uniform_int_distribution<int> sub_count_dist(1, 24);
    // Odd rounds give every subscriber a large rule set (32-64 rules over
    // 20 roots, so roots repeat within a set).
    std::uniform_int_distribution<int> rule_count_dist(round % 2 == 0 ? 0 : 32,
                                                       round % 2 == 0 ? 4 : 64);
    const int sub_count = sub_count_dist(rng);

    std::vector<std::vector<FilterRule>> rule_sets(sub_count);
    std::vector<SubscriberId> ids;
    for (int s = 0; s < sub_count; ++s) {
      const int rule_count = rule_count_dist(rng);
      for (int r = 0; r < rule_count; ++r)
        rule_sets[s].push_back(random_rule(rng));
      ids.push_back(index.add_subscriber(compile(rule_sets[s])));
    }
    // Churn: remove and re-add a subscriber so freed ids and pruned
    // nodes are exercised mid-stream.
    if (sub_count > 2) {
      index.remove_subscriber(ids[1]);
      ids[1] = index.add_subscriber(compile(rule_sets[1]));
    }

    std::vector<StdEvent> events;
    for (int e = 0; e < 64; ++e) events.push_back(random_event(rng));

    DeliverySet out;
    index.match_batch(keys_of(events), out);
    for (int s = 0; s < sub_count; ++s) {
      const CompiledRuleSet compiled_set{
          std::span<const FilterRule>(rule_sets[s])};
      const auto indices = out.indices_for(ids[s]);
      std::size_t cursor = 0;
      for (std::uint32_t e = 0; e < events.size(); ++e) {
        const bool legacy = core::matches_any(rule_sets[s], events[e]);
        const bool compiled = compiled_set.matches(events[e]);
        const bool indexed =
            cursor < indices.size() && indices[cursor] == e;
        if (indexed) ++cursor;
        ASSERT_EQ(compiled, legacy)
            << "round " << round << " sub " << s << " event " << events[e].path;
        // The consumer's live path: the same match on fields peeked out
        // of the encoded event.
        const auto bytes = core::serialize_event(events[e]);
        const auto path = core::peek_event_path(bytes);
        const auto kind = core::peek_event_kind(bytes);
        ASSERT_TRUE(path.is_ok() && kind.is_ok());
        ASSERT_EQ(compiled_set.matches(path.value(), kind.value()), legacy)
            << "round " << round << " sub " << s << " encoded event " << events[e].path;
        ASSERT_EQ(indexed, legacy)
            << "round " << round << " sub " << s << " event " << events[e].path
            << " kind " << static_cast<int>(events[e].kind);
      }
      ASSERT_EQ(cursor, indices.size());
    }
  }
}

}  // namespace
}  // namespace fsmon::scalable
