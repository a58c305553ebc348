// Shared subscription index: a path-prefix trie evaluated once per
// batch instead of once per (consumer, event).
//
// The paper's scalable tier pushes filtering to each consumer, which is
// O(consumers × rules) work per event. The index inverts that: every
// subscriber's compiled rules are inserted into one trie keyed by path
// components, with per-node subscriber bitsets split by event kind, so
// matching an event is a single root-to-leaf walk that ORs a handful of
// bitsets — cost grows with the event's path depth and the number of
// subscribers it actually matches, not with the total subscriber count.
//
// Semantics are byte-identical to the per-event core::matches_any
// evaluation (property-tested in sub_index_test):
//  - recursive rules match the whole subtree rooted at the rule root
//    (including the root itself), with component-exact boundaries —
//    a rule on "/foo" never matches "/foobar";
//  - non-recursive rules match direct children only, plus the
//    quirk that a non-recursive "/" rule matches the path "/" itself
//    (parent_path("/") == "/");
//  - an empty rule set matches everything (the consumer default);
//  - name globs and kind restrictions apply per rule, not per set.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/event.hpp"
#include "src/core/filter.hpp"
#include "src/obs/metrics.hpp"

namespace fsmon::scalable {

/// Dense subscriber handle allocated by the index; ids are reused after
/// removal so bitsets stay compact.
using SubscriberId = std::uint32_t;

/// What the index matches an event on, read in place: the hub passes a
/// view of the path inside the frame bytes, so matching decodes nothing.
struct MatchKey {
  std::string_view path;
  core::EventKind kind = core::EventKind::kCreate;
};

/// Growable bitset over SubscriberId.
class SubscriberBitset {
 public:
  void set(SubscriberId id);
  void clear(SubscriberId id);
  bool test(SubscriberId id) const;
  bool any() const;
  void or_into(std::vector<std::uint64_t>& words) const;
  /// OR into `words`, appending the index of every word that transitions
  /// from zero to nonzero to `dirty` — lets the caller zero and scan only
  /// the touched words instead of the whole (subscriber-count-sized)
  /// bitset.
  void or_into(std::vector<std::uint64_t>& words,
               std::vector<std::uint32_t>& dirty) const;

 private:
  std::vector<std::uint64_t> words_;
};

/// Per-batch match result: for each touched subscriber, the indices of
/// the batch's events that subscriber should receive, in batch order.
/// Reused across batches — `indices` is sized to the subscriber-id space
/// and only the `touched` entries are populated.
class DeliverySet {
 public:
  std::span<const SubscriberId> touched() const { return touched_; }
  std::span<const std::uint32_t> indices_for(SubscriberId id) const {
    return indices_[id];
  }

 private:
  friend class SubscriptionIndex;
  void reset(std::size_t subscriber_limit);
  void add(SubscriberId id, std::uint32_t event_index);

  std::vector<std::vector<std::uint32_t>> indices_;
  std::vector<SubscriberId> touched_;
};

/// Instruments for the index (subidx.*). All optional.
struct SubIndexMetrics {
  obs::Gauge* subscribers = nullptr;
  obs::Gauge* nodes = nullptr;
  obs::Counter* batches = nullptr;
  obs::Counter* events = nullptr;
  obs::Counter* deliveries = nullptr;

  static SubIndexMetrics create(obs::MetricsRegistry& registry,
                                const obs::Labels& labels = {});
};

/// The shared path-trie subscription index. Thread-safe: subscriptions
/// take an exclusive lock, match_batch a shared one, so concurrent
/// matching never blocks on other matchers.
class SubscriptionIndex {
 public:
  explicit SubscriptionIndex(SubIndexMetrics metrics = {});
  ~SubscriptionIndex();

  SubscriptionIndex(const SubscriptionIndex&) = delete;
  SubscriptionIndex& operator=(const SubscriptionIndex&) = delete;

  /// Register a subscriber with its compiled rules. An empty rule span
  /// subscribes to everything. Returns the subscriber's dense id.
  SubscriberId add_subscriber(std::span<const core::CompiledRule> rules);

  /// Remove a subscriber; its id may be reused by a later add.
  void remove_subscriber(SubscriberId id);

  /// Match a whole batch: fills `out` with, per touched subscriber, the
  /// indices of matching events. Indices are in batch order. Allocates
  /// nothing per event when the paths are normalized (collector paths
  /// are).
  void match_batch(std::span<const MatchKey> events, DeliverySet& out) const;

  /// Match a single event into a subscriber-id list (test/bench helper).
  std::vector<SubscriberId> match_event(const core::StdEvent& event) const;

  std::size_t subscriber_count() const;
  std::size_t node_count() const;

 private:
  struct Node;
  struct EntrySet;

  Node* walk_to(std::span<const std::string> components);
  void match_into(std::string_view path, core::EventKind kind,
                  std::vector<std::uint64_t>& hits,
                  std::vector<std::uint32_t>& dirty) const;
  static void accumulate(const EntrySet& set, std::string_view base,
                         core::EventKind kind,
                         std::vector<std::uint64_t>& hits,
                         std::vector<std::uint32_t>& dirty);
  void prune(Node* node, std::span<const std::string> components);
  void update_gauges() const;

  mutable std::shared_mutex mu_;
  std::unique_ptr<Node> root_;
  /// Subscribers with an empty rule set: delivered every event.
  SubscriberBitset match_all_;
  /// Rules as inserted, kept for removal (re-walk and clear).
  std::vector<std::vector<core::CompiledRule>> rules_by_id_;
  std::vector<bool> live_;
  std::vector<SubscriberId> free_ids_;
  std::size_t node_count_ = 1;  ///< Root always exists.
  std::size_t live_count_ = 0;
  SubIndexMetrics metrics_;
};

}  // namespace fsmon::scalable
