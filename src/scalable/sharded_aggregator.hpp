// ShardedAggregator: the hash-partitioned aggregation tier (ROADMAP
// item 1).
//
// N full Aggregators — each with its own inbox, id sequence, WAL/store,
// custody loop and per-source dedup watermarks — behind one
// ShardRouter that assigns every collector frame to exactly one shard
// by event source (see shard_map.hpp). With shards == 1 the tier is
// byte-for-byte the old single aggregator: same endpoint names, same
// output topic, same store directory, no metric labels, no scoped fault
// points.
//
// Event ids are per-shard: each shard assigns its own dense 1,2,3,...
// sequence for its own store. A consumer's position is therefore a
// VectorCursor (one watermark per shard), and the merged read path
// (events_since) performs a k-way head-comparison merge over per-shard
// store pages: the event with the smallest (timestamp, shard) head is
// popped next. The merge never reorders within a shard — each shard's
// subsequence of the merged stream is exactly its replay order — which
// is the "permutation-free merge" contract the property test
// byte-checks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/scalable/aggregator.hpp"
#include "src/scalable/flow_control.hpp"
#include "src/scalable/shard_map.hpp"
#include "src/scalable/shard_router.hpp"

namespace fsmon::scalable {

struct ShardedAggregatorOptions {
  /// Number of aggregator shards; 1 reproduces the unsharded tier.
  std::size_t shards = 1;
  /// Transport every stage boundary of the tier rides on (router->shard
  /// senders, shard inboxes and outputs). Null (default) makes the tier
  /// own an InProcTransport. Must outlive the tier.
  transport::Transport* transport = nullptr;
  /// Template applied to every shard. Per-shard derivations: the store
  /// directory gains a "shard<k>" suffix, the output topic a "/shard<k>"
  /// suffix, metrics a shard=<k> label, and fault points an
  /// "aggregator.shard<k>." scope (all only when shards > 1).
  AggregatorOptions aggregator;
  /// Tuning of the tier's fan-out hub; its metrics field is overridden
  /// by aggregator.metrics.
  FlowControlOptions flow;
};

class ShardedAggregator {
 public:
  ShardedAggregator(const std::string& name, ShardedAggregatorOptions options,
                    common::Clock& clock);

  ShardedAggregator(const ShardedAggregator&) = delete;
  ShardedAggregator& operator=(const ShardedAggregator&) = delete;

  common::Status start();
  void stop();

  std::size_t shard_count() const { return shards_.size(); }
  Aggregator& shard(std::size_t k) { return *shards_.at(k); }
  const Aggregator& shard(std::size_t k) const { return *shards_.at(k); }
  /// Transport the tier's endpoints live on (collector senders are made
  /// here so the whole pipeline shares one carrier).
  transport::Transport& transport() { return *transport_; }
  ShardRouter& router() { return *router_; }
  ShardMap& map() { return map_; }
  const ShardMap& map() const { return map_; }
  /// Topic shard k publishes under (base, or base + "/shard<k>").
  const std::string& output_topic(std::size_t k) const { return topics_.at(k); }
  /// The one delivery path to consumers: every Consumer subscribes here.
  /// It attaches to the shard outputs at its first subscription and
  /// pumps until the tier is destroyed, whether or not start() ran.
  FanOutHub& hub() { return *hub_; }

  /// Applied to every shard (not thread-safe; set before start()).
  void set_ack_callback(Aggregator::AckCallback callback);
  /// Applied to every shard (not thread-safe; set before start()).
  void set_nack_callback(Aggregator::NackCallback callback);

  /// Merged historic replay: up to `max_events` across all shards,
  /// k-way merged by (timestamp, shard) with each shard's own order
  /// preserved exactly. `cursor` is advanced past every returned event,
  /// so repeated calls page through the backlog. The cursor is resized
  /// to the shard count if needed (missing slots replay from the start).
  /// A page never ends between two events of one (source, cookie): a
  /// rename's halves share a cookie, and a consumer's dedup window must
  /// judge them together, so the page runs past `max_events` to take the
  /// second half.
  common::Result<std::vector<core::StdEvent>> events_since(
      VectorCursor& cursor, std::size_t max_events = SIZE_MAX) const;

  /// Per-shard acknowledgement of everything at or below the cursor.
  void acknowledge(const VectorCursor& cursor);
  std::size_t purge();

  /// Sum of per-shard head ids: total events assigned ids so far
  /// (delivery-lag arithmetic against VectorCursor::sum()).
  std::uint64_t last_event_id_sum() const;
  /// Per-shard published ids (Aggregator::published_id): where the hub
  /// attaches, and how it finds a shard's refused last frame.
  VectorCursor published_cursor() const;
  std::uint64_t aggregated() const;
  std::uint64_t persisted() const;
  bool any_crashed() const;

 private:
  ShardMap map_;
  /// Owned fallback when options.transport is null. Declared before the
  /// shards and router whose endpoints it creates.
  std::unique_ptr<transport::Transport> owned_transport_;
  transport::Transport* transport_ = nullptr;
  std::vector<std::unique_ptr<Aggregator>> shards_;
  std::vector<std::string> topics_;
  std::unique_ptr<ShardRouter> router_;
  /// Declared last: destroyed first, so its pump never outlives a shard.
  std::unique_ptr<FanOutHub> hub_;
};

}  // namespace fsmon::scalable
