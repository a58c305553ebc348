// Consumer service (paper Section IV "Consumption").
//
// Subscribes its rules to the aggregator tier's fan-out hub and delivers
// the matching events to the application callback. The paper filters at
// each consumer; here the hub's shared index does the matching once per
// batch for every consumer, and each consumer decodes only the events it
// delivers (see flow_control.hpp). After a failure, a consumer resumes
// by replaying historic events from the shards' reliable stores starting
// at its last acknowledged vector cursor — one watermark per shard,
// since each shard assigns its own dense id sequence. Replay is the
// merged, timestamp-ordered view served by ShardedAggregator::events_since,
// filtered through the consumer's own rules.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/filter.hpp"
#include "src/scalable/dedup_window.hpp"
#include "src/scalable/flow_control.hpp"
#include "src/scalable/sharded_aggregator.hpp"

namespace fsmon::scalable {

struct ConsumerOptions {
  /// Paths/rules this consumer cares about; empty = everything.
  std::vector<core::FilterRule> rules;
  /// Acknowledge to the aggregator every N delivered events (counted
  /// across all shards).
  std::size_t ack_interval = 1024;
  /// Events fetched per merged page during replay_historic. Bounds the
  /// replay's peak memory to one page regardless of how far this
  /// consumer lags; the stores stream each page from disk.
  std::size_t replay_page = 4096;
  /// Observability registry; null = uninstrumented. Registers consumer.*
  /// and filter.* labelled consumer=<name>.
  obs::MetricsRegistry* metrics = nullptr;
  /// Manual acknowledgement: the consumer never advances the store ack
  /// cursor past what the application has declared durable via
  /// acknowledge_processed(). A stateful applier (the namespace index)
  /// needs this — an automatic ack after delivery would let the stores
  /// purge events the applier has folded but not yet checkpointed, and a
  /// crash before the checkpoint could then never replay them. Hub
  /// credits are still replenished at the ack cadence so flow control
  /// keeps working; only durability stays with the caller.
  bool manual_acks = false;
};

class Consumer {
 public:
  using EventCallback = std::function<void(const core::StdEvent&)>;
  using BatchCallback = std::function<void(const core::EventBatch&)>;

  Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
           EventCallback callback);
  /// Batch-aware variant: the callback is invoked once per received
  /// batch with only the events that pass this consumer's filter. The
  /// per-event constructor is a shim over the same batched path.
  Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
           BatchCallback callback);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Start the delivery thread. The subscription exists from
  /// construction: the hub queues this consumer's matches (up to its
  /// credit window) whether or not it has started.
  common::Status start();
  void stop();

  /// Fail-stop this consumer: the worker exits and nothing further is
  /// acked. What the hub queued for it stays queued. restart() recovers.
  void crash();
  /// Restart after crash(): replay from the last acknowledged cursor so
  /// nothing unacked is lost, then start the worker. Queued live items
  /// the replay already covered are collapsed by the per-source dedup
  /// window.
  common::Status restart();

  /// Replay events since `after_id` (or since the last acknowledged
  /// cursor when nullopt) from the reliable stores, through the same
  /// filter and callback. The scalar is applied to every shard's slot —
  /// exact historic semantics with one shard; with several it is chiefly
  /// useful as 0 (full rewind). Runs on the caller's thread; delivery is
  /// serialized with the live-delivery thread, so the callback is never
  /// invoked concurrently (but replayed and live batches may
  /// interleave). Passing an explicit `after_id` is an intentional
  /// rewind: the dedup window resets so the replayed range is delivered
  /// again. Returns the number of events delivered.
  common::Result<std::size_t> replay_historic(
      std::optional<common::EventId> after_id = std::nullopt);
  /// Vector-cursor variant: replay everything after `cursor`. `rewind`
  /// gives the explicit-after_id semantics above (dedup reset + bypass).
  common::Result<std::size_t> replay_historic(VectorCursor cursor, bool rewind);

  /// Manual-ack mode (ConsumerOptions::manual_acks): publish the cursor
  /// the application has made durable. The consumer acknowledges up to
  /// it (clamped to the seen watermark, never regressing) at its normal
  /// ack cadence, and restart() resumes replay from it. Safe to call
  /// from inside the delivery callback. No-op when manual_acks is off.
  void acknowledge_processed(const VectorCursor& cursor);

  std::uint64_t delivered() const { return delivered_.load(); }
  /// Events this consumer's rules passed over below its seen watermark.
  /// The hub sends a consumer only the frames it matched; the events of
  /// skipped frames are counted when its next frame or the hub's next
  /// watermark item arrives.
  std::uint64_t filtered_out() const { return filtered_.load(); }
  /// Duplicate events suppressed by the per-source dedup window.
  std::uint64_t duplicates_suppressed() const { return duplicates_.load(); }
  /// Sum of the per-shard seen watermarks — total distinct events this
  /// consumer has observed; equal to the plain last id with one shard.
  common::EventId last_seen_id() const { return last_seen_sum_.load(); }
  /// Snapshot of the per-shard seen cursor.
  VectorCursor seen_cursor() const;
  const std::string& name() const { return name_; }
  /// Current flow-control state of this consumer's hub subscription.
  FlowState flow_state() const;
  /// True once the hub evicted this consumer for never draining its
  /// backlog.
  bool evicted() const { return evicted_.load(); }
  /// Delivered sequences held above the dense prefix of the per-source
  /// dedup windows: gaps a later replay may still fill. Live delivery
  /// keeps none, however sparsely the rules match.
  std::size_t dedup_pending() const;

 private:
  Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
           EventCallback callback, BatchCallback batch_callback);

  /// The live loop: pops hub items, delivers matched batches, moves the
  /// seen watermark on watermark items, and runs the demotion/promotion
  /// protocol on marker items.
  void run(std::stop_token stop);
  /// Deliver one hub item: the index matched the events already, so the
  /// item's matched records are read in place, judged against the dedup
  /// windows, and only the picked ones decoded. Watermarks and windows
  /// advance once for the whole frame.
  void deliver_item(const HubItem& item);
  /// A watermark item: move the seen watermark to the hub's head,
  /// counting the span as passed over.
  void advance_to_head(const VectorCursor& head);
  /// Deliver one page of owned store events through this consumer's own
  /// rules; the picked ones are moved into the callback batch. `reached`
  /// is the paging cursor, already advanced past the page.
  void deliver_page(std::vector<core::StdEvent> events, const VectorCursor& reached,
                    bool dedup_filter);
  /// The one store-paging loop behind replay_historic, catch-up and the
  /// promotion seam: page the merged replay from `cursor` (advanced past
  /// every page) through deliver_page until `done(got)` says stop. With a
  /// stoppable `stop`, a store error is retried with backoff until stop
  /// is requested — a demoted consumer must never strand itself; without
  /// one the error is returned. The paging never runs under deliver_mu_.
  common::Result<std::size_t> page_store(VectorCursor& cursor, bool dedup_filter,
                                         std::stop_token stop,
                                         const std::function<bool(std::size_t)>& done);
  /// Demoted catch-up: page the store through this consumer's own rules
  /// until within promotion range, promote, then finish replaying to the
  /// promotion watermark (gap-free seam).
  void catch_up(std::stop_token stop);
  /// Duplicate verdicts for one delivery, under deliver_mu_: appends to
  /// `picked` the indices among `events` that are fresh (all of them
  /// when `dedup_filter` is false, an intentional rewind). Verdicts are
  /// made for the whole delivery before the caller marks anything: a
  /// rename's halves share one cookie and arrive together, so both are
  /// fresh or both are duplicates.
  void pick_fresh_locked(std::span<const core::EventFields> events, bool dedup_filter,
                         std::vector<std::uint32_t>& picked);
  SourceDedupWindow& window_locked(std::string_view source);
  /// Publish the seen watermark and the lag/batch instruments.
  void observe_locked(std::size_t batch_events);
  /// Hand the materialized selection to the callback (one batch call, or
  /// the per-event shim), count it, and run the ack check.
  void hand_over_locked(const core::EventBatch& batch);
  /// Ack-interval check; caller holds deliver_mu_. Routes the cursor to
  /// the hub (min-ack + credit replenish); `force` acks whatever is new.
  void maybe_ack_locked(bool force = false);

  ShardedAggregator& aggregator_;
  FanOutHub& hub_;
  std::string name_;
  ConsumerOptions options_;
  EventCallback callback_;
  BatchCallback batch_callback_;
  /// Serializes live and replay deliveries, held through
  /// hand_over_locked, so the callback sees at most one thread at a time
  /// even when replay_historic runs concurrently with the worker.
  mutable std::mutex deliver_mu_;
  /// Thread currently inside hand_over_locked (holding deliver_mu_
  /// across the application callback), or a default id. Lets
  /// acknowledge_processed() detect reentry from the callback — a
  /// try_lock on a std::mutex the calling thread already owns is UB.
  std::atomic<std::thread::id> deliver_owner_{};
  /// Per-source dedup windows, found by string_view. Guarded by deliver_mu_.
  std::map<std::string, SourceDedupWindow, std::less<>> dedup_;
  /// Last window window_locked() found; dedup_.end() when none.
  std::map<std::string, SourceDedupWindow, std::less<>>::iterator window_ = dedup_.end();
  VectorCursor seen_;   ///< Per-shard last seen ids. Guarded by deliver_mu_.
  VectorCursor acked_;  ///< Per-shard last acked ids. Guarded by deliver_mu_.
  /// Manual-ack mode: the durable cursor published by the application.
  /// Own mutex so acknowledge_processed() can be called from inside the
  /// delivery callback (which already holds deliver_mu_).
  mutable std::mutex ack_floor_mu_;
  VectorCursor ack_floor_;
  bool ack_floor_dirty_ = false;  ///< Guarded by ack_floor_mu_.
  std::jthread worker_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> filtered_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> last_seen_sum_{0};
  std::atomic<bool> evicted_{false};
  core::FilterMetrics filter_metrics_;  ///< Zeroed when uninstrumented.
  /// Rules compiled once at subscription: pre-normalized roots indexed
  /// for an O(path depth) match, kind masks. Filters store pages; the
  /// hub's index holds the same rules for live delivery.
  core::CompiledRuleSet compiled_;
  std::shared_ptr<FanOutHub::Subscription> hub_sub_;
  /// Hub-delivered events processed since the last ack — replenishes the
  /// credit window at ack time. Guarded by deliver_mu_.
  std::uint64_t hub_processed_since_ack_ = 0;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* replayed_counter_ = nullptr;
  obs::Gauge* delivery_lag_gauge_ = nullptr;
  obs::HistogramMetric* batch_size_hist_ = nullptr;
};

}  // namespace fsmon::scalable
