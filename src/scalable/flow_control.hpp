// FanOutHub: the one delivery path from the aggregator tier to its
// consumers — subscription-indexed fan-out with credit-based
// per-consumer flow control.
//
// The paper (Section IV) filters at each consumer to spare the
// aggregator. That costs O(consumers × events) matching work, and one
// slow consumer that back-pressures its shard sender stalls the whole
// tier. The hub replaces it: the tier owns one hub, whose single
// receiver attaches to every shard output at the first subscription. Its
// pump thread views each frame once (structure and CRC), reads each
// event's path and kind in place, runs the shared SubscriptionIndex once
// per batch, and queues {shared frame, matched indices} items per
// consumer. Matching cost grows with matched events, not subscriber
// count, and no event is decoded hub-side: each consumer decodes only
// the records it delivers.
//
// Flow control is credit-based: each subscription carries a credit
// window counted in matched events; credits are consumed when a batch
// is queued (a frame is queued whole, so it may drive the window
// negative) and replenished when the consumer acknowledges processed
// events. The push that drives a window to zero or below also queues a
// demotion marker: live delivery stops there, and the consumer catches
// up by paging the reliable store through its own rules. When it
// reaches the live watermark it asks to be promoted; promotion hands it
// a fresh window and the watermark to replay up to, so the hand-off is
// gap-free and duplicate-free. A demoted consumer that has stopped
// acknowledging and lags the hub's head by more than `eviction_lag` is
// evicted — it stops holding the store's retention window hostage. Without a store there is nothing to catch up from, so
// a storeless hub never demotes or evicts; it back-pressures instead:
// the pump waits while a subscription's queue holds a credit window of
// events, which bounds the queue and stalls the tier behind the slow
// consumer.
//
// The hub sends a consumer only the frames that matched its rules. So
// that a consumer's seen watermark still reaches the head when the
// trailing traffic is not its own, the pump's 10 ms tick queues a
// watermark item for every live subscription whose queue is empty and
// which has not been told the current head: every frame at or below it
// that matched was queued ahead of the item.
//
// Acknowledgement forwarding: the hub forwards the element-wise MINIMUM
// acked cursor across all non-evicted subscriptions to the shard stores,
// so a purge can never drop an event a consumer still needs. It does so
// on the same tick.
//
// Gap repair: shards commit before they publish, so every (shard, id)
// the hub sees is durable and each shard's ids are dense. A frame whose
// first id is above its shard's head + 1, or a shard whose published id
// stays above the head for two idle ticks (a refused last frame), is a
// hole: the hub advances the head past it and demotes every live
// subscription to page it from the store. Without a store the hole is
// counted in flow.gaps and its events are lost.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/event.hpp"
#include "src/scalable/shard_map.hpp"
#include "src/scalable/sub_index.hpp"
#include "src/transport/transport.hpp"

namespace fsmon::scalable {

class ShardedAggregator;

/// Delivery state of one hub subscription.
enum class FlowState : std::uint8_t {
  kLive,     ///< Receiving live matched batches, credits remaining.
  kDemoted,  ///< Window exhausted; catching up from the store.
  kEvicted,  ///< Never drained; removed from the index and the min-ack.
};

std::string_view to_string(FlowState state);

/// One pumped frame, shared by every subscription it matched: the bytes
/// viewed and CRC-checked once by the pump, plus what a consumer needs
/// to advance its watermarks and dedup windows without reading records.
struct HubFrame {
  transport::FrameRef frame;
  core::EventBatchView view;
  std::size_t shard = 0;
  common::EventId last_id = 0;  ///< Highest id in the (unfiltered) frame.
  /// Highest cookie of each source in the frame; the views point into
  /// `frame`.
  std::vector<std::pair<std::string_view, std::uint64_t>> max_cookies;
};

/// One entry in a subscription's queue. kBatch carries the shared frame
/// plus the indices of this subscriber's matched events. kWatermark
/// carries the hub's per-shard head: every frame at or below it that
/// matched this subscriber was queued ahead of the item, so the rest
/// matched nothing. kDemoted / kEvicted are state-change markers enqueued
/// in stream position, so the consumer learns exactly where live
/// delivery stopped.
struct HubItem {
  enum class Kind : std::uint8_t { kBatch, kWatermark, kDemoted, kEvicted };
  Kind kind = Kind::kBatch;
  std::shared_ptr<const HubFrame> frame;
  std::vector<std::uint32_t> indices;  ///< Matched event indices, batch order.
  VectorCursor head;                   ///< kWatermark only.
};

struct FlowControlOptions {
  /// Credit window per subscription, in delivered events. Must exceed
  /// the consumer's ack interval or a healthy consumer would demote
  /// itself between acks.
  std::uint64_t credit_window = 1 << 15;
  /// A demoted consumer may be promoted once its replay cursor is within
  /// this many events of the live watermark. 0 = credit_window / 4.
  std::uint64_t promote_lag = 0;
  /// Evict a demoted subscription whose acknowledged cursor lags the
  /// hub's head by more than this many events and has not advanced for a
  /// second. 0 disables eviction.
  std::uint64_t eviction_lag = 0;
  /// Pump inbox high-water mark (frames).
  std::size_t high_water_mark = 1 << 16;
  /// Observability registry; null = uninstrumented. Registers flow.* and
  /// subidx.*.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Instruments for the flow-control tier (flow.*). All optional.
struct FlowMetrics {
  obs::Counter* demotions = nullptr;
  obs::Counter* promotions = nullptr;
  obs::Counter* evictions = nullptr;
  obs::Counter* gaps = nullptr;
  obs::Gauge* live = nullptr;
  obs::Gauge* demoted = nullptr;

  static FlowMetrics create(obs::MetricsRegistry& registry,
                            const obs::Labels& labels = {});
};

class FanOutHub {
 public:
  /// Opaque per-consumer handle. All state is owned and mutated by the
  /// hub; consumers interact through the hub methods below.
  class Subscription {
   private:
    friend class FanOutHub;
    SubscriberId id_ = 0;
    FlowState state_ = FlowState::kLive;
    std::int64_t credits_ = 0;
    VectorCursor acked_;   ///< Last cursor the consumer acknowledged.
    /// Per shard, the last id the consumer must acknowledge before it
    /// stops holding the min-ack: the last frame queued for it, or the
    /// promotion watermark it still has to replay up to.
    VectorCursor owed_;
    /// Per shard, the highest id queued for it in a batch or watermark.
    VectorCursor announced_;
    /// Demoted: acked_.sum() when last seen to move, and when.
    std::uint64_t progress_ = 0;
    std::chrono::steady_clock::time_point progress_at_;
    std::mutex queue_mu_;
    std::condition_variable_any queue_cv_;
    std::deque<HubItem> queue_;
    std::uint64_t queued_events_ = 0;  ///< Matched events in queue_.
    bool queue_closed_ = false;
  };

  /// Passive until the first subscribe(): no receiver is attached to
  /// the shard outputs and no thread runs.
  FanOutHub(ShardedAggregator& aggregator, FlowControlOptions options);
  ~FanOutHub();

  FanOutHub(const FanOutHub&) = delete;
  FanOutHub& operator=(const FanOutHub&) = delete;

  /// Register a consumer with its compiled rules (empty = everything).
  /// The subscription starts live with a full credit window, positioned
  /// at the current live watermark. The first subscription attaches the
  /// hub to every shard output and starts the pump.
  std::shared_ptr<Subscription> subscribe(std::span<const core::CompiledRule> rules);

  /// Remove a subscription: detaches it from the index, closes its queue
  /// and releases its hold on the min-ack watermark.
  void unsubscribe(Subscription& sub);

  /// Pop the next item for this subscription. Blocks until an item
  /// arrives; nullopt once `stop` is requested or after unsubscribe.
  std::optional<HubItem> pop(Subscription& sub, std::stop_token stop = {});

  /// Consumer progress report: `cursor` is the consumer's per-shard seen
  /// watermark (forwarded to the stores as the min across subscriptions
  /// on the pump's next tick),
  /// `processed_events` the number of hub-delivered events the consumer
  /// has finished with since its last call (replenishes credits).
  void acknowledge(Subscription& sub, const VectorCursor& cursor,
                   std::uint64_t processed_events);

  /// Ask to re-enter live delivery after catch-up. `cursor` is where the
  /// consumer's replay has reached. Succeeds when the cursor is within
  /// promote_lag of the live watermark: the subscription re-enters kLive
  /// with a fresh window and the call returns the watermark snapshot the
  /// consumer must finish replaying up to — every frame the hub matched
  /// before the promotion has last_id <= that snapshot, every frame after
  /// it is queued live, so replaying exactly to the snapshot is gap-free
  /// and duplicate-free.
  std::optional<VectorCursor> try_promote(Subscription& sub,
                                          const VectorCursor& cursor);

  FlowState state(const Subscription& sub) const;
  /// The cursor the subscription last acknowledged; right after
  /// subscribe(), the watermark it starts from.
  VectorCursor acked(const Subscription& sub) const;
  std::uint64_t frames_pumped() const { return frames_.load(); }

 private:
  void attach_locked();
  void pump(std::stop_token stop);
  /// View, match and queue one frame. Storeless, wait (until `stop`)
  /// while a subscription it was queued for holds a credit window.
  void pump_frame(transport::FrameRef frame, std::string_view topic,
                  DeliverySet& delivery, std::vector<MatchKey>& keys,
                  std::stop_token stop);
  /// Queue an item; returns whether the queue now holds a credit window.
  bool push_item(Subscription& sub, HubItem item);
  void demote_locked(Subscription& sub);
  /// The pump's tick (takes mu_): repair a refused last frame, queue
  /// watermark items, evict stalled demoted subscriptions, and forward
  /// the min acked cursor across non-evicted subscriptions to the stores.
  void tick();
  /// Advance `shard`'s head to `last_missing` and demote every live
  /// subscription (storeless: only count the gap).
  void repair_locked(std::size_t shard, common::EventId last_missing);
  void announce_heads_locked();
  void evict_overdue_locked();
  std::size_t shard_of_topic(std::string_view topic) const;
  void update_gauges_locked();

  ShardedAggregator& aggregator_;
  FlowControlOptions options_;
  /// Demotion needs a store to catch up from.
  bool can_demote_ = false;
  SubscriptionIndex index_;
  FlowMetrics metrics_;
  std::shared_ptr<transport::Receiver> receiver_;  ///< Set at attach (under mu_).
  std::jthread pump_thread_;
  std::atomic<std::uint64_t> frames_{0};

  mutable std::mutex mu_;
  /// Subscriptions indexed by SubscriberId (dense, reused).
  std::vector<std::shared_ptr<Subscription>> subs_;
  std::vector<SubscriberId> demoted_;  ///< Ids to check for eviction.
  VectorCursor heads_;                 ///< Per-shard last pumped id.
  VectorCursor forwarded_;             ///< Per-shard ack last forwarded.
  /// Per shard, the published id above heads_ at the last idle tick.
  VectorCursor overdue_;
  std::size_t live_count_ = 0;
  std::size_t demoted_count_ = 0;
  /// The frame the pump is currently matching but has not yet committed
  /// to heads_ (all guarded by mu_). subscribe() counts it as historic:
  /// a subscription added mid-match may miss the index evaluation, so
  /// its start watermark must sit at or above the frame or those events
  /// would be neither delivered nor replayed.
  std::size_t pending_shard_ = 0;
  common::EventId pending_last_id_ = 0;
  bool pending_valid_ = false;
};

}  // namespace fsmon::scalable
