#include "src/scalable/consumer.hpp"

#include <algorithm>
#include <chrono>

#include "src/common/logging.hpp"

namespace fsmon::scalable {

using common::Result;
using common::Status;

namespace {

core::EventFields fields_of(const core::StdEvent& event) {
  return {event.id, event.kind, event.cookie, event.path, event.source};
}

bool dedupable(const core::EventFields& event) {
  return event.cookie != 0 && !event.source.empty();
}

bool reached(const VectorCursor& cursor, const VectorCursor& target) {
  for (std::size_t k = 0; k < target.size(); ++k)
    if (cursor.at(k) < target.at(k)) return false;
  return true;
}

}  // namespace

Consumer::Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
                   EventCallback callback)
    : Consumer(aggregator, std::move(name), std::move(options), std::move(callback),
               BatchCallback{}) {}

Consumer::Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
                   BatchCallback callback)
    : Consumer(aggregator, std::move(name), std::move(options), EventCallback{},
               std::move(callback)) {}

Consumer::Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
                   EventCallback callback, BatchCallback batch_callback)
    : aggregator_(aggregator),
      hub_(aggregator.hub()),
      name_(std::move(name)),
      options_(std::move(options)),
      callback_(std::move(callback)),
      batch_callback_(std::move(batch_callback)),
      acked_(aggregator.shard_count()),
      ack_floor_(aggregator.shard_count()) {
  if (options_.replay_page == 0) options_.replay_page = 4096;
  if (options_.metrics != nullptr) {
    auto& registry = *options_.metrics;
    const obs::Labels labels{{"consumer", name_}};
    filter_metrics_ = core::FilterMetrics::create(registry, labels);
    delivered_counter_ = &registry.counter("consumer.events_delivered", labels,
                                           "Matching events handed to the callback",
                                           "events");
    replayed_counter_ = &registry.counter(
        "consumer.events_replayed", labels,
        "Events re-delivered from the reliable store (fault recovery)", "events");
    delivery_lag_gauge_ = &registry.gauge(
        "consumer.delivery_lag_events", labels,
        "Sum of shard head ids minus events seen by this consumer", "events");
    batch_size_hist_ = &registry.histogram("consumer.batch_size", labels,
                                           "Events per batch received by this consumer",
                                           "events");
  }
  // Compile the rule set once at subscription: normalized roots indexed
  // for an O(path depth) match and kind masks. The hub's index takes the
  // same compiled rules for live delivery.
  compiled_ = core::CompiledRuleSet(options_.rules);
  hub_sub_ = hub_.subscribe(compiled_.rules());
  // Everything up to the subscription watermark is historic: reachable
  // through replay_historic, neither seen nor passed over.
  seen_ = hub_.acked(*hub_sub_);
  last_seen_sum_.store(seen_.sum());
}

Consumer::~Consumer() {
  stop();
  hub_.unsubscribe(*hub_sub_);
}

FlowState Consumer::flow_state() const { return hub_.state(*hub_sub_); }

VectorCursor Consumer::seen_cursor() const {
  std::lock_guard lock(deliver_mu_);
  return seen_;
}

std::size_t Consumer::dedup_pending() const {
  std::lock_guard lock(deliver_mu_);
  std::size_t pending = 0;
  for (const auto& [source, window] : dedup_) pending += window.beyond.size();
  return pending;
}

SourceDedupWindow& Consumer::window_locked(std::string_view source) {
  // Consecutive events nearly always share a source: one map lookup per
  // run of them, by string_view.
  if (window_ == dedup_.end() || window_->first != source) {
    window_ = dedup_.find(source);
    if (window_ == dedup_.end())
      window_ = dedup_.emplace(std::string(source), SourceDedupWindow{}).first;
  }
  return window_->second;
}

void Consumer::pick_fresh_locked(std::span<const core::EventFields> events,
                                 bool dedup_filter, std::vector<std::uint32_t>& picked) {
  std::uint64_t duplicates = 0;
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    const core::EventFields& event = events[i];
    if (dedup_filter && dedupable(event) && !window_locked(event.source).fresh(event.cookie)) {
      ++duplicates;
      continue;
    }
    picked.push_back(i);
  }
  if (duplicates > 0) duplicates_.fetch_add(duplicates);
}

void Consumer::observe_locked(std::size_t batch_events) {
  last_seen_sum_.store(seen_.sum());
  if (delivery_lag_gauge_ == nullptr) return;
  const auto head = aggregator_.last_event_id_sum();
  const auto seen = seen_.sum();
  delivery_lag_gauge_->set(head > seen ? static_cast<std::int64_t>(head - seen) : 0);
  if (batch_events > 0) batch_size_hist_->record(batch_events);
}

void Consumer::hand_over_locked(const core::EventBatch& batch) {
  // Record ownership for the duration of the callback so a reentrant
  // acknowledge_processed() (a checkpoint inside on_batch) can tell it
  // must not touch deliver_mu_ again on this thread.
  deliver_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  struct OwnerScope {
    std::atomic<std::thread::id>& owner;
    ~OwnerScope() { owner.store(std::thread::id{}, std::memory_order_relaxed); }
  } owner_scope{deliver_owner_};
  if (!batch_callback_ && callback_) {
    for (const core::StdEvent& event : batch.events) callback_(event);
  }
  if (!batch.empty()) {
    delivered_.fetch_add(batch.size());
    if (delivered_counter_ != nullptr) delivered_counter_->inc(batch.size());
    if (batch_callback_) batch_callback_(batch);
  }
  maybe_ack_locked();
}

void Consumer::deliver_item(const HubItem& item) {
  const HubFrame& frame = *item.frame;
  const auto bytes = frame.frame.bytes();
  // The pump checked every record whole, so these in-place reads cannot
  // fail; only the matched records are read at all.
  std::vector<core::EventFields> matched(item.indices.size());
  for (std::size_t k = 0; k < matched.size(); ++k) {
    const auto& [offset, length] = frame.view.events[item.indices[k]];
    (void)core::peek_event_fields(bytes.subspan(offset, length), matched[k]);
  }
  std::vector<std::uint32_t> picked;
  core::EventBatch batch;
  std::lock_guard lock(deliver_mu_);
  hub_processed_since_ack_ += item.indices.size();
  // Duplicates are judged by (source, cookie): a record a store replay
  // already delivered (catch-up, restart) comes back live with the same
  // cookie.
  pick_fresh_locked(matched, /*dedup_filter=*/true, picked);
  // Once per frame: the watermark moves to the frame's last id, and the
  // events between it and the previous one that are not delivered here
  // were passed over — this frame's unmatched events and the frames the
  // hub did not send. Live frames arrive in each source's sequence
  // order, so every cookie up to the frame's highest is settled.
  const common::EventId floor = seen_.at(frame.shard);
  if (frame.last_id > floor) {
    const auto above = static_cast<std::uint64_t>(std::count_if(
        matched.begin(), matched.end(), [&](const auto& e) { return e.id > floor; }));
    const std::uint64_t passed_over = frame.last_id - floor - above;
    seen_.advance(frame.shard, frame.last_id);
    filtered_.fetch_add(passed_over);
    filter_metrics_.count(above, passed_over);
  }
  for (const auto& [source, cookie] : frame.max_cookies)
    window_locked(source).settle_below(cookie + 1);
  observe_locked(frame.view.count);
  // Only the picked events are decoded, straight into the callback batch.
  std::vector<std::uint32_t> records;
  records.reserve(picked.size());
  for (const std::uint32_t p : picked) records.push_back(item.indices[p]);
  if (auto decoded = core::decode_events(bytes, frame.view, records, batch.events);
      !decoded.is_ok())
    FSMON_WARN("consumer", "corrupt batch frame: ", decoded.to_string());
  hand_over_locked(batch);
}

void Consumer::advance_to_head(const VectorCursor& head) {
  std::lock_guard lock(deliver_mu_);
  // Every frame up to `head` that matched was delivered before this
  // item; the rest of the span was passed over.
  std::uint64_t passed_over = 0;
  for (std::size_t k = 0; k < head.size(); ++k) {
    if (head.at(k) <= seen_.at(k)) continue;
    passed_over += head.at(k) - seen_.at(k);
    seen_.advance(k, head.at(k));
  }
  if (passed_over == 0) return;
  filtered_.fetch_add(passed_over);
  filter_metrics_.count(0, passed_over);
  observe_locked(0);
  maybe_ack_locked();
}

void Consumer::deliver_page(std::vector<core::StdEvent> events, const VectorCursor& reached,
                            bool dedup_filter) {
  if (events.empty()) return;
  std::vector<core::EventFields> eligible_fields;
  std::vector<std::uint32_t> eligible;
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    if (!compiled_.matches(events[i].path, events[i].kind)) continue;
    eligible.push_back(i);
    eligible_fields.push_back(fields_of(events[i]));
  }
  const std::uint64_t passed_over = events.size() - eligible.size();
  std::vector<std::uint32_t> picked;
  core::EventBatch batch;
  std::lock_guard lock(deliver_mu_);
  for (std::size_t k = 0; k < reached.size(); ++k) seen_.advance(k, reached.at(k));
  pick_fresh_locked(eligible_fields, dedup_filter, picked);
  // Pages need not follow live order (a rewind replays what live
  // delivery already marked), so every cookie is marked one by one.
  // With the duplicate filter off (an intentional rewind) duplicates
  // are delivered but still marked, so later live copies of the range
  // are suppressed.
  for (const core::StdEvent& event : events)
    if (dedupable(fields_of(event))) window_locked(event.source).mark(event.cookie);
  if (passed_over > 0) filtered_.fetch_add(passed_over);
  filter_metrics_.count(eligible.size(), passed_over);
  observe_locked(events.size());
  batch.events.reserve(picked.size());
  for (const std::uint32_t p : picked) batch.events.push_back(std::move(events[eligible[p]]));
  hand_over_locked(batch);
}

void Consumer::maybe_ack_locked(bool force) {
  if (options_.manual_acks) {
    // Durability stays with the application: acknowledge only up to the
    // published floor, clamped to what was actually seen and never
    // regressing. Hub credits are still replenished every cadence so
    // flow control reflects processing, not durability.
    VectorCursor floor(seen_.size());
    bool dirty = false;
    {
      std::lock_guard lock(ack_floor_mu_);
      floor = ack_floor_;
      dirty = ack_floor_dirty_;
      ack_floor_dirty_ = false;
    }
    floor.ensure(seen_.size());
    for (std::size_t k = 0; k < seen_.size(); ++k) {
      floor.last_ids[k] = std::min(floor.at(k), seen_.at(k));
      floor.last_ids[k] = std::max(floor.at(k), acked_.at(k));
    }
    if (hub_processed_since_ack_ >= options_.ack_interval || dirty || force) {
      hub_.acknowledge(*hub_sub_, floor, hub_processed_since_ack_);
      hub_processed_since_ack_ = 0;
      acked_ = floor;
    }
    return;
  }
  if (force ? seen_.sum() == acked_.sum()
            : options_.ack_interval == 0 || seen_.sum() - acked_.sum() < options_.ack_interval)
    return;
  hub_.acknowledge(*hub_sub_, seen_, hub_processed_since_ack_);
  hub_processed_since_ack_ = 0;
  acked_ = seen_;
}

void Consumer::acknowledge_processed(const VectorCursor& cursor) {
  if (!options_.manual_acks) return;
  {
    std::lock_guard lock(ack_floor_mu_);
    ack_floor_.ensure(cursor.size());
    for (std::size_t k = 0; k < cursor.size(); ++k)
      ack_floor_.advance(k, cursor.at(k));
    ack_floor_dirty_ = true;
  }
  // Reentry from inside the delivery callback: this thread already owns
  // deliver_mu_ (try_lock on an owned std::mutex is UB), and the batch
  // that invoked the callback runs its own ack check right after the
  // callback returns, which publishes the floor set above.
  if (deliver_owner_.load(std::memory_order_relaxed) == std::this_thread::get_id())
    return;
  // Foreign thread: push promptly when the delivery lock is free (e.g.
  // the caller checkpoints between batches); when a delivery is in
  // flight its ack check picks the floor up instead.
  if (deliver_mu_.try_lock()) {
    std::lock_guard lock(deliver_mu_, std::adopt_lock);
    maybe_ack_locked();
  }
}

Status Consumer::start() {
  if (worker_.joinable()) return Status::ok();
  worker_ = std::jthread([this](std::stop_token stop) { run(stop); });
  return Status::ok();
}

void Consumer::stop() {
  if (!worker_.joinable()) return;
  worker_.request_stop();
  worker_.join();
}

void Consumer::crash() { stop(); }

Status Consumer::restart() {
  if (worker_.joinable()) return Status::ok();
  VectorCursor resume;
  {
    std::lock_guard lock(deliver_mu_);
    resume = acked_;
  }
  // Replay BEFORE the worker starts, so the dedup windows seed from the
  // oldest unacked record; the queued live items the replay covers are
  // then duplicates.
  if (auto replayed = replay_historic(std::move(resume), /*rewind=*/true); !replayed) {
    return replayed.status();
  }
  return start();
}

void Consumer::run(std::stop_token stop) {
  // A restart can find the subscription demoted with its marker already
  // consumed before the crash.
  catch_up(stop);
  while (auto item = hub_.pop(*hub_sub_, stop)) {
    switch (item->kind) {
      case HubItem::Kind::kBatch:
        deliver_item(*item);
        break;
      case HubItem::Kind::kWatermark:
        advance_to_head(item->head);
        break;
      case HubItem::Kind::kDemoted:
        catch_up(stop);
        break;
      case HubItem::Kind::kEvicted:
        evicted_.store(true);
        return;
    }
  }
}

Result<std::size_t> Consumer::page_store(VectorCursor& cursor, bool dedup_filter,
                                         std::stop_token stop,
                                         const std::function<bool(std::size_t)>& done) {
  std::size_t count = 0;
  auto backoff = std::chrono::milliseconds(1);
  while (!stop.stop_requested()) {
    auto events = aggregator_.events_since(cursor, options_.replay_page);
    if (!events) {
      if (!stop.stop_possible()) return events.status();
      // A transient store error (a shard mid-restart, a paged read
      // racing a purge) must not end a catch-up: the hub sends the
      // kDemoted marker once, and giving up short of the promotion
      // watermark would leave a silent gap.
      FSMON_WARN("consumer", "store replay failed (retrying): ",
                 events.status().to_string());
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
      continue;
    }
    backoff = std::chrono::milliseconds(1);
    const std::size_t got = events.value().size();
    count += got;
    deliver_page(std::move(events.value()), cursor, dedup_filter);
    if (done(got)) break;
  }
  if (replayed_counter_ != nullptr && count > 0) replayed_counter_->inc(count);
  return count;
}

void Consumer::catch_up(std::stop_token stop) {
  // Demoted: live delivery stopped at the seen watermark. Page the
  // merged store replay until within promotion range of the live head,
  // promote, then finish exactly to the promotion watermark: frames
  // matched after it are queued live, so the seam has no gap and no
  // overlap.
  if (hub_.state(*hub_sub_) != FlowState::kDemoted) return;
  std::optional<VectorCursor> target;
  VectorCursor cursor = seen_cursor();
  (void)page_store(cursor, /*dedup_filter=*/true, stop, [&](std::size_t got) {
    if (!target) {
      if (hub_.state(*hub_sub_) == FlowState::kEvicted) {
        evicted_.store(true);
        return true;
      }
      if (got >= options_.replay_page) return false;  // more backlog
      target = hub_.try_promote(*hub_sub_, cursor);
    }
    // Every id up to the hub's head is durable, so the store always
    // reaches the promotion watermark; short of it, the head moved on.
    return target && reached(cursor, *target);
  });
  if (target && reached(cursor, *target)) {
    // Acknowledge past the promotion watermark now: until it does, the
    // hub keeps this consumer's real cursor in the min-ack.
    std::lock_guard lock(deliver_mu_);
    maybe_ack_locked(/*force=*/true);
  }
}

Result<std::size_t> Consumer::replay_historic(std::optional<common::EventId> after_id) {
  VectorCursor cursor(aggregator_.shard_count());
  if (after_id.has_value()) {
    for (auto& id : cursor.last_ids) id = *after_id;
    return replay_historic(std::move(cursor), /*rewind=*/true);
  }
  {
    std::lock_guard lock(deliver_mu_);
    cursor = acked_;
  }
  return replay_historic(std::move(cursor), /*rewind=*/false);
}

Result<std::size_t> Consumer::replay_historic(VectorCursor cursor, bool rewind) {
  // An intentional rewind resets the dedup window so the requested range
  // is delivered again, and bypasses the duplicate filter for the
  // replayed batches themselves. The batches still mark the window, so
  // live duplicates of the replayed range are suppressed afterwards.
  if (rewind) {
    std::lock_guard lock(deliver_mu_);
    dedup_.clear();
    window_ = dedup_.end();
  }
  // Page through the merged view instead of materializing the whole
  // backlog: a consumer that lagged by millions of events replays in
  // `replay_page`-sized merged pages, each fetched (and freed) in turn.
  return page_store(cursor, /*dedup_filter=*/!rewind, std::stop_token{},
                    [&](std::size_t got) { return got < options_.replay_page; });
}

}  // namespace fsmon::scalable
