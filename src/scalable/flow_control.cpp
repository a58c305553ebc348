#include "src/scalable/flow_control.hpp"

#include <algorithm>
#include <chrono>

#include "src/common/logging.hpp"
#include "src/scalable/sharded_aggregator.hpp"

namespace fsmon::scalable {

using common::Status;

namespace {
/// The pump's tick: this often, busy or idle, it forwards consumer acks
/// and the watermark of subscriptions that never ack to the stores, and
/// looks for a refused last frame.
constexpr auto kForwardInterval = std::chrono::milliseconds(10);

/// A demoted subscription whose acknowledged cursor has not moved for
/// this long has stopped draining; one that still acks, however far
/// behind, is catching up and is left alone.
constexpr auto kStallGrace = std::chrono::seconds(1);

/// Read one record of `frame` in place into its match key, and fold its
/// id and (source, cookie) into the frame summary consumers advance by.
Status peek_record(std::span<const std::byte> record, HubFrame& frame, MatchKey& key) {
  core::EventFields fields;
  if (Status s = core::peek_event_fields(record, fields); !s.is_ok()) return s;
  key = {fields.path, fields.kind};
  frame.last_id = std::max(frame.last_id, fields.id);
  if (fields.cookie == 0 || fields.source.empty()) return Status::ok();
  auto it = std::find_if(frame.max_cookies.begin(), frame.max_cookies.end(),
                         [&](const auto& entry) { return entry.first == fields.source; });
  if (it == frame.max_cookies.end()) {
    frame.max_cookies.emplace_back(fields.source, fields.cookie);
  } else {
    it->second = std::max(it->second, fields.cookie);
  }
  return Status::ok();
}

/// Copy a frame borrowed from a transport (a shm ring record) into owned
/// bytes. The view holds offsets and stays valid; the source names are
/// re-pointed into the copy.
void own_bytes(HubFrame& frame) {
  const auto* old_base = reinterpret_cast<const char*>(frame.frame.bytes().data());
  frame.frame = transport::FrameRef::copy(frame.frame.bytes());
  const auto* base = reinterpret_cast<const char*>(frame.frame.bytes().data());
  for (auto& [source, cookie] : frame.max_cookies)
    source = std::string_view(base + (source.data() - old_base), source.size());
}
}  // namespace

std::string_view to_string(FlowState state) {
  switch (state) {
    case FlowState::kLive: return "live";
    case FlowState::kDemoted: return "demoted";
    case FlowState::kEvicted: return "evicted";
  }
  return "unknown";
}

FlowMetrics FlowMetrics::create(obs::MetricsRegistry& registry,
                                const obs::Labels& labels) {
  FlowMetrics m;
  m.demotions = &registry.counter(
      "flow.demotions", labels,
      "Subscriptions demoted to store replay after exhausting credits",
      "demotions");
  m.promotions = &registry.counter(
      "flow.promotions", labels,
      "Subscriptions promoted back to live delivery after catch-up",
      "promotions");
  m.evictions = &registry.counter(
      "flow.evictions", labels,
      "Demoted subscriptions evicted for never draining", "evictions");
  m.gaps = &registry.counter(
      "flow.gaps", labels,
      "Ids missing from a shard's published stream (refused sends); repaired "
      "from the store, or lost without one",
      "events");
  m.live = &registry.gauge("flow.live_subscribers", labels,
                           "Subscriptions in live delivery", "subscribers");
  m.demoted = &registry.gauge("flow.demoted_subscribers", labels,
                              "Subscriptions catching up from the store",
                              "subscribers");
  return m;
}

FanOutHub::FanOutHub(ShardedAggregator& aggregator, FlowControlOptions options)
    : aggregator_(aggregator),
      options_(options),
      can_demote_(aggregator.shard(0).store() != nullptr),
      index_(options.metrics != nullptr
                 ? SubIndexMetrics::create(*options.metrics)
                 : SubIndexMetrics{}),
      heads_(aggregator.shard_count()),
      forwarded_(aggregator.shard_count()),
      overdue_(aggregator.shard_count()) {
  if (options_.credit_window == 0) options_.credit_window = 1;
  if (options_.promote_lag == 0)
    options_.promote_lag = std::max<std::uint64_t>(1, options_.credit_window / 4);
  if (options_.metrics != nullptr)
    metrics_ = FlowMetrics::create(*options_.metrics);
}

FanOutHub::~FanOutHub() {
  std::shared_ptr<transport::Receiver> receiver;
  {
    std::lock_guard lock(mu_);
    receiver = receiver_;
  }
  if (receiver == nullptr) return;
  receiver->close();
  pump_thread_.request_stop();
  if (pump_thread_.joinable()) pump_thread_.join();
}

void FanOutHub::attach_locked() {
  receiver_ = aggregator_.transport().make_receiver(
      "fanout-hub", options_.high_water_mark, transport::OverflowPolicy::kBlock);
  receiver_->subscribe("");
  for (std::size_t k = 0; k < aggregator_.shard_count(); ++k)
    aggregator_.shard(k).connect_output(receiver_);
  // Events published before the first subscription are historic, as for
  // any subscription made later. Read after connecting: a frame that
  // raced the connect is either below this watermark or pumped live.
  const VectorCursor head = aggregator_.published_cursor();
  for (std::size_t k = 0; k < head.size(); ++k) heads_.advance(k, head.at(k));
  pump_thread_ = std::jthread([this](std::stop_token stop) { pump(stop); });
}

std::shared_ptr<FanOutHub::Subscription> FanOutHub::subscribe(
    std::span<const core::CompiledRule> rules) {
  auto sub = std::make_shared<Subscription>();
  std::lock_guard lock(mu_);
  if (receiver_ == nullptr) attach_locked();
  sub->id_ = index_.add_subscriber(rules);
  sub->state_ = FlowState::kLive;
  sub->credits_ = static_cast<std::int64_t>(options_.credit_window);
  sub->acked_ = heads_;
  // A frame the pump has already matched (without this subscriber in
  // the index) but not yet committed to heads_ would otherwise sit
  // above the recorded watermark while never being delivered or
  // replayed — count it as historic. If add_subscriber instead won the
  // race on the index lock, the frame arrives live as an early
  // (pre-watermark) delivery, which is harmless: fresh, deduped, no gap.
  if (pending_valid_) sub->acked_.advance(pending_shard_, pending_last_id_);
  sub->owed_ = sub->acked_;
  sub->announced_ = sub->acked_;
  if (subs_.size() <= sub->id_) subs_.resize(sub->id_ + 1);
  subs_[sub->id_] = sub;
  ++live_count_;
  update_gauges_locked();
  return sub;
}

void FanOutHub::unsubscribe(Subscription& sub) {
  {
    std::lock_guard lock(mu_);
    if (sub.id_ < subs_.size() && subs_[sub.id_].get() == &sub) {
      if (sub.state_ != FlowState::kEvicted) {
        index_.remove_subscriber(sub.id_);
        if (sub.state_ == FlowState::kLive) --live_count_;
        if (sub.state_ == FlowState::kDemoted) --demoted_count_;
        std::erase(demoted_, sub.id_);
        sub.state_ = FlowState::kEvicted;
      }
      subs_[sub.id_] = nullptr;
      update_gauges_locked();
    }
  }
  std::lock_guard qlock(sub.queue_mu_);
  sub.queue_closed_ = true;
  sub.queue_cv_.notify_all();
}

std::optional<HubItem> FanOutHub::pop(Subscription& sub, std::stop_token stop) {
  std::unique_lock lock(sub.queue_mu_);
  sub.queue_cv_.wait(lock, stop, [&sub] { return !sub.queue_.empty() || sub.queue_closed_; });
  if (sub.queue_.empty()) return std::nullopt;  // stopped or closed
  HubItem item = std::move(sub.queue_.front());
  sub.queue_.pop_front();
  // Wake a storeless pump waiting for room below the credit window.
  const std::uint64_t window = options_.credit_window;
  const bool was_full = sub.queued_events_ >= window;
  sub.queued_events_ -= item.indices.size();
  if (was_full && sub.queued_events_ < window) sub.queue_cv_.notify_all();
  return item;
}

void FanOutHub::acknowledge(Subscription& sub, const VectorCursor& cursor,
                            std::uint64_t processed_events) {
  std::lock_guard lock(mu_);
  if (sub.state_ == FlowState::kEvicted) return;
  for (std::size_t k = 0; k < cursor.size(); ++k)
    sub.acked_.advance(k, cursor.at(k));
  sub.credits_ = std::min<std::int64_t>(
      static_cast<std::int64_t>(options_.credit_window),
      sub.credits_ + static_cast<std::int64_t>(processed_events));
}

std::optional<VectorCursor> FanOutHub::try_promote(Subscription& sub,
                                                   const VectorCursor& cursor) {
  std::lock_guard lock(mu_);
  if (sub.state_ != FlowState::kDemoted) return std::nullopt;
  const std::uint64_t head = heads_.sum();
  const std::uint64_t reached = cursor.sum();
  if (head > reached && head - reached > options_.promote_lag)
    return std::nullopt;
  sub.state_ = FlowState::kLive;
  sub.credits_ = static_cast<std::int64_t>(options_.credit_window);
  // The consumer still replays up to heads_: until it acknowledges that
  // far, its real cursor stays in the min-ack.
  for (std::size_t k = 0; k < heads_.size(); ++k) sub.owed_.advance(k, heads_.at(k));
  std::erase(demoted_, sub.id_);
  --demoted_count_;
  ++live_count_;
  if (metrics_.promotions != nullptr) metrics_.promotions->inc();
  update_gauges_locked();
  // Every frame matched before this point has last_id <= this snapshot;
  // every frame after it is delivered live. The caller finishes its
  // replay exactly to the snapshot for a gap-free, duplicate-free seam.
  return heads_;
}

FlowState FanOutHub::state(const Subscription& sub) const {
  std::lock_guard lock(mu_);
  return sub.state_;
}

VectorCursor FanOutHub::acked(const Subscription& sub) const {
  std::lock_guard lock(mu_);
  return sub.acked_;
}

bool FanOutHub::push_item(Subscription& sub, HubItem item) {
  std::lock_guard lock(sub.queue_mu_);
  if (sub.queue_closed_) return false;
  sub.queued_events_ += item.indices.size();
  sub.queue_.push_back(std::move(item));
  sub.queue_cv_.notify_one();
  return sub.queued_events_ >= options_.credit_window;
}

void FanOutHub::demote_locked(Subscription& sub) {
  sub.state_ = FlowState::kDemoted;
  demoted_.push_back(sub.id_);
  sub.progress_ = sub.acked_.sum();
  sub.progress_at_ = std::chrono::steady_clock::now();
  --live_count_;
  ++demoted_count_;
  if (metrics_.demotions != nullptr) metrics_.demotions->inc();
  update_gauges_locked();
  HubItem marker;
  marker.kind = HubItem::Kind::kDemoted;
  push_item(sub, std::move(marker));
}

void FanOutHub::announce_heads_locked() {
  for (const auto& sub : subs_) {
    if (!sub || sub->state_ != FlowState::kLive) continue;
    bool behind = false;
    for (std::size_t k = 0; k < heads_.size(); ++k)
      behind = behind || heads_.at(k) > sub->announced_.at(k);
    if (!behind) continue;
    // Only into an empty queue: a consumer that is still draining learns
    // the head on a later tick, and a stalled one never collects more
    // than one watermark.
    std::lock_guard qlock(sub->queue_mu_);
    if (!sub->queue_.empty() || sub->queue_closed_) continue;
    HubItem item;
    item.kind = HubItem::Kind::kWatermark;
    item.head = heads_;
    sub->queue_.push_back(std::move(item));
    sub->queue_cv_.notify_one();
    sub->announced_ = heads_;
  }
}

void FanOutHub::repair_locked(std::size_t shard, common::EventId last_missing) {
  const std::uint64_t missing = last_missing - heads_.at(shard);
  heads_.advance(shard, last_missing);
  if (metrics_.gaps != nullptr) metrics_.gaps->inc(missing);
  if (!can_demote_) {
    FSMON_WARN("fanout", "shard ", shard, " lost ", missing,
               " refused events (no store to repair from)");
    return;
  }
  for (const auto& sub : subs_) {
    if (sub && sub->state_ == FlowState::kLive) demote_locked(*sub);
  }
}

void FanOutHub::evict_overdue_locked() {
  if (options_.eviction_lag == 0 || demoted_.empty()) return;
  const std::uint64_t reachable = heads_.sum();
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < demoted_.size();) {
    auto& sub = subs_[demoted_[i]];
    const std::uint64_t acked = sub->acked_.sum();
    if (acked != sub->progress_) {
      sub->progress_ = acked;
      sub->progress_at_ = now;
    }
    if (reachable > acked && reachable - acked > options_.eviction_lag &&
        now - sub->progress_at_ >= kStallGrace) {
      index_.remove_subscriber(sub->id_);
      sub->state_ = FlowState::kEvicted;
      --demoted_count_;
      if (metrics_.evictions != nullptr) metrics_.evictions->inc();
      HubItem marker;
      marker.kind = HubItem::Kind::kEvicted;
      push_item(*sub, std::move(marker));
      demoted_[i] = demoted_.back();
      demoted_.pop_back();
      update_gauges_locked();
    } else {
      ++i;
    }
  }
}

void FanOutHub::tick() {
  // Published ids first, then the inbox: a frame published before the
  // read is either still in the inbox (not idle) or was refused.
  const VectorCursor published = aggregator_.published_cursor();
  const bool idle = receiver_->pending() == 0;
  std::unique_lock lock(mu_);
  for (std::size_t k = 0; k < heads_.size(); ++k) {
    // Published a tick ago and still not pumped, with nothing left to
    // pump: the send was refused.
    if (idle && overdue_.at(k) > heads_.at(k)) repair_locked(k, overdue_.at(k));
    overdue_.last_ids[k] = idle && published.at(k) > heads_.at(k) ? published.at(k) : 0;
  }
  announce_heads_locked();
  evict_overdue_locked();
  VectorCursor min_cursor = heads_;
  bool any = false;
  for (const auto& sub : subs_) {
    if (!sub || sub->state_ == FlowState::kEvicted) continue;
    any = true;
    for (std::size_t k = 0; k < min_cursor.size(); ++k) {
      // A live subscription that has acknowledged every frame queued for
      // it on shard k needs nothing below heads_ there: the frames it
      // was not sent matched none of its rules. One that still owes an
      // ack — an unprocessed frame, or the replay up to its promotion
      // watermark — holds the min at its real cursor, and so does a
      // demoted one, which still pages the store.
      const bool settled =
          sub->state_ == FlowState::kLive && sub->acked_.at(k) >= sub->owed_.at(k);
      if (!settled)
        min_cursor.last_ids[k] = std::min(min_cursor.last_ids[k], sub->acked_.at(k));
    }
  }
  if (!any) return;
  bool advanced = false;
  for (std::size_t k = 0; k < min_cursor.size(); ++k)
    advanced = advanced || min_cursor.at(k) > forwarded_.at(k);
  if (!advanced) return;
  for (std::size_t k = 0; k < min_cursor.size(); ++k) forwarded_.advance(k, min_cursor.at(k));
  // Outside the lock: the store persists its watermark to a file.
  lock.unlock();
  aggregator_.acknowledge(min_cursor);
}

std::size_t FanOutHub::shard_of_topic(std::string_view topic) const {
  // Shard outputs publish under "<base>/shard<k>" when sharded, or the
  // bare base topic with one shard.
  if (aggregator_.shard_count() == 1) return 0;
  const std::size_t pos = topic.rfind("/shard");
  if (pos == std::string_view::npos) return 0;
  std::size_t shard = 0;
  for (char c : topic.substr(pos + 6)) {
    if (c < '0' || c > '9') return 0;
    shard = shard * 10 + static_cast<std::size_t>(c - '0');
  }
  return shard < aggregator_.shard_count() ? shard : 0;
}

void FanOutHub::update_gauges_locked() {
  if (metrics_.live != nullptr) {
    metrics_.live->set(static_cast<std::int64_t>(live_count_));
    metrics_.demoted->set(static_cast<std::int64_t>(demoted_count_));
  }
}

void FanOutHub::pump(std::stop_token stop) {
  DeliverySet delivery;
  std::vector<MatchKey> keys;
  auto last_forward = std::chrono::steady_clock::now();
  while (!stop.stop_requested()) {
    auto message = receiver_->recv(kForwardInterval);
    if (message) {
      pump_frame(std::move(message->payload), message->topic, delivery, keys, stop);
    } else if (receiver_->closed()) {
      break;
    }
    if (const auto now = std::chrono::steady_clock::now(); now - last_forward >= kForwardInterval) {
      last_forward = now;
      tick();
    }
  }
}

void FanOutHub::pump_frame(transport::FrameRef frame, std::string_view topic,
                           DeliverySet& delivery, std::vector<MatchKey>& keys,
                           std::stop_token stop) {
  auto hub_frame = std::make_shared<HubFrame>();
  hub_frame->frame = std::move(frame);
  const auto bytes = hub_frame->frame.bytes();
  auto view = core::view_batch(bytes);
  Status status = view.status();
  keys.clear();
  if (view) {
    hub_frame->view = std::move(view.value());
    keys.resize(hub_frame->view.count);
    for (std::size_t i = 0; i < keys.size() && status.is_ok(); ++i) {
      const auto& [offset, length] = hub_frame->view.events[i];
      status = peek_record(bytes.subspan(offset, length), *hub_frame, keys[i]);
    }
  }
  if (!status.is_ok()) {
    FSMON_WARN("fanout", "corrupt batch frame: ", status.to_string());
    return;
  }
  if (keys.empty()) return;
  hub_frame->shard = shard_of_topic(topic);
  const std::size_t shard = hub_frame->shard;
  const common::EventId last_id = hub_frame->last_id;
  {
    // Publish the frame as in-flight so subscribe() can order itself
    // against it (see the pending_* comment in the header).
    std::lock_guard lock(mu_);
    pending_shard_ = shard;
    pending_last_id_ = last_id;
    pending_valid_ = true;
  }
  // The index has its own lock; matching runs outside the hub mutex so
  // subscribe/ack calls are never blocked behind a large batch.
  index_.match_batch(keys, delivery);
  frames_.fetch_add(1);
  // A queued item may outlive its frame's transport record by up to a
  // credit window; a shm ring record must not stay pinned that long.
  // Matching read the borrowed bytes in place; only a frame that is
  // delivered at all is copied out.
  if (!delivery.touched().empty() && hub_frame->frame.borrowed()) own_bytes(*hub_frame);

  // A shard's ids are dense and its frames carry consecutive ids.
  const common::EventId first_id = last_id + 1 - hub_frame->view.count;
  std::shared_ptr<const HubFrame> shared = std::move(hub_frame);
  std::vector<std::shared_ptr<Subscription>> full;  // storeless back-pressure
  std::unique_lock lock(mu_);
  pending_valid_ = false;
  // Late for a hole the tick already repaired (a link slower than two
  // ticks): the store serves it to every subscription.
  if (last_id <= heads_.at(shard)) return;
  if (first_id > heads_.at(shard) + 1) repair_locked(shard, first_id - 1);
  heads_.advance(shard, last_id);
  for (SubscriberId id : delivery.touched()) {
    if (id >= subs_.size() || !subs_[id]) continue;
    Subscription& sub = *subs_[id];
    if (sub.state_ != FlowState::kLive) continue;
    const auto indices = delivery.indices_for(id);
    HubItem item;
    item.frame = shared;
    item.indices.assign(indices.begin(), indices.end());
    sub.credits_ -= static_cast<std::int64_t>(indices.size());
    sub.owed_.advance(shard, last_id);
    sub.announced_.advance(shard, last_id);
    const bool queue_full = push_item(sub, std::move(item));
    // Demote at the credit edge: the push that spends the window also
    // queues the marker, so the consumer learns it must catch up from
    // the store without waiting for further traffic.
    if (can_demote_ && sub.credits_ <= 0) demote_locked(sub);
    if (!can_demote_ && queue_full) full.push_back(subs_[id]);
  }
  lock.unlock();
  // Storeless there is no store to catch up from: hold the frames that
  // follow until the slow consumer drains below its window (or leaves).
  for (const auto& sub : full) {
    std::unique_lock qlock(sub->queue_mu_);
    sub->queue_cv_.wait(qlock, stop, [&] {
      return sub->queue_closed_ || sub->queued_events_ < options_.credit_window;
    });
  }
}

}  // namespace fsmon::scalable
