#include "src/scalable/aggregator.hpp"

#include <algorithm>
#include <chrono>

#include "src/chaos/fault.hpp"
#include "src/common/logging.hpp"
#include "src/transport/inproc.hpp"

namespace fsmon::scalable {

using common::Result;
using common::Status;

Aggregator::Aggregator(std::string name, AggregatorOptions options, common::Clock& clock)
    : name_(std::move(name)),
      options_(std::move(options)),
      clock_(clock),
      meter_(clock) {
  if (options_.transport != nullptr) {
    transport_ = options_.transport;
  } else {
    owned_transport_ = std::make_unique<transport::InProcTransport>();
    transport_ = owned_transport_.get();
  }
  input_ = transport_->make_receiver(name_ + "/inbox", options_.inbox_high_water_mark,
                                     transport::OverflowPolicy::kBlock);
  input_->subscribe("");  // fan-in: accept every collector topic
  output_ = transport_->make_sender(name_ + "/out");
  if (options_.store) {
    eventstore::EventStoreOptions store_options = *options_.store;
    if (store_options.metrics == nullptr) store_options.metrics = options_.metrics;
    if (store_options.labels.empty()) store_options.labels = options_.labels;
    store_ = std::make_unique<eventstore::EventStore>(store_options);
    next_id_.store(store_->last_id() + 1);
    published_id_.store(store_->last_id());
    rebuild_accepted_from_store();
  }
  if (options_.metrics != nullptr) {
    deduped_counter_ = &options_.metrics->counter(
        "recovery.events_deduped", options_.labels,
        "Replayed duplicate events trimmed by the per-source watermark", "events");
    gapped_counter_ = &options_.metrics->counter(
        "recovery.gapped_frames", options_.labels,
        "Frames refused because they opened a hole above the durable watermark",
        "frames");
  }
  if (options_.metrics != nullptr) {
    auto& registry = *options_.metrics;
    const obs::Labels& labels = options_.labels;
    aggregated_counter_ = &registry.counter(
        "aggregator.events_aggregated", labels,
        "Events received from collectors and assigned global ids", "events");
    persisted_counter_ = &registry.counter("aggregator.events_persisted", labels,
                                           "Events appended to the reliable store", "events");
    queue_depth_gauge_ = &registry.gauge(
        "aggregator.queue_depth", labels,
        "Fan-in inbox backlog (frames) when the last frame was taken", "frames");
    queue_depth_peak_gauge_ = &registry.gauge("aggregator.queue_depth_peak", labels,
                                              "High-water mark of the fan-in backlog",
                                              "events");
    publish_rate_gauge_ = &registry.gauge("aggregator.publish_rate", labels,
                                          "Lifetime average events/second published",
                                          "events/s");
    fanout_receivers_gauge_ = &registry.gauge(
        "aggregator.fanout_receivers", labels,
        "Receivers connected to this shard's output (the fan-out hub, "
        "once a consumer has subscribed)",
        "receivers");
    fanout_lag_hist_ = &registry.histogram(
        "aggregator.fanout_lag_us", labels,
        "Operation timestamp to aggregator publish (fan-out lag)", "us");
    batch_size_hist_ = &registry.histogram("aggregator.batch_size", labels,
                                           "Events per batch frame carried through the "
                                           "aggregator",
                                           "events");
    batch_bytes_hist_ = &registry.histogram("aggregator.batch_bytes", labels,
                                            "Encoded bytes per batch frame carried "
                                            "through the aggregator",
                                            "bytes");
    group_size_hist_ = &registry.histogram(
        "wal.group_size", labels,
        "Batch frames committed by one WAL append + flush", "batches");
    group_commit_latency_hist_ = &registry.histogram(
        "wal.group_commit_latency", labels,
        "Wall time to commit one group (append + fsync)", "us");
  }
}

Aggregator::~Aggregator() { stop(); }

Status Aggregator::start() {
  if (running_.load()) return Status::ok();
  // A prior stop() closed the inbox (drained by the exiting loop) and a
  // crash closed it with a lost backlog; reopen it empty so stop()/start()
  // and restart cycles resume. An inbox that was never closed keeps what
  // was sent before the first start().
  if (input_->closed()) input_->reopen();
  running_.store(true);
  loop_thread_ = std::jthread([this](std::stop_token stop) { run_loop(stop); });
  if (store_ != nullptr && options_.purge_interval.count() > 0)
    purge_thread_ = std::jthread([this](std::stop_token stop) { purge_loop(stop); });
  return Status::ok();
}

void Aggregator::stop() {
  if (!running_.load()) return;
  input_->close();
  if (loop_thread_.joinable()) {
    loop_thread_.request_stop();
    loop_thread_.join();
  }
  if (purge_thread_.joinable()) {
    purge_thread_.request_stop();
    purge_thread_.join();
  }
  running_.store(false);
}

void Aggregator::crash() {
  crashed_.store(true);
  if (!running_.load()) {
    // Stopped (stepped draining): the inbox dies with the process all
    // the same, and start() reopens it empty.
    input_->close();
    return;
  }
  // Same teardown as stop(), but the loop exits on the crashed flag
  // without draining: whatever was buffered is lost, like process memory.
  stop();
}

Status Aggregator::restart() {
  // A self-inflicted fail-stop (injected crash, store append failure)
  // exits the worker loop but leaves running_ set and the inbox open;
  // finish the teardown before recovering.
  if (crashed_.load()) crash();
  if (running_.load()) return Status::ok();
  // The inbox stays closed until start() reopens it (empty: a real
  // restart starts with no process memory). Reopening here would open a
  // drop window: a rewound collector could replay into the inbox while
  // store recovery below is still running, and start()'s reopen would
  // discard that frame as stale backlog — a permanently lost replay,
  // since the collector saw it accepted and moved on.
  if (options_.store) {
    // Release the old handle first (it holds the active WAL segment open),
    // then run genuine recovery from disk: segment scan, torn-tail
    // truncation, id resumption.
    std::unique_lock lock(store_mu_);
    store_.reset();
    eventstore::EventStoreOptions store_options = *options_.store;
    if (store_options.metrics == nullptr) store_options.metrics = options_.metrics;
    if (store_options.labels.empty()) store_options.labels = options_.labels;
    store_ = std::make_unique<eventstore::EventStore>(store_options);
    published_id_.store(store_->last_id());
  }
  // Ids resume after the last published (= last durable) id, so a
  // shard's published ids stay dense: ids the crash took from frames it
  // never published are handed out again.
  next_id_.store(published_id_.load() + 1);
  rebuild_accepted_from_store();
  crashed_.store(false);
  return start();
}

std::size_t Aggregator::drain_once() {
  if (running_.load()) return 0;
  std::size_t frames = 0;
  // Groups of one: chaos schedules (crash on the Nth persist) stay
  // per-batch deterministic under synchronous draining.
  while (!crashed_.load(std::memory_order_relaxed)) {
    auto message = input_->try_recv();
    if (!message) break;
    frames += run_group(std::move(*message), 0);
  }
  return frames;
}

void Aggregator::ack(std::string_view source, std::uint64_t record_index) {
  if (ack_callback_ && record_index > 0) ack_callback_(source, record_index);
}

void Aggregator::rebuild_accepted_from_store() {
  accepted_seq_.clear();
  if (store_ == nullptr) return;
  // Peek (source, cookie) out of each durable payload without decoding
  // full events: the watermark map must reflect everything already
  // persisted so replays arriving after a restart are recognized.
  // Streamed via for_each_since — the store may hold far more events
  // than fit in memory, and only the watermark map needs to survive.
  auto status = store_->for_each_since(
      0, SIZE_MAX,
      [&](common::EventId, std::span<const std::byte> payload, bool) {
        auto source = core::peek_event_source(payload);
        auto cookie = core::peek_event_cookie(payload);
        if (!source || !cookie || cookie.value() == 0) return true;
        auto [it, inserted] = accepted_seq_.emplace(source.value(), cookie.value());
        if (!inserted) it->second = std::max(it->second, cookie.value());
        return true;
      });
  if (!status.is_ok())
    FSMON_WARN("aggregator", "accepted-watermark rebuild stopped early: ",
               status.to_string());
}

bool Aggregator::process_frame(transport::Frame& message, std::vector<Custody>& group) {
  // Sole-owner fast path: the collector adopted the buffer, every hop
  // since was a refcount move, so this hands out the original bytes for
  // the in-place id patch. A shared frame (multi-subscriber fan-in)
  // detaches here — one counted copy, never a torn patch.
  auto frame = message.payload.mutable_bytes();
  auto view = core::view_batch(frame);
  if (!view) {
    FSMON_WARN("aggregator", "dropping corrupt batch frame: ",
               view.status().to_string());
    return false;
  }
  if (view.value().count == 0) return false;

  // Replay dedup: a collector that restarted re-publishes every record
  // past its cleared index. Events whose (source, changelog-index) pair
  // is at or below the accepted watermark are already durable — trim
  // them so store delivery stays exactly-once. cookie==0 marks events
  // with no record identity (synthetic producers); never deduped.
  // Materialized (not a view): the frame buffer may be replaced below.
  std::string source;
  if (auto s = core::peek_event_source(frame.subspan(
          view.value().events[0].first, view.value().events[0].second))) {
    source.assign(s.value());
  }
  std::uint64_t watermark = 0;
  bool source_known = false;
  if (!source.empty()) {
    if (auto it = accepted_seq_.find(source); it != accepted_seq_.end()) {
      watermark = it->second;
      source_known = true;
    }
  }
  std::uint64_t frame_max_seq = 0;
  std::uint64_t frame_min_seq = 0;
  std::vector<std::pair<std::size_t, std::size_t>> kept;
  kept.reserve(view.value().events.size());
  for (const auto& [offset, length] : view.value().events) {
    auto cookie = core::peek_event_cookie(frame.subspan(offset, length));
    const std::uint64_t seq = cookie ? cookie.value() : 0;
    frame_max_seq = std::max(frame_max_seq, seq);
    if (seq != 0 && (frame_min_seq == 0 || seq < frame_min_seq)) frame_min_seq = seq;
    if (seq != 0 && seq <= watermark) continue;  // duplicate of a durable event
    kept.emplace_back(offset, length);
  }
  if (store_ != nullptr && source_known && frame_min_seq > watermark + 1) {
    // A hole between the watermark and this frame means records were lost
    // upstream — typically published while the inbox was closed across a
    // crash window. Accepting the frame would let its ack clear changelog
    // records that never reached the store, so refuse it: the collector
    // rewind replays the run contiguously, and the refused records stay
    // retained (visible) rather than lost (silent). A source with no
    // watermark entry is exempt — its first records may legitimately
    // start anywhere (changelog users register mid-stream).
    FSMON_WARN("aggregator", "refusing gapped frame from ", source, ": watermark ",
               watermark, ", frame starts at record ", frame_min_seq);
    if (gapped_counter_ != nullptr) gapped_counter_->inc();
    // The sender's transport-level send already succeeded, so the refusal
    // is invisible upstream; nack so the owning collector rewinds and
    // re-publishes the missing run instead of wedging on the gap.
    if (nack_callback_) nack_callback_(source, watermark);
    return false;
  }
  const std::size_t dropped = view.value().events.size() - kept.size();
  if (dropped > 0) {
    deduped_.fetch_add(dropped);
    if (deduped_counter_ != nullptr) deduped_counter_->inc(dropped);
  }
  if (kept.empty()) {
    // Nothing new. The ack still has to flow (a replayed-and-fully-
    // deduped batch must eventually clear from the changelog), but the
    // watermark only proves the records were *accepted* — the original
    // frame may still be in this uncommitted group. Acking here would let
    // the changelog clear records that die with the process if that
    // commit fails, so the ack rides the group as an ack-only marker: it
    // is released only after everything accepted before it is durable.
    group.push_back(Custody{0, 0, std::move(source), frame_max_seq, {}});
    return false;
  }
  if (dropped > 0) {
    auto bytes = core::rebuild_batch(frame, kept);
    message.payload = transport::FrameRef::adopt(std::move(bytes));
    frame = message.payload.mutable_bytes();
    view = core::view_batch(frame, /*verify_crc=*/false);
    if (!view) return false;  // unreachable: rebuild produces valid frames
  }

  // Generic point first, then this instance's scoped point (set per
  // shard): a fault plan can hit every aggregator or exactly one.
  auto outcome = chaos::fault("aggregator.before_publish");
  if (!outcome && !options_.fault_scope.empty())
    outcome = chaos::fault(options_.fault_scope + "before_publish");
  if (outcome) {
    if (outcome.action == chaos::FaultAction::kCrash) {
      crashed_.store(true);
      return false;
    }
    if (outcome.action == chaos::FaultAction::kDelay) clock_.sleep_for(outcome.delay);
    if (outcome.action == chaos::FaultAction::kDrop) {
      // The watermark has not moved, so the source's next frame is gap-
      // refused; the nack replays this one too, and also covers a
      // source's first frame, which the gap check exempts.
      if (nack_callback_ && !source.empty()) nack_callback_(source, watermark);
      return false;
    }
  }
  // Raised only for a frame that survived the fault point: a dropped
  // frame must leave a hole the next frame's gap check can see.
  if (!source.empty() && frame_max_seq > watermark) accepted_seq_[source] = frame_max_seq;

  // Claim the ids only once the patch succeeded: a claimed id that is
  // never published would read as a hole to the hub.
  const std::size_t count = view.value().count;
  const common::EventId first_id = next_id_.load();
  if (auto patched = core::patch_batch_ids(frame, first_id); !patched) {
    FSMON_WARN("aggregator", "dropping unpatchable batch frame: ",
               patched.status().to_string());
    return false;
  }
  next_id_.fetch_add(count);
  aggregated_.fetch_add(count);
  meter_.record(count);
  if (aggregated_counter_ != nullptr) {
    aggregated_counter_->inc(count);
    const auto depth = static_cast<std::int64_t>(input_->pending());
    queue_depth_gauge_->set(depth);
    queue_depth_peak_gauge_->set_max(depth);
    publish_rate_gauge_->set(static_cast<std::int64_t>(meter_.snapshot().average_rate));
    batch_size_hist_->record(count);
    batch_bytes_hist_->record(frame.size());
    const auto now = clock_.now();
    for (const auto& [offset, length] : view.value().events) {
      auto timestamp = core::peek_event_timestamp(frame.subspan(offset, length));
      if (!timestamp) continue;
      const auto lag = now - timestamp.value();
      if (lag.count() >= 0)
        fanout_lag_hist_->record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(lag).count()));
    }
  }
  group.push_back(Custody{first_id, first_id + count - 1, std::move(source), frame_max_seq,
                          std::move(message.payload)});
  return true;
}

void Aggregator::run_loop(std::stop_token) {
  for (;;) {
    if (crashed_.load(std::memory_order_relaxed)) break;
    auto message = input_->recv();
    if (!message) break;  // closed and drained
    run_group(std::move(*message), options_.wal_group_commit_bytes);
  }
}

std::size_t Aggregator::run_group(transport::Frame first, std::size_t byte_budget) {
  std::size_t frames = 0;
  std::size_t bytes = 0;
  std::optional<transport::Frame> message = std::move(first);
  while (message) {
    bytes += message->payload.size();
    if (process_frame(*message, group_)) ++frames;
    if (crashed_.load(std::memory_order_relaxed) || bytes >= byte_budget) break;
    message = input_->try_recv();
  }
  if (!crashed_.load(std::memory_order_relaxed)) release(group_);
  // Drop the group's frames before blocking on the inbox again: over shm
  // each one pins its ring record, and a ring filled by one group would
  // otherwise wedge the sender that has to refill the inbox.
  group_.clear();
  return frames;
}

void Aggregator::release(std::span<Custody> group) {
  bool crash_after_commit = false;
  if (store_ != nullptr) {
    // Per-batch fault points first: chaos schedules count batches, not
    // groups, so a plan like "crash on the 3rd persist" fires at the
    // same batch whatever the grouping. A crash admits only the prefix
    // ahead of the firing batch: that prefix commits, publishes and
    // acks; the firing batch and everything after it die unacked.
    for (std::size_t i = 0; i < group.size(); ++i) {
      auto outcome = chaos::fault("aggregator.before_persist");
      if (!outcome && !options_.fault_scope.empty())
        outcome = chaos::fault(options_.fault_scope + "before_persist");
      if (!outcome) continue;
      if (outcome.action == chaos::FaultAction::kCrash) {
        group = group.first(i);
        crash_after_commit = true;
        break;
      }
      if (outcome.action == chaos::FaultAction::kDelay) clock_.sleep_for(outcome.delay);
    }
    if (!commit(group)) return;
  }
  // Committed: publish. A send the hub refuses is not retried; the hub
  // sees the hole in this shard's dense ids and repairs it from the
  // store. The last reference moves into the send, so a single-receiver
  // hop never bumps the refcount.
  for (Custody& batch : group) {
    if (batch.frame.empty()) continue;
    output_->send(options_.output_topic, std::move(batch.frame));
    published_id_.store(batch.last_id);
  }
  for (const Custody& batch : group) ack(batch.source, batch.last_seq);
  if (crash_after_commit) crashed_.store(true);
}

bool Aggregator::commit(std::span<Custody> group) {
  // Ids are consecutive across the whole group (one loop assigns them in
  // inbox order; ack-only markers carry no ids, so they never break a
  // run), so the group commits with ONE vectored append and ONE flush.
  std::vector<std::span<const std::byte>> payloads;
  std::vector<std::size_t> batch_ends;  // payloads.size() after each data batch
  common::EventId first_id = 0;
  for (const Custody& batch : group) {
    if (batch.frame.empty()) continue;  // ack-only marker
    const auto frame = batch.frame.bytes();
    // The CRC was verified (and rewritten by the id patch) in
    // process_frame; only the structure is needed to slice out payloads.
    auto view = core::view_batch(frame, /*verify_crc=*/false);
    if (!view) {
      FSMON_ERROR("aggregator", "commit batch unreadable: ", view.status().to_string());
      crashed_.store(true);
      return false;
    }
    if (batch_ends.empty()) first_id = batch.first_id;
    for (const auto& [offset, length] : view.value().events)
      payloads.push_back(frame.subspan(offset, length));
    batch_ends.push_back(payloads.size());
  }
  if (batch_ends.empty()) return true;

  // Torn-group fault, evaluated once per commit group: kCrash keeps a
  // prefix of the group's batches (outcome.arg of them) durable but
  // crashes before ANY of them is published or acked — the replayed
  // suffix dedups against the store's watermark after restart, and the
  // hub repairs the durable prefix from the store. kFail is a fail-stop
  // with nothing written.
  bool torn_crash = false;
  auto torn = chaos::fault("wal.group_commit_torn");
  if (!torn && !options_.fault_scope.empty())
    torn = chaos::fault(options_.fault_scope + "group_commit_torn");
  if (torn) {
    if (torn.action == chaos::FaultAction::kCrash) {
      torn_crash = true;
      const std::size_t keep = std::min<std::uint64_t>(torn.arg, batch_ends.size());
      payloads.resize(keep == 0 ? 0 : batch_ends[keep - 1]);
    } else if (torn.action == chaos::FaultAction::kFail ||
               torn.action == chaos::FaultAction::kDrop) {
      FSMON_ERROR("aggregator", "injected group-commit failure (fail-stop)");
      crashed_.store(true);
      return false;
    } else if (torn.action == chaos::FaultAction::kDelay) {
      clock_.sleep_for(torn.delay);
    }
  }

  // Modeled commit latency (paper: one MySQL commit per stored group),
  // paid before the append so the group is durable only after the round
  // trip — exactly where a real remote commit would block.
  if (options_.commit_latency.count() > 0) clock_.sleep_for(options_.commit_latency);
  const auto commit_start = std::chrono::steady_clock::now();
  if (!payloads.empty()) {
    if (auto s = store_->append_batch(first_id, payloads); !s.is_ok()) {
      // Fail-stop: publishing or acking the group here would break the
      // "seen or acked implies durable" invariant, so the stage crashes
      // instead. The events stay unacked in the changelog and replay
      // after restart.
      FSMON_ERROR("aggregator", "event store append failed (fail-stop): ", s.to_string());
      crashed_.store(true);
      return false;
    }
  }
  if (torn_crash) {
    // Torn mid-group: a durable prefix exists but the process died
    // before the group's flush was acknowledged to anyone.
    crashed_.store(true);
    return false;
  }
  commit_groups_.fetch_add(1);
  if (group_size_hist_ != nullptr) group_size_hist_->record(batch_ends.size());
  if (group_commit_latency_hist_ != nullptr) {
    const auto commit_us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - commit_start);
    group_commit_latency_hist_->record(static_cast<std::uint64_t>(commit_us.count()));
  }
  persisted_.fetch_add(payloads.size());
  if (persisted_counter_ != nullptr) persisted_counter_->inc(payloads.size());
  return true;
}

void Aggregator::purge_loop(std::stop_token stop) {
  // Sliced waiting so shutdown is prompt even with long purge intervals.
  const auto slice = std::chrono::milliseconds(10);
  auto remaining = options_.purge_interval;
  while (!stop.stop_requested()) {
    clock_.sleep_for(std::min<common::Duration>(slice, remaining));
    remaining -= slice;
    if (remaining.count() > 0) continue;
    remaining = options_.purge_interval;
    store_->purge_reported();
    purge_cycles_.fetch_add(1);
  }
}

Result<std::vector<core::StdEvent>> Aggregator::events_since(common::EventId after_id,
                                                             std::size_t max_events) const {
  auto stored = stored_since(after_id, max_events);
  if (!stored) return stored.status();
  std::vector<core::StdEvent> out;
  for (const auto& event : stored.value()) {
    auto decoded = core::deserialize_event(event.payload);
    if (!decoded) return decoded.status();
    out.push_back(std::move(decoded.value().first));
  }
  return out;
}

Result<std::vector<eventstore::StoredEvent>> Aggregator::stored_since(
    common::EventId after_id, std::size_t max_events) const {
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr)
    return Status(common::ErrorCode::kUnavailable, "aggregator has no event store");
  return store_->events_since(after_id, max_events);
}

void Aggregator::acknowledge(common::EventId up_to_id) {
  std::shared_lock lock(store_mu_);
  if (store_ != nullptr) store_->mark_reported(up_to_id);
}

std::size_t Aggregator::purge() {
  std::shared_lock lock(store_mu_);
  return store_ == nullptr ? 0 : store_->purge_reported();
}

}  // namespace fsmon::scalable
