#include "src/scalable/collector.hpp"

#include <algorithm>

#include "src/chaos/fault.hpp"
#include "src/common/logging.hpp"
#include "src/scalable/shard_router.hpp"

namespace fsmon::scalable {

using common::Status;

namespace {

/// Shards for the fid cache: enough to spread `threads` workers with
/// headroom, capped so tiny caches don't fragment.
std::size_t shard_count_for(std::size_t threads) {
  if (threads <= 1) return 1;
  std::size_t shards = 1;
  while (shards < threads * 4 && shards < 64) shards <<= 1;
  return shards;
}

}  // namespace

Collector::Collector(lustre::LustreFs& fs, std::uint32_t mds_index,
                     std::shared_ptr<transport::Sender> sender, CollectorOptions options,
                     common::Clock& clock)
    : fs_(fs),
      mds_index_(mds_index),
      sender_(std::move(sender)),
      options_(std::move(options)),
      clock_(clock),
      topic_(options_.topic_prefix + "mdt" + std::to_string(mds_index)),
      resolver_(fs, options_.resolver, /*clock=*/nullptr),
      cache_(options_.cache_size > 0
                 ? std::make_unique<EventProcessor::FidCache>(
                       options_.cache_size, shard_count_for(options_.resolver_threads))
                 : nullptr),
      processor_(resolver_, cache_.get(), options_.costs,
                 "lustre:MDT" + std::to_string(mds_index)),
      meter_(clock) {
  user_id_ = fs_.mds(mds_index_).register_changelog_user();
  if (options_.resolver_threads > 1)
    pool_ = std::make_unique<common::ThreadPool>(options_.resolver_threads);
  if (options_.metrics != nullptr) {
    clear_failures_counter_ = &options_.metrics->counter(
        "collector.clear_failures", {{"mdt", std::to_string(mds_index_)}},
        "changelog_clear attempts that failed and were queued for retry", "calls");
    replayed_counter_ = &options_.metrics->counter(
        "recovery.replayed_records", {{"mdt", std::to_string(mds_index_)}},
        "Changelog records re-read after a crash/rewind", "records");
  }
  clear_guard_ = std::make_unique<ClearGuard>(fs_.mds(mds_index_), user_id_,
                                              "collector.clear", clear_failures_counter_);
  clear_guard_->reset_from_server();
  read_cursor_ = clear_guard_->cleared();
  max_read_index_ = read_cursor_;
  acked_.store(read_cursor_);
  last_published_index_.store(read_cursor_);
  if (options_.metrics != nullptr) {
    auto& registry = *options_.metrics;
    const obs::Labels labels{{"mdt", std::to_string(mds_index_)}};
    batches_counter_ = &registry.counter("collector.batches", labels,
                                         "Non-empty changelog batches processed", "batches");
    records_counter_ = &registry.counter("collector.records_processed", labels,
                                         "Changelog records run through Algorithm 1",
                                         "records");
    published_counter_ =
        &registry.counter("collector.records_published", labels,
                          "Resolved events published to the aggregator", "events");
    batch_size_hist_ = &registry.histogram("collector.batch_size", labels,
                                           "Records per changelog_read batch", "records");
    batch_bytes_hist_ = &registry.histogram("collector.batch_bytes", labels,
                                            "Encoded bytes per published batch frame",
                                            "bytes");
    publish_rate_gauge_ = &registry.gauge("collector.publish_rate", labels,
                                          "Lifetime average records/second processed",
                                          "records/s");
    inflight_gauge_ = &registry.gauge("collector.resolver_inflight", labels,
                                      "Records currently fanned out to the resolver pool",
                                      "records");
    reorder_depth_gauge_ =
        &registry.gauge("collector.reorder_depth", labels,
                        "Peak completions parked out of order before in-order publish",
                        "records");
    resolver_.attach_metrics(registry, labels);
    processor_.attach_metrics(registry, labels);
  }
}

Collector::~Collector() {
  stop();
  fs_.mds(mds_index_).deregister_changelog_user(user_id_);
}

Status Collector::start() {
  if (running_.load()) return Status::ok();
  running_.store(true);
  worker_ = std::jthread([this](std::stop_token stop) { run(stop); });
  return Status::ok();
}

void Collector::stop() {
  if (worker_.joinable()) {
    worker_.request_stop();
    worker_.join();
  }
  running_.store(false);
}

void Collector::publish_events(core::EventBatch& batch) {
  if (batch.empty()) return;
  if (crashed_.load(std::memory_order_relaxed) ||
      rewind_requested_.load(std::memory_order_relaxed)) {
    // A pending rewind means everything from the cleared index forward
    // will be re-read; publishing ahead of it now could land frames past
    // a delivery hole and open a gap above the aggregator's watermark.
    batch.events.clear();
    return;
  }
  if (auto outcome = chaos::fault("collector.before_publish")) {
    if (outcome.action == chaos::FaultAction::kCrash) {
      crashed_.store(true);
      batch.events.clear();
      return;
    }
    if (outcome.action == chaos::FaultAction::kDelay) clock_.sleep_for(outcome.delay);
  }
  // Serialize once; from here the encoded bytes ride a ref-counted
  // FrameRef through every downstream hop — handoffs bump a refcount,
  // they never duplicate the frame.
  auto bytes = core::encode_batch(batch);
  const std::size_t frame_bytes = bytes.size();
  auto frame = transport::FrameRef::adopt(std::move(bytes));
  std::size_t accepted = 0;
  std::size_t subscribers = 0;
  if (router_ != nullptr) {
    // Routed path: the router picks the owning shard and sends into its
    // inbox synchronously, so refusal detection below still observes
    // the real downstream state.
    const auto routed = router_->route(topic_, std::move(frame));
    accepted = routed.accepted;
    subscribers = routed.subscribers;
  } else {
    const auto sent = sender_->send(topic_, std::move(frame));
    accepted = sent.accepted;
    subscribers = std::max<std::size_t>(sent.receivers, sender_->receiver_count());
  }
  if (accepted == 0 && subscribers > 0) {
    // The inbox refused the frame — it is closed across a downstream
    // crash window. The records are not lost (they stay unacked in the
    // changelog), but any later frame that does get through would start
    // past this hole; rewind so the run replays contiguously once the
    // downstream is back.
    rewind_requested_.store(true);
    batch.events.clear();
    return;
  }
  if (batch_bytes_hist_ != nullptr) batch_bytes_hist_->record(frame_bytes);
  batch.events.clear();
}

std::size_t Collector::run_batch_serial(const std::vector<lustre::ChangelogRecord>& records) {
  const std::size_t publish_batch = std::max<std::size_t>(1, options_.publish_batch);
  std::size_t events = 0;
  core::EventBatch pending;
  for (const auto& record : records) {
    auto output = processor_.process(record);
    // Threaded mode pays modeled latency for real when configured.
    if (output.latency.count() > 0 && options_.costs.base_latency.count() > 0)
      clock_.sleep_for(output.latency);
    for (auto& event : output.events) {
      pending.events.push_back(std::move(event));
      ++events;
    }
    // Flush at record boundaries only: a record's events (a rename's
    // MOVED_FROM/MOVED_TO pair) always travel in one frame, which the
    // recovery path's per-record dedup relies on.
    if (pending.size() >= publish_batch) publish_events(pending);
  }
  publish_events(pending);
  return events;
}

std::size_t Collector::run_batch_parallel(
    const std::vector<lustre::ChangelogRecord>& records) {
  const std::size_t publish_batch = std::max<std::size_t>(1, options_.publish_batch);
  const bool pay_latency = options_.costs.base_latency.count() > 0;
  reorder_.reset(0);
  // Phase 1 — ordered submission. Delete/rename invalidations are applied
  // here, at the record's changelog position, so a late-completing earlier
  // record can never resurrect a path a delete already killed.
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    if (cache_ != nullptr) {
      using lustre::ChangelogType;
      if (record.type == ChangelogType::kUnlnk || record.type == ChangelogType::kRmdir)
        cache_->invalidate(record.target, record.index);
      else if (record.type == ChangelogType::kRenme)
        cache_->invalidate(record.rename_old.value_or(record.target), record.index);
    }
    const auto inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (inflight_gauge_ != nullptr) inflight_gauge_->set(inflight);
    pool_->submit([this, &record, i, pay_latency] {
      auto output = processor_.process(record, EventProcessor::ResolveMode::kConcurrent);
      // The worker pays the record's modeled latency, so resolution cost
      // overlaps across workers — this is the whole point of the pool.
      if (pay_latency && output.latency.count() > 0) clock_.sleep_for(output.latency);
      const auto left = inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
      if (inflight_gauge_ != nullptr) inflight_gauge_->set(left);
      reorder_.push(i, std::move(output));
    });
  }
  // Phase 2 — in-order publish: pop completions in changelog order.
  std::size_t events = 0;
  core::EventBatch pending;
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto output = reorder_.pop();
    for (auto& event : output.events) {
      pending.events.push_back(std::move(event));
      ++events;
    }
    // Record-boundary flush (see run_batch_serial).
    if (pending.size() >= publish_batch) publish_events(pending);
  }
  publish_events(pending);
  // Every record of the batch is published: retire the invalidation
  // guards and refresh the cache gauges from this (single) thread.
  if (cache_ != nullptr) cache_->retire(records.back().index);
  processor_.publish_cache_metrics();
  if (reorder_depth_gauge_ != nullptr)
    reorder_depth_gauge_->set_max(static_cast<std::int64_t>(reorder_.max_depth()));
  return events;
}

std::size_t Collector::process_batch() {
  apply_rewind();
  apply_acked_clear();
  if (crashed_.load(std::memory_order_relaxed)) return 0;
  // Read ahead of the cleared index: clearing waits for the aggregator's
  // persistence ack, but reading must not.
  auto records =
      fs_.mds(mds_index_).changelog_read(user_id_, options_.batch_size, read_cursor_);
  if (!records || records.value().empty()) return 0;
  const auto& batch = records.value();
  std::uint64_t replays = 0;
  for (const auto& record : batch)
    if (record.index <= max_read_index_) ++replays;
  const std::size_t events =
      pool_ != nullptr ? run_batch_parallel(batch) : run_batch_serial(batch);
  if (crashed_.load(std::memory_order_relaxed)) return 0;  // died mid-batch
  read_cursor_ = batch.back().index;
  if (read_cursor_ > max_read_index_) max_read_index_ = read_cursor_;
  last_published_index_.store(read_cursor_, std::memory_order_release);
  if (replays > 0) {
    replayed_records_.fetch_add(replays);
    if (replayed_counter_ != nullptr) replayed_counter_->inc(replays);
  }
  records_.fetch_add(batch.size());
  published_.fetch_add(events);
  meter_.record(batch.size());
  if (batches_counter_ != nullptr) {
    batches_counter_->inc();
    records_counter_->inc(batch.size());
    published_counter_->inc(events);
    batch_size_hist_->record(batch.size());
    publish_rate_gauge_->set(static_cast<std::int64_t>(meter_.snapshot().average_rate));
  }
  // Clear whatever the aggregator has acked by now (lfs changelog_clear
  // up to the durable watermark, not the read cursor).
  apply_acked_clear();
  return batch.size();
}

void Collector::on_persist_ack(std::uint64_t record_index) {
  auto current = acked_.load(std::memory_order_relaxed);
  while (record_index > current &&
         !acked_.compare_exchange_weak(current, record_index,
                                       std::memory_order_release)) {
  }
}

bool Collector::apply_acked_clear() {
  if (auto outcome = chaos::fault("collector.before_clear")) {
    if (outcome.action == chaos::FaultAction::kCrash) {
      crashed_.store(true);
      return false;
    }
    if (outcome.action == chaos::FaultAction::kDelay) clock_.sleep_for(outcome.delay);
  }
  clear_guard_->request(acked_.load(std::memory_order_acquire));
  return clear_guard_->advance();
}

void Collector::apply_rewind() {
  if (!rewind_requested_.exchange(false)) return;
  clear_guard_->reset_from_server();
  read_cursor_ = clear_guard_->cleared();
  // acked_ stays: an ack certifies durability, which a rewind (an
  // aggregator restart recovering its store) does not revoke.
}

void Collector::crash() {
  crashed_.store(true);
  if (worker_.joinable()) {
    worker_.request_stop();
    worker_.join();
  }
  running_.store(false);
}

Status Collector::restart() {
  // A fault-injected self-crash exits the worker loop but leaves
  // running_ set; finish the fail-stop teardown before resuming.
  if (crashed_.load() && running_.load()) crash();
  if (running_.load()) return Status::ok();
  // In-memory progress died with the stage: resume from the server-side
  // cleared index. Unacked records are re-read and re-published; the
  // aggregator's (source, record-index) dedup keeps delivery exactly-once.
  clear_guard_->reset_from_server();
  read_cursor_ = clear_guard_->cleared();
  acked_.store(read_cursor_);
  last_published_index_.store(read_cursor_);
  rewind_requested_.store(false);
  crashed_.store(false);
  return start();
}

void Collector::rewind_to_cleared() {
  rewind_requested_.store(true);
  if (!running_.load()) apply_rewind();
}

std::size_t Collector::drain_once() {
  std::size_t total = 0;
  for (;;) {
    const std::size_t n = process_batch();
    if (n == 0) break;
    total += n;
  }
  return total;
}

void Collector::run(std::stop_token stop) {
  while (!stop.stop_requested() && !crashed_.load(std::memory_order_relaxed)) {
    if (process_batch() == 0) clock_.sleep_for(options_.poll_interval);
  }
  if (crashed_.load(std::memory_order_relaxed)) return;  // no graceful flush
  // Final drain so no event is stranded in the changelog at shutdown,
  // then wait (bounded) for the aggregator's acks so the clear watermark
  // catches up with the last published record.
  process_batch();
  const auto slice = std::chrono::milliseconds(1);
  auto remaining = options_.stop_flush_timeout;
  while (remaining.count() > 0 && !crashed_.load(std::memory_order_relaxed)) {
    if (apply_acked_clear() &&
        clear_guard_->cleared() >= last_published_index_.load(std::memory_order_acquire))
      break;
    clock_.sleep_for(slice);
    remaining -= slice;
  }
}

}  // namespace fsmon::scalable
