#include "src/scalable/sharded_aggregator.hpp"

#include "src/transport/inproc.hpp"

namespace fsmon::scalable {

using common::Result;
using common::Status;

ShardedAggregator::ShardedAggregator(const std::string& name,
                                     ShardedAggregatorOptions options,
                                     common::Clock& clock)
    : map_(options.shards) {
  if (options.transport != nullptr) {
    transport_ = options.transport;
  } else {
    owned_transport_ = std::make_unique<transport::InProcTransport>();
    transport_ = owned_transport_.get();
  }
  if (options.aggregator.metrics != nullptr)
    transport_->attach_metrics(options.aggregator.metrics);
  const std::size_t n = map_.shards();
  shards_.reserve(n);
  topics_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    AggregatorOptions shard_options = options.aggregator;
    shard_options.transport = transport_;
    std::string shard_name = name;
    if (n > 1) {
      const std::string suffix = "shard" + std::to_string(k);
      shard_name += "/" + suffix;
      shard_options.output_topic += "/" + suffix;
      if (shard_options.store)
        shard_options.store->directory /= suffix;
      shard_options.labels.emplace("shard", std::to_string(k));
      shard_options.fault_scope = "aggregator." + suffix + ".";
    }
    topics_.push_back(shard_options.output_topic);
    shards_.push_back(
        std::make_unique<Aggregator>(std::move(shard_name), std::move(shard_options), clock));
  }
  // One router sender per shard, wired straight to that shard's fan-in
  // receiver. The router hands each frame to exactly one of these; the
  // handoff cost is whatever the transport makes it (a refcount bump
  // in-proc, one ring write over shm).
  std::vector<std::shared_ptr<transport::Sender>> senders;
  senders.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    auto sender = transport_->make_sender(name + "/router/shard" + std::to_string(k));
    sender->connect(shards_[k]->input());
    senders.push_back(std::move(sender));
  }
  router_ = std::make_unique<ShardRouter>(map_, std::move(senders), clock,
                                          options.aggregator.metrics);
  FlowControlOptions flow = options.flow;
  flow.metrics = options.aggregator.metrics;
  hub_ = std::make_unique<FanOutHub>(*this, flow);
}

Status ShardedAggregator::start() {
  for (auto& shard : shards_) {
    if (auto s = shard->start(); !s.is_ok()) return s;
  }
  return Status::ok();
}

void ShardedAggregator::stop() {
  for (auto& shard : shards_) shard->stop();
}

void ShardedAggregator::set_ack_callback(Aggregator::AckCallback callback) {
  for (auto& shard : shards_) shard->set_ack_callback(callback);
}

void ShardedAggregator::set_nack_callback(Aggregator::NackCallback callback) {
  for (auto& shard : shards_) shard->set_nack_callback(callback);
}

Result<std::vector<core::StdEvent>> ShardedAggregator::events_since(
    VectorCursor& cursor, std::size_t max_events) const {
  const std::size_t n = shards_.size();
  cursor.ensure(n);
  std::vector<core::StdEvent> out;
  if (max_events == 0) return out;

  // One page of stored payloads per shard, refilled independently as
  // heads drain, so an arbitrarily deep merged backlog holds at most
  // n * chunk records at a time. The merge reads timestamps, sources and
  // cookies in place and decodes only the events it returns: heads left
  // over when the page fills are read again by the next page, never
  // decoded twice. No store lock is held between fetches.
  const std::size_t chunk =
      std::min<std::size_t>(4096, std::max<std::size_t>(max_events / n, 1));
  struct Head {
    std::vector<eventstore::StoredEvent> page;
    std::size_t pos = 0;
    bool exhausted = false;
    common::TimePoint timestamp{};  ///< Of the head payload.
  };
  std::vector<Head> heads(n);
  auto refill = [&](std::size_t k) -> Status {
    auto page = shards_[k]->stored_since(cursor.last_ids[k], chunk);
    if (!page) return page.status();
    heads[k].page = std::move(page).take();
    heads[k].pos = 0;
    heads[k].exhausted = heads[k].page.size() < chunk;
    return Status::ok();
  };
  // Shard k's head payload; empty once the shard is drained.
  auto head = [&](std::size_t k) -> std::span<const std::byte> {
    const Head& h = heads[k];
    if (h.pos >= h.page.size()) return {};
    return h.page[h.pos].payload;
  };
  // Read whenever a head moves. A corrupt payload keeps the old value;
  // decoding it reports the error.
  auto peek_timestamp = [&](std::size_t k) {
    if (auto t = core::peek_event_timestamp(head(k))) heads[k].timestamp = t.value();
  };
  for (std::size_t k = 0; k < n; ++k) {
    if (auto s = refill(k); !s.is_ok()) return s;
    peek_timestamp(k);
  }
  auto same_record = [](std::span<const std::byte> a, std::span<const std::byte> b) {
    auto cookie = core::peek_event_cookie(a);
    auto other_cookie = core::peek_event_cookie(b);
    auto source = core::peek_event_source(a);
    auto other_source = core::peek_event_source(b);
    return cookie && other_cookie && source && other_source && cookie.value() != 0 &&
           cookie.value() == other_cookie.value() && source.value() == other_source.value();
  };

  std::size_t last = n;  // shard of the last event taken
  std::vector<std::byte> last_payload;
  for (;;) {
    std::size_t best = n;
    if (out.size() >= max_events) {
      // Full, unless the next event of the last one's shard is the other
      // half of its (source, cookie) pair: take it too, so no page ends
      // inside a rename.
      if (!same_record(last_payload, head(last))) break;
      best = last;
    } else {
      // Pop the smallest (timestamp, shard) head. Head comparison only:
      // within a shard the store order (its id order) is never
      // disturbed, so the merged stream restricted to one shard IS that
      // shard's replay — the permutation-free contract.
      for (std::size_t k = 0; k < n; ++k) {
        if (head(k).empty()) continue;
        if (best == n || heads[k].timestamp < heads[best].timestamp) best = k;
      }
      if (best == n) break;  // every shard drained
    }
    last = best;
    eventstore::StoredEvent& stored = heads[best].page[heads[best].pos++];
    auto decoded = core::deserialize_event(stored.payload);
    if (!decoded) return decoded.status();
    cursor.last_ids[best] = stored.id;
    out.push_back(std::move(decoded.value().first));
    last_payload = std::move(stored.payload);
    if (head(best).empty() && !heads[best].exhausted) {
      if (auto s = refill(best); !s.is_ok()) return s;
    }
    peek_timestamp(best);
  }
  return out;
}

void ShardedAggregator::acknowledge(const VectorCursor& cursor) {
  const std::size_t n = std::min(cursor.size(), shards_.size());
  for (std::size_t k = 0; k < n; ++k) {
    if (cursor.last_ids[k] > 0) shards_[k]->acknowledge(cursor.last_ids[k]);
  }
}

std::size_t ShardedAggregator::purge() {
  std::size_t purged = 0;
  for (auto& shard : shards_) purged += shard->purge();
  return purged;
}

std::uint64_t ShardedAggregator::last_event_id_sum() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->last_event_id();
  return total;
}

VectorCursor ShardedAggregator::published_cursor() const {
  VectorCursor cursor(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k)
    cursor.last_ids[k] = shards_[k]->published_id();
  return cursor;
}

std::uint64_t ShardedAggregator::aggregated() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->aggregated();
  return total;
}

std::uint64_t ShardedAggregator::persisted() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->persisted();
  return total;
}

bool ShardedAggregator::any_crashed() const {
  for (const auto& shard : shards_) {
    if (shard->crashed()) return true;
  }
  return false;
}

}  // namespace fsmon::scalable
