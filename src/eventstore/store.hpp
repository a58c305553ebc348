// Reliable event store (the paper's MySQL substitute).
//
// The interface layer "provid[es] fault-tolerance by storing all events
// received from the resolution layer into an event store (database).
// Once events have been retrieved from FSMonitor, they are flagged as
// having been reported and can be removed from the database. The size of
// this database is configurable" (Section III-A3). Each aggregator
// shard's custody loop appends here before it publishes; consumers
// replay historic events after a failure via events_since().
//
// Implementation: sealed WAL segments on disk are the authoritative
// replay source. Each segment carries a sparse index (every K-th record
// id -> byte offset, persisted as `events-*.idx` at seal time, rebuilt
// from a scan when missing or stale) so events_since() binary-searches
// the segment list, seeks into the right segment, and streams records
// from disk. RAM holds only a bounded tail cache — the active segment's
// live records plus the most recent `cache_bytes` of sealed payload — so
// the hot live path never touches disk while resident memory stays
// configurable regardless of how far a consumer lags.
//
// Ids are assigned consecutively by the interface layer, which lets the
// store track live records as the arithmetic range
// (dropped_upto_, last_id_] and replace per-record `reported` flags with
// a single persisted reported-watermark id: mark_reported() is O(1), and
// a purge cycle drops the reported prefix and deletes segments that no
// longer hold live records. A hard size cap evicts oldest records even
// if unreported (configurable, as in the paper).
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/status.hpp"
#include "src/common/types.hpp"
#include "src/eventstore/segment_index.hpp"
#include "src/eventstore/wal.hpp"
#include "src/obs/metrics.hpp"

namespace fsmon::eventstore {

struct EventStoreOptions {
  std::filesystem::path directory;
  std::uint64_t segment_bytes = 4ull << 20;  ///< Rotate segments at this size.
  /// Hard cap on retained payload bytes; 0 = unlimited. When exceeded the
  /// oldest records are evicted regardless of reported flag.
  std::uint64_t max_bytes = 0;
  /// Resident payload budget for the in-memory tail cache. The active
  /// segment's live records always stay cached (their WAL bytes may not
  /// be flushed yet); sealed records beyond the budget are evicted and
  /// served from disk via the segment index. 0 = cache only the active
  /// segment.
  std::uint64_t cache_bytes = 4ull << 20;
  /// Sparse-index granularity: one offset entry every K records.
  std::uint32_t index_stride = SegmentIndex::kDefaultStride;
  /// Labels on every store.* / wal.* metric this store registers. A
  /// sharded aggregator runs one store per shard against one registry;
  /// labels (shard=<k>) keep the per-shard gauges distinct.
  obs::Labels labels;
  bool flush_each_append = false;  ///< Durability vs throughput knob.
  /// Observability registry; null = uninstrumented. Registers wal.* and
  /// store.* metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

struct StoredEvent {
  common::EventId id = 0;
  std::vector<std::byte> payload;
  bool reported = false;
};

class EventStore {
 public:
  /// Opens the store, recovering any records already on disk.
  explicit EventStore(EventStoreOptions options);

  /// Append an event; ids must be consecutive (the first append to an
  /// empty store fixes the base id).
  common::Status append(common::EventId id, std::span<const std::byte> payload);

  /// Group commit: append payloads with consecutive ids starting at
  /// `first_id` under one lock acquisition, one WAL write per segment
  /// (batches are chunked across segment rolls), and — when
  /// `flush_each_append` is set — exactly one flush for the whole batch.
  common::Status append_batch(common::EventId first_id,
                              std::span<const std::span<const std::byte>> payloads);

  /// Events with id > `after_id`, oldest first, up to `max_events`.
  /// Served from the tail cache when resident, else streamed from sealed
  /// segments on disk. An unreadable segment ends the scan early (logged).
  std::vector<StoredEvent> events_since(common::EventId after_id,
                                        std::size_t max_events = SIZE_MAX) const;

  /// Stream events with id > `after_id`, oldest first, up to
  /// `max_events`, without materializing them. `fn(id, payload, reported)`
  /// runs under the store lock with a payload view valid only for that
  /// call (do not re-enter the store from it); returning false stops the
  /// scan. Returns non-OK if a sealed segment could not be read.
  common::Status for_each_since(
      common::EventId after_id, std::size_t max_events,
      const std::function<bool(common::EventId, std::span<const std::byte>, bool)>& fn)
      const;

  /// Flag all events with id <= `up_to_id` as reported. O(1): advances a
  /// persisted watermark instead of touching records. The watermark never
  /// passes last_id(): an ack for ids not yet appended is clamped, and
  /// the return value (the watermark now in force) tells the caller how
  /// much of its ack the store took.
  common::EventId mark_reported(common::EventId up_to_id);

  /// Drop reported records from the head of the store and delete any
  /// segment files left with no live records. Returns records removed.
  std::size_t purge_reported();

  std::size_t live_records() const;
  std::uint64_t live_bytes() const;
  common::EventId last_id() const;
  common::EventId first_id() const;
  std::size_t segment_count() const;

  /// Payload bytes currently resident in the tail cache (the store's
  /// only per-record RAM). Bounded by cache_bytes plus the active
  /// segment's live payload.
  std::uint64_t cache_resident_bytes() const;

  /// Records visited by mark_reported() since the store opened. Pinned
  /// at 0 by a regression test: acks advance a watermark and must never
  /// rescan live records (the old implementation was O(live) per ack).
  std::uint64_t ack_scan_records() const;

  /// Segment indexes rebuilt by a full scan during recovery (missing,
  /// corrupt, or stale `.idx` files).
  std::uint64_t index_rebuilds() const;

  common::Status flush();

 private:
  struct Segment {
    std::filesystem::path path;
    std::unique_ptr<WalSegment> wal;  ///< Null once sealed.
    SegmentIndex index;               ///< Covers every record in the file.
    /// Payload bytes of live (unpurged) records; <= index.payload_bytes.
    std::uint64_t live_payload = 0;
  };

  struct CachedRecord {
    common::EventId id = 0;
    std::vector<std::byte> payload;
  };

  void recover();
  void roll_segment_locked();
  /// Flush + close the active segment. Persists its index unless
  /// `write_index` is false (used after a failed append, when the file
  /// tail holds bytes the index does not cover). Deletes the file when
  /// the segment never committed a record.
  void seal_active_locked(bool write_index);
  void enforce_cap_locked();
  /// Evict sealed records from the cache front until the payload budget
  /// holds; the active segment's live records are never evicted.
  void trim_cache_locked();
  /// Drop all live records with id <= `up_to` (clamped down if a sealed
  /// segment cannot be read): pops cache entries, deletes dead sealed
  /// segments, persists the purge watermark. Returns records removed.
  std::size_t drop_through_locked(common::EventId up_to);
  /// Payload bytes of records with id in (`from_excl`, `to_incl`] inside
  /// `seg`, from the cache when resident, else streamed from disk.
  common::Result<std::uint64_t> range_payload_bytes_locked(
      const Segment& seg, common::EventId from_excl, common::EventId to_incl) const;
  std::filesystem::path segment_path(common::EventId first_id) const;
  std::filesystem::path purge_watermark_path() const;
  std::filesystem::path reported_watermark_path() const;

  /// Updates store.* gauges from current locked state; no-op when
  /// uninstrumented.
  void update_gauges_locked();

  EventStoreOptions options_;
  WalMetrics wal_metrics_;  ///< Shared by every segment; zeroed when unused.
  obs::Counter* purged_counter_ = nullptr;
  obs::Counter* seal_flush_failures_counter_ = nullptr;
  obs::Counter* index_rebuilds_counter_ = nullptr;
  obs::Counter* replay_cache_counter_ = nullptr;
  obs::Counter* replay_disk_counter_ = nullptr;
  obs::Gauge* live_records_gauge_ = nullptr;
  obs::Gauge* live_bytes_gauge_ = nullptr;
  obs::Gauge* segments_gauge_ = nullptr;
  obs::Gauge* cache_bytes_gauge_ = nullptr;
  mutable std::mutex mu_;
  /// Contiguous suffix of live records ending at last_id_; the only
  /// per-record payload copies held in RAM.
  std::deque<CachedRecord> cache_;
  std::uint64_t cache_payload_bytes_ = 0;
  std::uint64_t live_bytes_ = 0;
  std::vector<Segment> segments_;  // ordered; back() is active when open
  common::EventId last_id_ = 0;
  common::EventId dropped_upto_ = 0;   ///< All ids <= this are gone.
  common::EventId reported_upto_ = 0;  ///< All ids <= this are acked.
  std::uint64_t ack_scan_records_ = 0;
  std::uint64_t index_rebuilds_ = 0;
};

}  // namespace fsmon::eventstore
