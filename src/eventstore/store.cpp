#include "src/eventstore/store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "src/common/logging.hpp"

namespace fsmon::eventstore {

using common::ErrorCode;
using common::Result;
using common::Status;

namespace {

/// Write a decimal id to `path` via temp file + flush + atomic rename so
/// a crash mid-write leaves the previous value intact. `do_fsync` adds a
/// durability barrier — required for the purge watermark (losing it
/// resurrects purged ids), skipped for the reported watermark (losing it
/// merely re-replays acked events, which consumers dedup).
Status write_id_file_atomic(const std::filesystem::path& path, std::uint64_t value,
                            bool do_fsync) {
  const std::string tmp = path.string() + ".tmp";
  char buf[32];
  const int len = std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status(ErrorCode::kUnavailable, "cannot open " + tmp);
  ssize_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd, buf + written, static_cast<std::size_t>(len - written));
    if (n < 0) {
      ::close(fd);
      return Status(ErrorCode::kUnavailable, "cannot write " + tmp);
    }
    written += n;
  }
  if (do_fsync) ::fsync(fd);
  ::close(fd);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status(ErrorCode::kUnavailable, "rename " + tmp + ": " + ec.message());
  return Status::ok();
}

common::EventId read_id_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  common::EventId value = 0;
  if (in >> value) return value;
  return 0;
}

}  // namespace

EventStore::EventStore(EventStoreOptions options) : options_(std::move(options)) {
  if (options_.index_stride == 0) options_.index_stride = SegmentIndex::kDefaultStride;
  if (options_.metrics != nullptr) {
    auto& registry = *options_.metrics;
    wal_metrics_ = WalMetrics::create(registry, options_.labels);
    purged_counter_ = &registry.counter("store.purged_records", options_.labels,
                                        "Records removed by purge cycles or the size cap",
                                        "records");
    seal_flush_failures_counter_ =
        &registry.counter("store.seal_flush_failures", options_.labels,
                          "Segment seals whose final WAL flush failed", "seals");
    index_rebuilds_counter_ = &registry.counter(
        "store.index_rebuilds", options_.labels,
        "Segment indexes rebuilt by a recovery scan (missing/corrupt/stale .idx)",
        "segments");
    replay_cache_counter_ = &registry.counter(
        "store.replay_cache_records", options_.labels,
        "Replayed records served from the in-memory tail cache", "records");
    replay_disk_counter_ =
        &registry.counter("store.replay_disk_records", options_.labels,
                          "Replayed records streamed from sealed segments on disk",
                          "records");
    live_records_gauge_ = &registry.gauge("store.live_records", options_.labels,
                                          "Records currently retained in the store",
                                          "records");
    live_bytes_gauge_ = &registry.gauge("store.live_bytes", options_.labels,
                                        "Payload bytes currently retained in the store",
                                        "bytes");
    segments_gauge_ = &registry.gauge("store.segments", options_.labels,
                                      "WAL segment files backing the store", "segments");
    cache_bytes_gauge_ = &registry.gauge(
        "store.cache_bytes", options_.labels,
        "Payload bytes resident in the in-memory tail cache", "bytes");
  }
  std::filesystem::create_directories(options_.directory);
  recover();
  update_gauges_locked();  // safe pre-threading: no lock needed yet
}

void EventStore::update_gauges_locked() {
  if (live_records_gauge_ == nullptr) return;
  live_records_gauge_->set(static_cast<std::int64_t>(last_id_ - dropped_upto_));
  live_bytes_gauge_->set(static_cast<std::int64_t>(live_bytes_));
  segments_gauge_->set(static_cast<std::int64_t>(segments_.size()));
  cache_bytes_gauge_->set(static_cast<std::int64_t>(cache_payload_bytes_));
}

std::filesystem::path EventStore::purge_watermark_path() const {
  return options_.directory / "purge.watermark";
}

std::filesystem::path EventStore::reported_watermark_path() const {
  return options_.directory / "reported.watermark";
}

std::filesystem::path EventStore::segment_path(common::EventId first_id) const {
  char name[64];
  std::snprintf(name, sizeof(name), "events-%020" PRIu64 ".wal", first_id);
  return options_.directory / name;
}

void EventStore::recover() {
  // Records at or below the purge watermark were dropped before the
  // restart; skip them even if their segment file survives.
  dropped_upto_ = read_id_file(purge_watermark_path());
  const common::EventId reported = read_id_file(reported_watermark_path());
  // Collect segment files in name order (names embed the first id,
  // zero-padded, so lexicographic order == id order).
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(options_.directory)) {
    if (entry.is_regular_file() && entry.path().extension() == ".wal")
      paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    const auto idx_path = SegmentIndex::path_for(path);
    Segment segment;
    segment.path = path;
    bool have_index = false;
    if (auto loaded = SegmentIndex::load(idx_path)) {
      // An index is trusted only when it covers the file exactly: a size
      // mismatch means the segment was torn or re-appended after the
      // index was written. Overlapping ids (first_id <= a previous
      // segment's last) force a rescan so the dedup logic below applies.
      std::error_code ec;
      const auto on_disk = std::filesystem::file_size(path, ec);
      if (!ec && loaded.value().record_count > 0 &&
          loaded.value().file_bytes == on_disk && loaded.value().first_id > last_id_) {
        segment.index = std::move(loaded.value());
        have_index = true;
      }
    }
    if (!have_index) {
      // Rebuild by scanning the file. The index is a pure accelerator, so
      // this path costs one sequential read, never data.
      SegmentIndex rebuilt;
      rebuilt.stride = options_.index_stride;
      auto streamed =
          WalSegment::stream(path, 0, [&](const WalRecordView& view) {
            if (view.id <= last_id_) return true;  // duplicate from a re-appended tail
            rebuilt.note_record(view.id, view.offset, view.payload.size());
            return true;
          });
      if (!streamed) {
        FSMON_WARN("eventstore", "skipping unreadable segment ", path.string(), ": ",
                   streamed.status().to_string());
        continue;
      }
      ++index_rebuilds_;
      if (index_rebuilds_counter_ != nullptr) index_rebuilds_counter_->inc();
      // Truncate a torn tail now: recovered segments stay sealed, and the
      // rebuilt index must cover the file exactly so later recoveries can
      // trust it.
      const std::uint64_t intact = streamed.value();
      std::error_code ec;
      const auto on_disk = std::filesystem::file_size(path, ec);
      if (!ec && on_disk > intact) {
        std::filesystem::resize_file(path, intact, ec);
        FSMON_WARN("eventstore", "truncated torn tail of ", path.string(), ": ",
                   on_disk - intact, " bytes");
      }
      rebuilt.file_bytes = intact;
      segment.index = std::move(rebuilt);
      if (segment.index.record_count > 0) {
        if (auto s = segment.index.save(idx_path); !s.is_ok())
          FSMON_WARN("eventstore", "cannot persist rebuilt index ", idx_path.string(),
                     ": ", s.to_string());
      }
    }
    if (segment.index.record_count == 0 || segment.index.last_id <= dropped_upto_) {
      // Empty or fully purged before the restart: delete instead of
      // registering so store.segments stays accurate.
      std::error_code ec;
      std::filesystem::remove(path, ec);
      std::filesystem::remove(idx_path, ec);
      continue;
    }
    if (segment.index.first_id > dropped_upto_) {
      segment.live_payload = segment.index.payload_bytes;
    } else {
      // Straddles the purge watermark: sum the live suffix from disk.
      auto live = range_payload_bytes_locked(segment, dropped_upto_,
                                             segment.index.last_id);
      if (live) {
        segment.live_payload = live.value();
      } else {
        FSMON_WARN("eventstore", "cannot size live suffix of ", path.string(), ": ",
                   live.status().to_string(), "; over-counting whole segment");
        segment.live_payload = segment.index.payload_bytes;
      }
    }
    live_bytes_ += segment.live_payload;
    last_id_ = segment.index.last_id;
    segments_.push_back(std::move(segment));
  }
  // A fully purged store still remembers where ids left off, so appends
  // resume without resurrecting purged ids.
  last_id_ = std::max(last_id_, dropped_upto_);
  // No watermark file but surviving segments (first boot used a non-1
  // base id, or the watermark was lost): everything below the first
  // on-disk record is gone by definition.
  if (!segments_.empty() && segments_.front().index.first_id > dropped_upto_ + 1)
    dropped_upto_ = segments_.front().index.first_id - 1;
  reported_upto_ = std::min(reported, last_id_);
}

Status EventStore::append(common::EventId id, std::span<const std::byte> payload) {
  const std::span<const std::byte> one[] = {payload};
  return append_batch(id, one);
}

Status EventStore::append_batch(common::EventId first_id,
                                std::span<const std::span<const std::byte>> payloads) {
  if (payloads.empty()) return Status::ok();
  std::lock_guard lock(mu_);
  const bool virgin = last_id_ == 0 && dropped_upto_ == 0;
  if (virgin) {
    if (first_id == 0) return Status(ErrorCode::kInvalid, "event id 0 is reserved");
    // The first append fixes the id base; live accounting is the range
    // (dropped_upto_, last_id_] from here on.
    dropped_upto_ = first_id - 1;
  } else if (first_id != last_id_ + 1) {
    return Status(ErrorCode::kInvalid, "event ids must be consecutive");
  }
  std::size_t i = 0;
  while (i < payloads.size()) {
    if (segments_.empty() || segments_.back().wal == nullptr ||
        segments_.back().index.payload_bytes >= options_.segment_bytes) {
      roll_segment_locked();
    }
    Segment& seg = segments_.back();
    // Take as many payloads as fit before the segment rolls (always >= 1
    // so oversized records still land somewhere).
    std::size_t chunk_end = i + 1;
    std::uint64_t chunk_bytes = payloads[i].size();
    while (chunk_end < payloads.size() &&
           seg.index.payload_bytes + chunk_bytes < options_.segment_bytes) {
      chunk_bytes += payloads[chunk_end].size();
      ++chunk_end;
    }
    const common::EventId chunk_first = first_id + i;
    std::uint64_t offset = seg.wal->bytes_written();
    if (auto s = seg.wal->append_batch(chunk_first, payloads.subspan(i, chunk_end - i));
        !s.is_ok()) {
      // The file tail now holds bytes of unknown integrity; seal the
      // segment (without trusting the in-memory index onto disk) so no
      // later append lands after torn garbage. Recovery rescans it.
      seal_active_locked(/*write_index=*/false);
      if (virgin && last_id_ == 0) dropped_upto_ = 0;  // nothing landed
      update_gauges_locked();
      return s;
    }
    for (std::size_t j = i; j < chunk_end; ++j) {
      const std::uint64_t size = payloads[j].size();
      seg.index.note_record(first_id + j, offset, size);
      offset += 16 + size;
      cache_.push_back(CachedRecord{
          first_id + j, std::vector<std::byte>(payloads[j].begin(), payloads[j].end())});
      cache_payload_bytes_ += size;
      live_bytes_ += size;
    }
    seg.live_payload += chunk_bytes;
    last_id_ = first_id + chunk_end - 1;
    i = chunk_end;
  }
  if (options_.flush_each_append) {
    if (auto s = segments_.back().wal->flush(); !s.is_ok()) return s;
  }
  enforce_cap_locked();
  trim_cache_locked();
  update_gauges_locked();
  return Status::ok();
}

void EventStore::seal_active_locked(bool write_index) {
  if (segments_.empty() || segments_.back().wal == nullptr) return;
  Segment& seg = segments_.back();
  if (auto s = seg.wal->flush(); !s.is_ok()) {
    FSMON_WARN("eventstore", "seal flush failed for ", seg.path.string(), ": ",
               s.to_string());
    if (seal_flush_failures_counter_ != nullptr) seal_flush_failures_counter_->inc();
  }
  seg.wal.reset();
  if (seg.index.record_count == 0) {
    // Never committed a record (e.g. the first append into it tore);
    // nothing to replay, so drop the file.
    std::error_code ec;
    std::filesystem::remove(seg.path, ec);
    segments_.pop_back();
    return;
  }
  if (write_index) {
    if (auto s = seg.index.save(SegmentIndex::path_for(seg.path)); !s.is_ok())
      FSMON_WARN("eventstore", "cannot persist segment index for ", seg.path.string(),
                 ": ", s.to_string());
  }
}

void EventStore::roll_segment_locked() {
  seal_active_locked(/*write_index=*/true);
  Segment segment;
  segment.path = segment_path(last_id_ + 1);
  segment.index.stride = options_.index_stride;
  segment.wal = std::make_unique<WalSegment>(
      segment.path, wal_metrics_.appends != nullptr ? &wal_metrics_ : nullptr);
  segments_.push_back(std::move(segment));
}

Result<std::uint64_t> EventStore::range_payload_bytes_locked(
    const Segment& seg, common::EventId from_excl, common::EventId to_incl) const {
  if (to_incl <= from_excl) return std::uint64_t{0};
  std::uint64_t total = 0;
  if (!cache_.empty() && from_excl + 1 >= cache_.front().id) {
    // Consecutive ids make the cache directly addressable.
    std::size_t idx = static_cast<std::size_t>(from_excl + 1 - cache_.front().id);
    for (; idx < cache_.size() && cache_[idx].id <= to_incl; ++idx)
      total += cache_[idx].payload.size();
    return total;
  }
  auto streamed = WalSegment::stream(
      seg.path, seg.index.seek(from_excl + 1), [&](const WalRecordView& view) {
        if (view.id <= from_excl) return true;  // sparse-seek over-read
        if (view.id > to_incl || view.id > seg.index.last_id) return false;
        total += view.payload.size();
        return true;
      });
  if (!streamed) return streamed.status();
  return total;
}

std::size_t EventStore::drop_through_locked(common::EventId up_to) {
  common::EventId target = std::min(up_to, last_id_);
  if (target <= dropped_upto_) return 0;
  std::uint64_t shed = 0;
  common::EventId cursor = dropped_upto_;
  auto it = segments_.begin();
  while (it != segments_.end() && cursor < target) {
    Segment& seg = *it;
    if (seg.index.record_count == 0) break;  // fresh active segment
    if (seg.index.last_id <= target) {
      shed += seg.live_payload;
      cursor = seg.index.last_id;
      seg.live_payload = 0;
      if (seg.wal == nullptr) {
        std::error_code ec;
        std::filesystem::remove(seg.path, ec);
        std::filesystem::remove(SegmentIndex::path_for(seg.path), ec);
        it = segments_.erase(it);
      } else {
        ++it;  // active segment: file stays open for appends
      }
      continue;
    }
    // Straddler: shed only its prefix.
    auto bytes = range_payload_bytes_locked(seg, cursor, target);
    if (!bytes) {
      FSMON_WARN("eventstore", "cannot size purge range in ", seg.path.string(), ": ",
                 bytes.status().to_string(), "; clamping purge");
      target = cursor;  // keep accounting exact: drop whole segments only
      break;
    }
    shed += bytes.value();
    seg.live_payload -= bytes.value();
    cursor = target;
    break;
  }
  if (cursor <= dropped_upto_) return 0;
  const std::size_t removed = static_cast<std::size_t>(cursor - dropped_upto_);
  while (!cache_.empty() && cache_.front().id <= cursor) {
    cache_payload_bytes_ -= cache_.front().payload.size();
    cache_.pop_front();
  }
  live_bytes_ -= shed;
  dropped_upto_ = cursor;
  if (purged_counter_ != nullptr) purged_counter_->inc(removed);
  // Persist with a durability barrier: losing this watermark would
  // resurrect purged ids at recovery.
  if (auto s = write_id_file_atomic(purge_watermark_path(), dropped_upto_, true);
      !s.is_ok())
    FSMON_WARN("eventstore", "cannot persist purge watermark: ", s.to_string());
  return removed;
}

void EventStore::enforce_cap_locked() {
  if (options_.max_bytes == 0 || live_bytes_ <= options_.max_bytes) return;
  const std::uint64_t need = live_bytes_ - options_.max_bytes;
  if (last_id_ <= dropped_upto_ + 1) return;          // always keep one record
  const common::EventId limit = last_id_ - 1;
  std::uint64_t acc = 0;
  common::EventId cursor = dropped_upto_;
  for (const auto& seg : segments_) {
    if (acc >= need || cursor >= limit) break;
    if (seg.index.record_count == 0 || seg.index.last_id <= cursor) continue;
    if (seg.index.last_id < limit && acc + seg.live_payload < need) {
      acc += seg.live_payload;
      cursor = seg.index.last_id;
      continue;
    }
    // The boundary falls inside this segment: walk record sizes.
    if (!cache_.empty() && cursor + 1 >= cache_.front().id) {
      std::size_t idx = static_cast<std::size_t>(cursor + 1 - cache_.front().id);
      for (; idx < cache_.size() && acc < need && cursor < limit; ++idx) {
        acc += cache_[idx].payload.size();
        cursor = cache_[idx].id;
      }
    } else {
      auto streamed = WalSegment::stream(
          seg.path, seg.index.seek(cursor + 1), [&](const WalRecordView& view) {
            if (view.id <= cursor) return true;  // sparse-seek over-read
            if (view.id > seg.index.last_id) return false;
            acc += view.payload.size();
            cursor = view.id;
            return acc < need && cursor < limit;
          });
      if (!streamed) {
        FSMON_WARN("eventstore", "cannot size cap eviction in ", seg.path.string(),
                   ": ", streamed.status().to_string());
        break;
      }
    }
  }
  if (cursor > dropped_upto_) drop_through_locked(cursor);
}

void EventStore::trim_cache_locked() {
  // The active segment's live records must stay resident: their WAL
  // bytes may still sit in the writer's buffer, invisible to readers.
  common::EventId keep_from = 0;
  if (!segments_.empty() && segments_.back().wal != nullptr &&
      segments_.back().index.record_count > 0) {
    keep_from = std::max(segments_.back().index.first_id, dropped_upto_ + 1);
  }
  while (cache_payload_bytes_ > options_.cache_bytes && !cache_.empty()) {
    const CachedRecord& front = cache_.front();
    if (keep_from != 0 && front.id >= keep_from) break;
    cache_payload_bytes_ -= front.payload.size();
    cache_.pop_front();
  }
}

Status EventStore::for_each_since(
    common::EventId after_id, std::size_t max_events,
    const std::function<bool(common::EventId, std::span<const std::byte>, bool)>& fn)
    const {
  std::lock_guard lock(mu_);
  common::EventId cursor = std::max(after_id, dropped_upto_);
  std::size_t count = 0;
  bool stopped = false;
  while (cursor < last_id_ && count < max_events && !stopped) {
    if (!cache_.empty() && cursor + 1 >= cache_.front().id) {
      // Tail cache fast path: the cache is a contiguous suffix ending at
      // last_id_, so everything from here on is resident.
      std::size_t idx = static_cast<std::size_t>(cursor + 1 - cache_.front().id);
      for (; idx < cache_.size() && count < max_events; ++idx) {
        const CachedRecord& record = cache_[idx];
        ++count;
        cursor = record.id;
        if (replay_cache_counter_ != nullptr) replay_cache_counter_->inc();
        if (!fn(record.id, std::span(record.payload), record.id <= reported_upto_)) {
          stopped = true;
          break;
        }
      }
      break;  // cache ends at last_id_
    }
    // Binary-search the sealed prefix for the segment holding cursor+1.
    // (Live records in the active segment are always cached, so the disk
    // path only ever needs sealed segments.)
    const common::EventId target = cursor + 1;
    auto end = segments_.end();
    if (!segments_.empty() && segments_.back().wal != nullptr) --end;
    auto it = std::partition_point(
        segments_.begin(), end,
        [&](const Segment& s) { return s.index.last_id < target; });
    if (it == end) break;  // nothing sealed holds it (lost segment)
    const Segment& seg = *it;
    auto streamed = WalSegment::stream(
        seg.path, seg.index.seek(target), [&](const WalRecordView& view) {
          if (view.id <= cursor) return true;  // sparse-seek over-read / purged
          if (view.id > seg.index.last_id) return false;  // bytes past the index
          ++count;
          cursor = view.id;
          if (replay_disk_counter_ != nullptr) replay_disk_counter_->inc();
          if (!fn(view.id, view.payload, view.id <= reported_upto_)) {
            stopped = true;
            return false;
          }
          return count < max_events && view.id < seg.index.last_id;
        });
    if (!streamed) return streamed.status();
    if (cursor < target) break;  // segment yielded nothing; avoid spinning
  }
  return Status::ok();
}

std::vector<StoredEvent> EventStore::events_since(common::EventId after_id,
                                                  std::size_t max_events) const {
  std::vector<StoredEvent> out;
  auto status = for_each_since(
      after_id, max_events,
      [&](common::EventId id, std::span<const std::byte> payload, bool reported) {
        out.push_back(
            StoredEvent{id, std::vector<std::byte>(payload.begin(), payload.end()),
                        reported});
        return true;
      });
  if (!status.is_ok())
    FSMON_WARN("eventstore", "events_since stopped early: ", status.to_string());
  return out;
}

common::EventId EventStore::mark_reported(common::EventId up_to_id) {
  std::lock_guard lock(mu_);
  const common::EventId target = std::min(up_to_id, last_id_);
  if (target <= reported_upto_) return reported_upto_;
  reported_upto_ = target;
  // No fsync: a lost reported watermark only causes conservative
  // re-replay of already-acked events, which consumers dedup.
  if (auto s = write_id_file_atomic(reported_watermark_path(), reported_upto_, false);
      !s.is_ok())
    FSMON_WARN("eventstore", "cannot persist reported watermark: ", s.to_string());
  return reported_upto_;
}

std::size_t EventStore::purge_reported() {
  std::lock_guard lock(mu_);
  const std::size_t removed = drop_through_locked(reported_upto_);
  update_gauges_locked();
  return removed;
}

std::size_t EventStore::live_records() const {
  std::lock_guard lock(mu_);
  return static_cast<std::size_t>(last_id_ - dropped_upto_);
}

std::uint64_t EventStore::live_bytes() const {
  std::lock_guard lock(mu_);
  return live_bytes_;
}

common::EventId EventStore::last_id() const {
  std::lock_guard lock(mu_);
  return last_id_;
}

common::EventId EventStore::first_id() const {
  std::lock_guard lock(mu_);
  return last_id_ > dropped_upto_ ? dropped_upto_ + 1 : 0;
}

std::size_t EventStore::segment_count() const {
  std::lock_guard lock(mu_);
  return segments_.size();
}

std::uint64_t EventStore::cache_resident_bytes() const {
  std::lock_guard lock(mu_);
  return cache_payload_bytes_;
}

std::uint64_t EventStore::ack_scan_records() const {
  std::lock_guard lock(mu_);
  return ack_scan_records_;
}

std::uint64_t EventStore::index_rebuilds() const {
  std::lock_guard lock(mu_);
  return index_rebuilds_;
}

Status EventStore::flush() {
  std::lock_guard lock(mu_);
  if (!segments_.empty() && segments_.back().wal != nullptr)
    return segments_.back().wal->flush();
  return Status::ok();
}

}  // namespace fsmon::eventstore
