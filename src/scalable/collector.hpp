// Collector service: one per MDS (paper Section IV "Detection").
//
// Registers a changelog user on its MDS, reads records in batches,
// processes them through Algorithm 1 (EventProcessor + LRU fid2path
// cache), publishes the resolved events to the aggregator through its
// transport sender, and purges the changelog up to the *acknowledged*
// record: the aggregator acks each MDT's watermark once the events are
// durably in its custody, and only then does the collector issue
// changelog_clear ("a pointer is maintained to the most recently
// processed event tuple and all previous events are cleared"). A read
// cursor runs ahead of the cleared index, so a crash between publish
// and persist re-reads exactly the unacknowledged suffix on restart.
//
// With resolver_threads > 1 the per-record resolution fans out to a
// worker pool: records are submitted in changelog order (applying
// delete/rename cache invalidations at their ordered position), workers
// resolve concurrently, and a sequence-numbered reorder buffer
// re-assembles completions in changelog order before publish — the
// published per-MDT stream keeps exactly the serial ordering guarantee.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "src/common/clock.hpp"
#include "src/common/rate_meter.hpp"
#include "src/common/thread_pool.hpp"
#include "src/lustre/filesystem.hpp"
#include "src/lustre/profiles.hpp"
#include "src/scalable/clear_guard.hpp"
#include "src/scalable/processor.hpp"
#include "src/scalable/reorder_buffer.hpp"
#include "src/transport/transport.hpp"

namespace fsmon::scalable {

class ShardRouter;

struct CollectorOptions {
  std::size_t batch_size = 512;
  /// Max resolved events per published batch frame. Each changelog batch
  /// is chunked to this size; 1 degenerates to the old frame-per-event
  /// path (used by tests and the ablation bench baseline).
  std::size_t publish_batch = 512;
  /// Poll delay when the changelog is empty.
  common::Duration poll_interval = std::chrono::milliseconds(1);
  /// fid2path cache size; 0 disables caching (the paper's baseline).
  std::size_t cache_size = 5000;
  /// Resolver worker threads. 1 (default) preserves the serial path
  /// exactly; >1 resolves records on a pool with in-order publish.
  std::size_t resolver_threads = 1;
  /// Modeled per-record costs; zero for pure-throughput threaded runs.
  ProcessorCosts costs;
  lustre::FidResolverOptions resolver;
  /// Events are published under topic_prefix + "mdt<i>".
  std::string topic_prefix = "fsmon/";
  /// How long a stopping collector waits for the aggregator's persistence
  /// acks to catch up with its last published record before giving up on
  /// clearing the changelog (the records stay retained and are re-read on
  /// restart — safe, just not tidy).
  common::Duration stop_flush_timeout = std::chrono::seconds(2);
  /// Observability registry; null = uninstrumented (zero overhead).
  /// Registers collector.* / fid2path.* / fidcache.* labelled mdt=<i>.
  obs::MetricsRegistry* metrics = nullptr;
};

class Collector {
 public:
  /// The collector publishes through `sender` and never learns which
  /// transport (in-proc queue, shm ring, TCP) the hop rides on.
  Collector(lustre::LustreFs& fs, std::uint32_t mds_index,
            std::shared_ptr<transport::Sender> sender, CollectorOptions options,
            common::Clock& clock);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  common::Status start();
  void stop();
  bool running() const { return running_.load(); }

  /// Publish through a shard router instead of the raw sender: each
  /// frame is routed (synchronously, on this collector's thread) to the
  /// aggregator shard owning its source, preserving the refused-publish
  /// rewind signal. Null (default) keeps the direct sender path.
  /// Not thread-safe; set before start().
  void set_router(ShardRouter* router) { router_ = router; }

  /// Drain whatever is currently in the changelog synchronously (used by
  /// deterministic tests instead of the polling thread). Returns records
  /// processed.
  std::size_t drain_once();

  /// The aggregator acknowledged durable custody of every record of this
  /// MDT up to `record_index` (persisted to the store, or fanned out when
  /// no store is configured). Raises the clear watermark; the collector
  /// thread applies the actual changelog_clear. Any thread.
  void on_persist_ack(std::uint64_t record_index);

  /// Request/retry the changelog_clear up to the acked watermark. Called
  /// by the collector thread each poll and by deterministic drains after
  /// the aggregator has been pumped. Returns false while a clear is still
  /// pending (server failure — retried on the next call).
  bool apply_acked_clear();

  /// Fail-stop this collector as a crash harness would: the polling
  /// thread exits without the graceful final drain or ack wait, and all
  /// in-memory progress (read cursor, pending acks) is considered lost.
  void crash();
  /// Restart after crash(): rewind the read cursor to the server-side
  /// cleared index (everything unacknowledged is re-read and
  /// re-published; the aggregator dedupes) and start the polling thread.
  common::Status restart();
  /// Rewind the read cursor to the server-side cleared index. Used when
  /// the *aggregator* crashed: frames it never persisted are gone, so
  /// unacked records must be re-published. Safe while running (the
  /// rewind is applied by the collector thread before its next read).
  void rewind_to_cleared();
  bool crashed() const { return crashed_.load(); }

  /// Highest record index acknowledged as durable by the aggregator.
  std::uint64_t acked_record_index() const { return acked_.load(); }
  std::uint64_t clear_failures() const { return clear_guard_->failures(); }
  /// Records re-read (and re-published) after a rewind.
  std::uint64_t replayed_records() const { return replayed_records_.load(); }

  std::uint32_t mds_index() const { return mds_index_; }
  ProcessorStats processor_stats() const { return processor_.stats(); }
  std::optional<common::LruStats> cache_stats() const {
    if (cache_ == nullptr) return std::nullopt;
    return cache_->stats();
  }
  std::size_t resolver_threads() const {
    return pool_ == nullptr ? 1 : pool_->thread_count();
  }
  std::uint64_t records_processed() const { return records_.load(); }
  std::uint64_t events_published() const { return published_.load(); }
  double report_rate() const { return meter_.average_rate(); }

 private:
  void run(std::stop_token stop);
  std::size_t process_batch();
  std::size_t run_batch_serial(const std::vector<lustre::ChangelogRecord>& records);
  std::size_t run_batch_parallel(const std::vector<lustre::ChangelogRecord>& records);
  void publish_events(core::EventBatch& batch);
  void apply_rewind();

  lustre::LustreFs& fs_;
  std::uint32_t mds_index_;
  std::shared_ptr<transport::Sender> sender_;
  ShardRouter* router_ = nullptr;  ///< Optional; see set_router().
  CollectorOptions options_;
  common::Clock& clock_;
  std::string user_id_;
  std::string topic_;
  lustre::FidResolver resolver_;
  std::unique_ptr<EventProcessor::FidCache> cache_;
  EventProcessor processor_;
  common::RateMeter meter_;
  ReorderBuffer<EventProcessor::Output> reorder_;
  std::jthread worker_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::int64_t> inflight_{0};
  /// Read-ahead cursor: index of the last record read. Decoupled from the
  /// server-side cleared index, which lags at the acked watermark.
  /// Collector-thread-only.
  std::uint64_t read_cursor_ = 0;
  /// Highest record index ever read; re-reading below it is a replay.
  std::uint64_t max_read_index_ = 0;
  std::unique_ptr<ClearGuard> clear_guard_;
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> last_published_index_{0};
  std::atomic<std::uint64_t> replayed_records_{0};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> rewind_requested_{false};
  obs::Counter* clear_failures_counter_ = nullptr;
  obs::Counter* replayed_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::Counter* records_counter_ = nullptr;
  obs::Counter* published_counter_ = nullptr;
  obs::HistogramMetric* batch_size_hist_ = nullptr;
  obs::HistogramMetric* batch_bytes_hist_ = nullptr;
  obs::Gauge* publish_rate_gauge_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Gauge* reorder_depth_gauge_ = nullptr;
  /// Declared last: destroyed first, so pool workers join while every
  /// member they touch (reorder_, processor_, cache_) is still alive.
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace fsmon::scalable
