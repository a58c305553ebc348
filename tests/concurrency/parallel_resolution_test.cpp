// The tentpole invariant of the resolver pool: for an interleaved
// create/rename/unlink workload, a collector with resolver_threads = 4
// publishes the byte-identical event sequence a serial collector does,
// and deletes always carry the path that was actually deleted (no stale
// cache resurrection).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/scalable/scalable_monitor.hpp"
#include "src/transport/inproc.hpp"

namespace fsmon::scalable {
namespace {

using core::EventKind;
using core::StdEvent;
using lustre::LustreFs;
using lustre::LustreFsOptions;

constexpr int kFiles = 60;

// The deterministic op script both runs replay. CREAT/RENME/UNLNK records
// all reconstruct their paths from the parent fid + record name, so every
// divergence between serial and parallel mode would be a real ordering or
// staleness bug. (MTIME is deliberately absent: it has no parent-fid
// fallback, so its path depends on cache hit/miss patterns — the one
// documented serial/parallel divergence, see DESIGN.md.)
void apply_workload(LustreFs& fs) {
  for (int i = 0; i < kFiles; ++i) {
    const std::string f = "/f" + std::to_string(i);
    ASSERT_TRUE(fs.create(f).is_ok());
    std::string current = f;
    if (i % 3 == 0) {
      const std::string r = "/r" + std::to_string(i);
      ASSERT_TRUE(fs.rename(f, r).is_ok());
      current = r;
    }
    if (i % 2 == 0) {
      ASSERT_TRUE(fs.unlink(current).is_ok());
    }
  }
}

std::vector<StdEvent> run_collector(std::size_t resolver_threads,
                                    std::size_t cache_size) {
  common::ManualClock clock;
  LustreFs fs(LustreFsOptions{}, clock);
  transport::InProcTransport transport;
  auto inbox = transport.make_receiver("inbox", 4096);
  inbox->subscribe("");
  auto sender = transport.make_sender("pub");
  sender->connect(inbox);

  CollectorOptions options;
  options.cache_size = cache_size;
  options.resolver_threads = resolver_threads;
  Collector collector(fs, 0, sender, options, clock);
  apply_workload(fs);
  collector.drain_once();

  std::vector<StdEvent> events;
  while (auto message = inbox->try_recv()) {
    auto batch = core::decode_batch(message->payload.bytes());
    EXPECT_TRUE(batch.is_ok()) << batch.status().to_string();
    if (!batch.is_ok()) continue;
    for (auto& event : batch.value().events) events.push_back(std::move(event));
  }
  return events;
}

std::vector<std::byte> serialize_all(const std::vector<StdEvent>& events) {
  std::vector<std::byte> bytes;
  for (const auto& event : events) core::serialize_event(event, bytes);
  return bytes;
}

void check_ground_truth(const std::vector<StdEvent>& events) {
  // Every delete names the path that was really deleted, every rename
  // pair names the true old and new paths — stale cache entries would
  // surface here as "/f<i>" deletes for renamed files.
  std::size_t deletes = 0, renames = 0;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto& event = events[k];
    if (event.kind == EventKind::kDelete) {
      ++deletes;
      const std::string digits = event.path.substr(2);
      const int i = std::stoi(digits);
      const std::string expected =
          (i % 3 == 0 ? "/r" : "/f") + std::to_string(i);
      EXPECT_EQ(event.path, expected) << "stale path for deleted file " << i;
    } else if (event.kind == EventKind::kMovedFrom &&
               k + 1 < events.size() &&
               events[k + 1].kind == EventKind::kMovedTo) {
      ++renames;
      const int i = std::stoi(event.path.substr(2));
      EXPECT_EQ(event.path, "/f" + std::to_string(i));
      EXPECT_EQ(events[k + 1].path, "/r" + std::to_string(i));
    }
  }
  EXPECT_EQ(deletes, static_cast<std::size_t>(kFiles / 2));
  EXPECT_EQ(renames, static_cast<std::size_t>((kFiles + 2) / 3));
}

TEST(ParallelResolutionTest, PoolPublishesSerialOrderWithCache) {
  const auto serial = run_collector(/*resolver_threads=*/1, /*cache_size=*/512);
  const auto parallel = run_collector(/*resolver_threads=*/4, /*cache_size=*/512);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(parallel.size(), serial.size());
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(serialize_all(parallel), serialize_all(serial));
  check_ground_truth(serial);
  check_ground_truth(parallel);
}

TEST(ParallelResolutionTest, PoolPublishesSerialOrderWithoutCache) {
  const auto serial = run_collector(1, /*cache_size=*/0);
  const auto parallel = run_collector(4, /*cache_size=*/0);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(serialize_all(parallel), serialize_all(serial));
  check_ground_truth(parallel);
}

TEST(ParallelResolutionTest, TinyCacheStaysOrdered) {
  // Heavy eviction pressure: windows are constantly evicted and
  // re-resolved, which stresses the pending-invalidation guards.
  const auto serial = run_collector(1, /*cache_size=*/4);
  const auto parallel = run_collector(4, /*cache_size=*/4);
  EXPECT_EQ(parallel, serial);
  check_ground_truth(parallel);
}

TEST(ParallelResolutionTest, RepeatedRunsAreStable) {
  // The pool completes records in nondeterministic order; rerun a few
  // times so a racy reorder would actually get a chance to fire.
  const auto serial = run_collector(1, 128);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(run_collector(4, 128), serial) << "round " << round;
  }
}

}  // namespace
}  // namespace fsmon::scalable
