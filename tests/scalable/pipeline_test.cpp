// End-to-end tests of the threaded scalable pipeline:
// collectors -> aggregator -> fan-out hub -> consumers over the
// in-process transport, and (TcpBridgeTest) with every hop on one
// loopback TcpTransport, the one remote path.
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/scalable/scalable_monitor.hpp"
#include "src/transport/tcp.hpp"

namespace fsmon::scalable {
namespace {

using core::EventKind;
using core::StdEvent;
using lustre::LustreFs;
using lustre::LustreFsOptions;

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_pipe_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ScalableMonitorOptions options(bool with_store = false) {
    ScalableMonitorOptions o;
    o.collector.cache_size = 64;
    o.transport = transport_;
    if (with_store) {
      eventstore::EventStoreOptions store;
      store.directory = dir_;
      o.aggregator.store = store;
    }
    return o;
  }

  void expect_single_mds_end_to_end();
  void expect_filtering_is_local();

  /// Null = in-process.
  transport::Transport* transport_ = nullptr;
  std::filesystem::path dir_;
  common::RealClock clock;
};

TEST_F(PipelineTest, SingleMdsEndToEnd) { expect_single_mds_end_to_end(); }

void PipelineTest::expect_single_mds_end_to_end() {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<StdEvent> received;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& event) {
    std::lock_guard lock(mu);
    received.push_back(event);
    cv.notify_all();
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  fs.create("/hello.txt");
  fs.modify("/hello.txt", 64);
  fs.unlink("/hello.txt");

  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return received.size() >= 3; }));
  }
  consumer->stop();
  monitor.stop();

  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0].kind, EventKind::kCreate);
  EXPECT_EQ(received[0].path, "/hello.txt");
  EXPECT_EQ(received[1].kind, EventKind::kModify);
  EXPECT_EQ(received[2].kind, EventKind::kDelete);
  // Aggregator assigned increasing global ids.
  EXPECT_EQ(received[0].id, 1u);
  EXPECT_EQ(received[2].id, 3u);
}

TEST_F(PipelineTest, FourMdsEventsAggregateWithoutLoss) {
  LustreFsOptions fs_options;
  fs_options.mdt_count = 4;
  LustreFs fs(fs_options, clock);
  ScalableMonitor monitor(fs, options(), clock);
  EXPECT_EQ(monitor.collector_count(), 4u);

  std::atomic<int> received{0};
  auto consumer = monitor.make_consumer("c", ConsumerOptions{},
                                        [&](const StdEvent&) { received.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  constexpr int kDirs = 40;
  int expected = 0;
  for (int i = 0; i < kDirs; ++i) {
    const std::string dir = "/d" + std::to_string(i);
    ASSERT_TRUE(fs.mkdir(dir).is_ok());
    ASSERT_TRUE(fs.create(dir + "/f").is_ok());
    ASSERT_TRUE(fs.unlink(dir + "/f").is_ok());
    expected += 3;
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received.load() < expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  EXPECT_EQ(received.load(), expected);
  // Work actually spread over several collectors (DNE hashing).
  int active_collectors = 0;
  for (std::size_t i = 0; i < monitor.collector_count(); ++i) {
    if (monitor.collector(i).records_processed() > 0) ++active_collectors;
  }
  EXPECT_GE(active_collectors, 2);
  // Changelogs were purged after processing.
  for (std::uint32_t i = 0; i < fs.mdt_count(); ++i) {
    EXPECT_EQ(fs.mds(i).mdt().changelog().retained(), 0u) << "MDT" << i;
  }
}

TEST_F(PipelineTest, ConsumerFilteringIsLocal) { expect_filtering_is_local(); }

void PipelineTest::expect_filtering_is_local() {
  LustreFs fs(LustreFsOptions{}, clock);
  fs.mkdir("/keep");
  fs.mkdir("/drop");
  ScalableMonitor monitor(fs, options(), clock);

  ConsumerOptions consumer_options;
  core::FilterRule rule;
  rule.root = "/keep";
  consumer_options.rules.push_back(rule);
  std::atomic<int> kept{0};
  auto consumer = monitor.make_consumer("c", consumer_options,
                                        [&](const StdEvent&) { kept.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  fs.create("/keep/a");
  fs.create("/drop/b");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (consumer->last_seen_id() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  EXPECT_EQ(kept.load(), 1);
  EXPECT_EQ(consumer->filtered_out(), 1u);
  EXPECT_EQ(consumer->delivered(), 1u);
}

TEST_F(PipelineTest, AggregatorPersistsForReplay) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(/*with_store=*/true), clock);
  std::atomic<int> received{0};
  auto consumer = monitor.make_consumer("c", ConsumerOptions{},
                                        [&](const StdEvent&) { received.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());
  fs.create("/a");
  fs.create("/b");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((received.load() < 2 || monitor.aggregator().persisted() < 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  auto replay = monitor.aggregator().events_since(0);
  ASSERT_TRUE(replay.is_ok());
  ASSERT_EQ(replay.value().size(), 2u);
  EXPECT_EQ(replay.value()[0].path, "/a");
  EXPECT_EQ(replay.value()[1].path, "/b");
}

TEST_F(PipelineTest, ExactlyOneSerializationPerEventEndToEnd) {
  // The batched path's core invariant: the collector serializes each
  // event once; the aggregator patches ids into the encoded bytes and
  // the store append reuses them, so no further serialize_event calls
  // happen anywhere in the pipeline. (Each gtest case runs as its own
  // ctest process, so the process-wide codec counters are isolated.)
  LustreFs fs(LustreFsOptions{}, clock);
  obs::MetricsRegistry registry;
  auto o = options(/*with_store=*/true);
  o.aggregator.metrics = &registry;
  ScalableMonitor monitor(fs, o, clock);
  std::atomic<int> received{0};
  auto consumer = monitor.make_consumer("c", ConsumerOptions{},
                                        [&](const StdEvent&) { received.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  constexpr int kEvents = 32;
  const auto before = core::codec_counters();
  for (int i = 0; i < kEvents; ++i) fs.create("/f" + std::to_string(i));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((received.load() < kEvents ||
          monitor.aggregator().persisted() < kEvents) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  const auto after = core::codec_counters();

  ASSERT_EQ(received.load(), kEvents);
  ASSERT_EQ(monitor.aggregator().persisted(), static_cast<std::uint64_t>(kEvents));
  // One serialization per event, total, across collector + aggregator +
  // persist path. (The consumer's decode costs deserialize calls, which
  // are unconstrained here.)
  EXPECT_EQ(after.serialize_calls - before.serialize_calls,
            static_cast<std::uint64_t>(kEvents));
  // And the obs registry agrees every event was persisted.
  EXPECT_EQ(registry.snapshot().counter_total("aggregator.events_persisted"),
            static_cast<std::uint64_t>(kEvents));
}

TEST_F(PipelineTest, FilteredConsumerDecodesOnlyTheEventsItDelivers) {
  // The hub matches on fields read straight out of the frame bytes and
  // the consumer deserializes an event only when it delivers it: one
  // deserialize call per delivered event, none for the ones it drops.
  // Without a store nothing else in the pipeline decodes.
  LustreFs fs(LustreFsOptions{}, clock);
  fs.mkdir("/keep");
  fs.mkdir("/drop");
  ScalableMonitor monitor(fs, options(), clock);
  ConsumerOptions consumer_options;
  core::FilterRule rule;
  rule.root = "/keep";
  consumer_options.rules.push_back(rule);
  std::atomic<int> kept{0};
  auto consumer = monitor.make_consumer("c", consumer_options,
                                        [&](const StdEvent&) { kept.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  constexpr int kKept = 8;
  constexpr int kDropped = 56;
  const auto before = core::codec_counters();
  for (int i = 0; i < kKept + kDropped; ++i)
    fs.create((i % 8 == 0 ? "/keep/f" : "/drop/f") + std::to_string(i));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (consumer->last_seen_id() < kKept + kDropped &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  const auto after = core::codec_counters();

  ASSERT_EQ(kept.load(), kKept);
  EXPECT_EQ(consumer->delivered(), static_cast<std::uint64_t>(kKept));
  EXPECT_EQ(consumer->filtered_out(), static_cast<std::uint64_t>(kDropped));
  EXPECT_EQ(after.deserialize_calls - before.deserialize_calls,
            static_cast<std::uint64_t>(kKept));
  EXPECT_EQ(after.serialize_calls - before.serialize_calls,
            static_cast<std::uint64_t>(kKept + kDropped));
}

TEST_F(PipelineTest, BatchCallbackReceivesMatchingEventsOnce) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<StdEvent> received;
  std::size_t batches = 0;
  auto consumer = monitor.make_consumer(
      "c", ConsumerOptions{}, [&](const core::EventBatch& batch) {
        std::lock_guard lock(mu);
        ++batches;
        for (const auto& event : batch.events) received.push_back(event);
        cv.notify_all();
      });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  fs.create("/one");
  fs.create("/two");
  fs.create("/three");
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return received.size() >= 3; }));
  }
  consumer->stop();
  monitor.stop();
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0].id, 1u);
  EXPECT_EQ(received[2].id, 3u);
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, 3u);
  EXPECT_EQ(consumer->delivered(), 3u);
}

TEST_F(PipelineTest, DrainOnceIsDeterministic) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  fs.create("/x");
  fs.create("/y");
  // Without starting threads, drain synchronously.
  EXPECT_EQ(monitor.drain_collectors_once(), 2u);
  EXPECT_EQ(monitor.drain_collectors_once(), 0u);
  EXPECT_EQ(monitor.total_records_processed(), 2u);
  EXPECT_EQ(fs.mds(0).mdt().changelog().retained(), 0u);
}

TEST_F(PipelineTest, CollectorPurgesChangelogAfterProcessing) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  for (int i = 0; i < 10; ++i) fs.create("/f" + std::to_string(i));
  EXPECT_EQ(fs.mds(0).mdt().changelog().retained(), 10u);
  monitor.drain_collectors_once();
  EXPECT_EQ(fs.mds(0).mdt().changelog().retained(), 0u);
  // The collector's processor saw every record.
  EXPECT_EQ(monitor.collector(0).records_processed(), 10u);
}

class TcpBridgeTest : public PipelineTest {
 protected:
  TcpBridgeTest() { transport_ = &tcp_; }

  transport::TcpTransport tcp_;
};

void wait_until(const std::function<bool()>& predicate) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!predicate() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(predicate());
}

TEST_F(TcpBridgeTest, EventsReachRemoteConsumer) { expect_single_mds_end_to_end(); }

TEST_F(TcpBridgeTest, RemoteFilteringApplies) { expect_filtering_is_local(); }

TEST_F(TcpBridgeTest, MultipleRemoteConsumersFanOut) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  std::atomic<int> a_count{0}, b_count{0};
  auto a = monitor.make_consumer("a", ConsumerOptions{},
                                 [&](const StdEvent&) { a_count.fetch_add(1); });
  auto b = monitor.make_consumer("b", ConsumerOptions{},
                                 [&](const StdEvent&) { b_count.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(a->start().is_ok());
  ASSERT_TRUE(b->start().is_ok());

  for (int i = 0; i < 10; ++i) fs.create("/f" + std::to_string(i));
  wait_until([&] { return a_count.load() >= 10 && b_count.load() >= 10; });
  a->stop();
  b->stop();
  monitor.stop();
  EXPECT_EQ(a_count.load(), 10);
  EXPECT_EQ(b_count.load(), 10);
}

}  // namespace
}  // namespace fsmon::scalable
