// Consumer delivery core: a frame with a malformed record is rejected
// whole by the hub's pump; a consumer whose rules match sparsely keeps a
// bounded dedup window; and a store page never splits a rename's halves,
// whether replayed on request or paged by a demoted consumer's catch-up.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/common/logging.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/transport/inproc.hpp"

namespace fsmon::scalable {
namespace {

using core::EventKind;
using core::StdEvent;
using lustre::LustreFs;
using lustre::LustreFsOptions;

bool wait_until(const std::function<bool()>& done,
                std::chrono::seconds deadline = std::chrono::seconds(20)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// An in-process transport that remembers the receivers it makes, so a
/// test can hand the fan-out hub a frame no aggregator would publish.
class TappedTransport : public transport::Transport {
 public:
  transport::TransportKind kind() const override { return inner_.kind(); }
  std::shared_ptr<transport::Sender> make_sender(std::string name) override {
    return inner_.make_sender(std::move(name));
  }
  std::shared_ptr<transport::Receiver> make_receiver(
      std::string name, std::size_t high_water_mark,
      transport::OverflowPolicy policy) override {
    auto receiver = inner_.make_receiver(name, high_water_mark, policy);
    std::lock_guard lock(mu_);
    receivers_[name] = receiver;
    return receiver;
  }
  void attach_metrics(obs::MetricsRegistry* registry) override {
    inner_.attach_metrics(registry);
  }

  std::shared_ptr<transport::Receiver> receiver(const std::string& name) {
    std::lock_guard lock(mu_);
    return receivers_.at(name);
  }

 private:
  transport::InProcTransport inner_;
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<transport::Receiver>> receivers_;
};

/// Captures warning lines for the life of the test.
class LogCapture {
 public:
  LogCapture() {
    common::set_log_sink([this](common::LogLevel, const std::string& line) {
      std::lock_guard lock(mu_);
      lines_.push_back(line);
    });
  }
  ~LogCapture() { common::set_log_sink(nullptr); }

  std::size_t count(const std::string& needle) const {
    std::lock_guard lock(mu_);
    std::size_t n = 0;
    for (const auto& line : lines_) n += line.find(needle) != std::string::npos ? 1 : 0;
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

core::EventBatch three_events() {
  core::EventBatch batch;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    StdEvent event;
    event.id = i;
    event.kind = EventKind::kCreate;
    event.watch_root = "/mnt/lustre";
    event.path = "/keep/f" + std::to_string(i);
    event.cookie = i;
    event.source = "lustre:MDT0";
    batch.events.push_back(std::move(event));
  }
  return batch;
}

TEST(ConsumerDeliveryTest, FrameWithOutOfBoundsPathLengthIsRejectedWhole) {
  LogCapture log;
  common::RealClock clock;
  LustreFs fs(LustreFsOptions{}, clock);
  TappedTransport tapped;
  ScalableMonitorOptions o;
  o.transport = &tapped;
  ScalableMonitor monitor(fs, o, clock);
  ConsumerOptions consumer_options;
  consumer_options.ack_interval = 1;
  core::FilterRule rule;
  rule.root = "/keep";
  consumer_options.rules.push_back(rule);
  std::mutex mu;
  std::vector<StdEvent> received;
  auto consumer = monitor.make_consumer("c", consumer_options,
                                        [&](const core::EventBatch& batch) {
                                          std::lock_guard lock(mu);
                                          for (const auto& e : batch.events)
                                            received.push_back(e);
                                        });
  ASSERT_TRUE(consumer->start().is_ok());
  auto sender = tapped.make_sender("test");
  sender->connect(tapped.receiver("fanout-hub"));

  // Events 1 and 2 are well formed; event 3's path length runs past its
  // record. The CRC is recomputed over the damage, so only the record
  // walk can catch it.
  const core::EventBatch batch = three_events();
  std::vector<std::byte> frame = core::encode_batch(batch);
  auto view = core::view_batch(frame);
  ASSERT_TRUE(view.is_ok());
  const std::size_t path_len_at =
      view.value().events[2].first + 26 + 8 + batch.events[2].watch_root.size();
  for (int i = 0; i < 8; ++i)
    frame[path_len_at + static_cast<std::size_t>(i)] = std::byte{0x7F};
  ASSERT_TRUE(core::patch_batch_ids(frame, 1).is_ok());
  ASSERT_TRUE(core::view_batch(frame).is_ok());  // the CRC holds

  ASSERT_FALSE(sender->send("t", transport::FrameRef::adopt(std::move(frame))).refused());
  ASSERT_TRUE(wait_until([&] { return log.count("corrupt batch frame") >= 1; }));
  EXPECT_EQ(log.count("corrupt batch frame"), 1u);
  // Nothing pumped, delivered, seen (so nothing acked) or marked.
  EXPECT_EQ(monitor.sharded().hub().frames_pumped(), 0u);
  EXPECT_EQ(consumer->delivered(), 0u);
  EXPECT_EQ(consumer->seen_cursor().sum(), 0u);
  EXPECT_EQ(consumer->dedup_pending(), 0u);

  // The same three events, intact: none is taken for a duplicate, so the
  // rejected frame marked no cookie.
  ASSERT_FALSE(
      sender->send("t", transport::FrameRef::adopt(core::encode_batch(batch))).refused());
  ASSERT_TRUE(wait_until([&] { return consumer->delivered() >= 3; }));
  consumer->stop();
  EXPECT_EQ(consumer->delivered(), 3u);
  EXPECT_EQ(consumer->duplicates_suppressed(), 0u);
  EXPECT_EQ(consumer->seen_cursor().sum(), 3u);
  std::lock_guard lock(mu);
  EXPECT_EQ(received, batch.events);
}

TEST(ConsumerDeliveryTest, SparseHubConsumerKeepsDedupWindowBounded) {
  // A hub consumer matching 1/16 of 10,240 events. Each round creates
  // 150 events it does not match, waits until the hub has pumped them
  // (the catch-all has them), then 10 it does. The hub sends the sparse
  // consumer no item for the frames of the first part, so its cookies
  // jump by 150 each round. A window that only marked what it received
  // kept every round's events above that gap in `beyond`: 10 more per
  // round, never drained.
  common::RealClock clock;
  LustreFs fs(LustreFsOptions{}, clock);
  constexpr int kDirs = 16;
  constexpr int kRounds = 64;
  constexpr int kSkipped = 150;
  constexpr int kMatched = 10;
  for (int d = 0; d < kDirs; ++d) ASSERT_TRUE(fs.mkdir("/d" + std::to_string(d)).is_ok());
  ScalableMonitorOptions o;
  o.collector.cache_size = 64;
  ScalableMonitor monitor(fs, o, clock);
  ConsumerOptions sparse_options;
  core::FilterRule rule;
  rule.root = "/d0";
  sparse_options.rules.push_back(rule);
  std::atomic<int> off_route{0};
  auto sparse = monitor.make_consumer("sparse", sparse_options, [&](const StdEvent& e) {
    if (e.path.rfind("/d0/", 0) != 0) off_route.fetch_add(1);
  });
  auto all = monitor.make_consumer("all", ConsumerOptions{}, [](const StdEvent&) {});
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(sparse->start().is_ok());
  ASSERT_TRUE(all->start().is_ok());

  std::size_t peak_pending = 0;
  int created = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kSkipped; ++i, ++created) {
      const std::string dir = "/d" + std::to_string(1 + i % (kDirs - 1));
      ASSERT_TRUE(fs.create(dir + "/f" + std::to_string(created)).is_ok());
    }
    ASSERT_TRUE(wait_until([&] { return all->delivered() >= static_cast<std::uint64_t>(created); }))
        << "round " << round << ": catch-all has " << all->delivered() << " of " << created;
    for (int i = 0; i < kMatched; ++i, ++created)
      ASSERT_TRUE(fs.create("/d0/f" + std::to_string(created)).is_ok());
    ASSERT_TRUE(wait_until([&] {
      return sparse->delivered() >= static_cast<std::uint64_t>((round + 1) * kMatched);
    })) << "round " << round << ": sparse has " << sparse->delivered();
    peak_pending = std::max(peak_pending, sparse->dedup_pending());
  }
  ASSERT_TRUE(wait_until([&] { return all->delivered() >= static_cast<std::uint64_t>(created); }));
  sparse->stop();
  all->stop();
  monitor.stop();
  EXPECT_EQ(sparse->delivered(), static_cast<std::uint64_t>(kRounds * kMatched));
  EXPECT_EQ(all->delivered(), static_cast<std::uint64_t>(created));
  EXPECT_EQ(off_route.load(), 0);
  EXPECT_EQ(sparse->duplicates_suppressed(), 0u);
  EXPECT_LT(peak_pending, static_cast<std::size_t>(kMatched));
  EXPECT_LT(sparse->dedup_pending(), static_cast<std::size_t>(kMatched));
}

/// A monitor with a reliable store in a per-test directory.
class ConsumerReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_consumer_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ScalableMonitorOptions options() {
    ScalableMonitorOptions o;
    eventstore::EventStoreOptions store;
    store.directory = dir_;
    o.aggregator.store = store;
    return o;
  }

  std::filesystem::path dir_;
  common::RealClock clock;
};

TEST_F(ConsumerReplayTest, RenameStraddlingAPageBoundaryIsReplayedWhole) {
  // A rename's MOVED_FROM and MOVED_TO halves share one cookie. Behind a
  // create, a two-event page would end between them: the dedup window
  // would mark the cookie with the first half and drop the second as a
  // duplicate of it.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  ConsumerOptions consumer_options;
  consumer_options.replay_page = 2;
  std::vector<StdEvent> received;
  auto consumer = monitor.make_consumer(
      "c", consumer_options, [&](const StdEvent& e) { received.push_back(e); });
  ASSERT_TRUE(fs.create("/a").is_ok());
  ASSERT_TRUE(fs.rename("/a", "/b").is_ok());
  monitor.drain_collectors_once();
  ASSERT_EQ(monitor.sharded().persisted(), 3u);

  // No argument: from the last acknowledged cursor, duplicate filter on.
  auto replayed = consumer->replay_historic();
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(replayed.value(), 3u);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[1].kind, EventKind::kMovedFrom);
  EXPECT_EQ(received[2].kind, EventKind::kMovedTo);
  EXPECT_EQ(received[2].cookie, received[1].cookie);
  EXPECT_EQ(consumer->duplicates_suppressed(), 0u);
}

TEST_F(ConsumerReplayTest, CatchUpPagesARenameStraddlingAPageBoundaryWhole) {
  // A one-event credit window demotes the consumer at the first frame,
  // before it starts. Started, it catches up from the store first, three
  // events a page, and the first page would end between the rename's
  // halves.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options();
  o.collector.publish_batch = 1;
  o.flow.credit_window = 1;
  ScalableMonitor monitor(fs, o, clock);
  ConsumerOptions consumer_options;
  consumer_options.replay_page = 3;
  std::mutex mu;
  std::vector<StdEvent> received;
  auto consumer = monitor.make_consumer("c", consumer_options, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    received.push_back(e);
  });
  ASSERT_TRUE(fs.create("/a").is_ok());
  ASSERT_TRUE(fs.create("/b").is_ok());
  ASSERT_TRUE(fs.rename("/b", "/c").is_ok());
  ASSERT_TRUE(fs.create("/d").is_ok());
  monitor.drain_collectors_once();
  ASSERT_EQ(monitor.sharded().persisted(), 5u);
  ASSERT_TRUE(wait_until([&] { return monitor.sharded().hub().frames_pumped() >= 4; }));
  EXPECT_EQ(consumer->flow_state(), FlowState::kDemoted);

  ASSERT_TRUE(consumer->start().is_ok());
  ASSERT_TRUE(wait_until([&] {
    return consumer->delivered() >= 5 && consumer->flow_state() == FlowState::kLive;
  }));
  consumer->stop();
  std::lock_guard lock(mu);
  ASSERT_EQ(received.size(), 5u);
  for (std::size_t i = 0; i < received.size(); ++i)
    EXPECT_EQ(received[i].id, static_cast<common::EventId>(i + 1));
  EXPECT_EQ(received[2].kind, EventKind::kMovedFrom);
  EXPECT_EQ(received[3].kind, EventKind::kMovedTo);
  // The one live item queued before the demotion, which the catch-up
  // had already delivered.
  EXPECT_EQ(consumer->duplicates_suppressed(), 1u);
}

}  // namespace
}  // namespace fsmon::scalable
