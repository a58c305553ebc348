// FanOutHub end-to-end: per-consumer filtered delivery, slow-consumer
// demotion/promotion (gap-free, duplicate-free seam), eviction, and
// min-ack forwarding to the reliable stores.
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/chaos/fault.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/transport/shm.hpp"

namespace fsmon::scalable {
namespace {

using core::StdEvent;
using lustre::LustreFs;
using lustre::LustreFsOptions;

class FlowControlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_flow_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ScalableMonitorOptions options(bool with_store = true) {
    ScalableMonitorOptions o;
    o.collector.cache_size = 64;
    if (with_store) {
      eventstore::EventStoreOptions store;
      store.directory = dir_;
      o.aggregator.store = store;
    }
    return o;
  }

  /// Opens a consumer-stalling gate. The flag is cleared under the
  /// gate's mutex: a callback between its predicate check and its wait
  /// would otherwise miss the notify and stay blocked.
  static void open_gate(std::atomic<bool>& closed, std::mutex& mu,
                        std::condition_variable& cv) {
    {
      std::lock_guard lock(mu);
      closed.store(false);
    }
    cv.notify_all();
  }

  /// Opens the gate on scope exit, so a failed ASSERT never deadlocks
  /// the consumer destructors on a blocked callback.
  struct GateGuard {
    std::atomic<bool>& closed;
    std::mutex& mu;
    std::condition_variable& cv;
    ~GateGuard() { open_gate(closed, mu, cv); }
  };

  static bool wait_until(const std::function<bool()>& done,
                         std::chrono::seconds deadline = std::chrono::seconds(20)) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (!done()) {
      if (std::chrono::steady_clock::now() >= until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  /// Stepped pipeline (one MDT, one shard, nothing started but the
  /// consumer) whose aggregator->hub send of the second frame is refused.
  /// Each drain sends twice, collector->shard then shard->hub, so the
  /// refused send is the fourth evaluation of transport.before_send.
  void run_refused_publish(bool with_store, bool trailing_frame) {
    LustreFs fs(LustreFsOptions{}, clock);
    obs::MetricsRegistry registry;
    ScalableMonitorOptions o = options(with_store);
    o.aggregator.metrics = &registry;
    ScalableMonitor monitor(fs, o, clock);
    std::mutex mu;
    std::vector<StdEvent> received;
    auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
      std::lock_guard lock(mu);
      received.push_back(e);
    });
    ASSERT_TRUE(consumer->start().is_ok());
    auto count = [&] {
      std::lock_guard lock(mu);
      return received.size();
    };

    chaos::FaultPlan plan;
    chaos::FaultRule refuse;
    refuse.point = "transport.before_send";
    refuse.action = chaos::FaultAction::kDrop;
    refuse.after_hits = 3;
    plan.rules.push_back(refuse);
    chaos::ScopedFaultPlan faults(std::move(plan));

    ASSERT_TRUE(fs.create("/a").is_ok());
    monitor.drain_collectors_once();
    ASSERT_TRUE(wait_until([&] { return count() >= 1; }));
    ASSERT_TRUE(fs.create("/b").is_ok());
    monitor.drain_collectors_once();
    ASSERT_EQ(chaos::FaultInjector::instance().fires("transport.before_send"), 1u);
    std::size_t expected = 2;
    if (trailing_frame) {
      ASSERT_TRUE(fs.create("/c").is_ok());
      monitor.drain_collectors_once();
      expected = 3;
    }
    EXPECT_EQ(fs.mds(0).mdt().changelog().retained(), 0u);

    if (!with_store) {
      // Nothing to repair from: the refused event is lost and counted.
      ASSERT_TRUE(wait_until([&] {
        return registry.counter("flow.gaps").value() >= 1 && count() >= expected - 1;
      }));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      consumer->stop();
      EXPECT_EQ(registry.counter("flow.gaps").value(), 1u);
      std::lock_guard lock(mu);
      ASSERT_EQ(received.size(), expected - 1);
      EXPECT_EQ(received[0].path, "/a");
      if (trailing_frame) EXPECT_EQ(received[1].path, "/c");
      return;
    }

    // The hub finds the hole (the next frame's first id, or the shard's
    // published id on two idle ticks), demotes the consumer, and the
    // consumer pages the refused event from the store.
    ASSERT_TRUE(wait_until([&] {
      return count() >= expected && consumer->flow_state() == FlowState::kLive;
    })) << "received " << count() << ", " << to_string(consumer->flow_state());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    consumer->stop();
    EXPECT_EQ(registry.counter("flow.gaps").value(), 1u);
    EXPECT_GE(registry.counter("flow.demotions").value(), 1u);
    std::lock_guard lock(mu);
    ASSERT_EQ(received.size(), expected);
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(received[i].id, i + 1);
      EXPECT_EQ(received[i].cookie, i + 1);
    }
  }

  std::filesystem::path dir_;
  common::RealClock clock;
};

TEST_F(FlowControlTest, HubDeliversPerConsumerFilteredSubsets) {
  LustreFs fs(LustreFsOptions{}, clock);
  fs.mkdir("/keep");
  fs.mkdir("/drop");
  ScalableMonitor monitor(fs, options(/*with_store=*/false), clock);

  std::atomic<int> keep_count{0};
  std::atomic<int> all_count{0};
  ConsumerOptions keep_options;
  core::FilterRule keep_rule;
  keep_rule.root = "/keep";
  keep_options.rules.push_back(keep_rule);
  auto keep = monitor.make_consumer("keep", keep_options,
                                    [&](const StdEvent&) { keep_count.fetch_add(1); });
  auto all = monitor.make_consumer("all", ConsumerOptions{},
                                   [&](const StdEvent&) { all_count.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(keep->start().is_ok());
  ASSERT_TRUE(all->start().is_ok());

  constexpr int kFiles = 32;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(fs.create("/keep/f" + std::to_string(i)).is_ok());
    ASSERT_TRUE(fs.create("/drop/f" + std::to_string(i)).is_ok());
  }
  // The pre-start mkdirs predate the collectors, so only the creates
  // flow: kFiles under /keep, 2 * kFiles in total.
  ASSERT_TRUE(wait_until([&] {
    return keep_count.load() >= kFiles && all_count.load() >= 2 * kFiles;
  })) << "keep=" << keep_count.load() << " all=" << all_count.load()
      << " keep_state=" << to_string(keep->flow_state())
      << " all_state=" << to_string(all->flow_state())
      << " frames=" << monitor.sharded().hub().frames_pumped();
  EXPECT_EQ(keep->flow_state(), FlowState::kLive);
  EXPECT_EQ(all->flow_state(), FlowState::kLive);
  EXPECT_GT(monitor.sharded().hub().frames_pumped(), 0u);
  // One shared hub receiver on the shard output, not one per consumer.
  keep->stop();
  all->stop();
  monitor.stop();
  EXPECT_EQ(keep_count.load(), kFiles);
  EXPECT_EQ(all_count.load(), 2 * kFiles);
}

TEST_F(FlowControlTest, HubConsumerWithMetricsDeliversWithoutReceiver) {
  // A consumer owns no transport receiver; its instrumented delivery
  // path counts every event and reads no lag once it has caught up.
  LustreFs fs(LustreFsOptions{}, clock);
  obs::MetricsRegistry registry;
  ScalableMonitor monitor(fs, options(/*with_store=*/false), clock);

  std::atomic<int> count{0};
  ConsumerOptions metered_options;
  metered_options.metrics = &registry;
  auto consumer = monitor.make_consumer(
      "metered", metered_options, [&](const StdEvent&) { count.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  constexpr int kFiles = 16;
  for (int i = 0; i < kFiles; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return count.load() >= kFiles; }));
  consumer->stop();
  monitor.stop();

  const obs::Labels labels{{"consumer", "metered"}};
  EXPECT_EQ(registry.gauge("consumer.delivery_lag_events", labels).value(), 0);
  EXPECT_EQ(registry.counter("consumer.events_delivered", labels).value(),
            static_cast<std::uint64_t>(kFiles));
}

TEST_F(FlowControlTest, IdleSubscriberDoesNotPinStorePurge) {
  // Regression: a live consumer whose rules match nothing never appears
  // in a delivery set, so it never acks; its subscribe-time watermark
  // used to pin the hub's min-ack forever and the store purge reclaimed
  // nothing. The idle subscriber's effective cursor must track heads.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options();
  ScalableMonitor monitor(fs, o, clock);

  std::atomic<int> idle_count{0};
  std::atomic<int> healthy_count{0};
  ConsumerOptions idle_options;
  core::FilterRule never;
  never.root = "/never-created";
  idle_options.rules.push_back(never);
  idle_options.ack_interval = 16;
  auto idle = monitor.make_consumer("idle", idle_options,
                                    [&](const StdEvent&) { idle_count.fetch_add(1); });
  ConsumerOptions healthy_options;
  healthy_options.ack_interval = 16;
  auto healthy = monitor.make_consumer("healthy", healthy_options,
                                       [&](const StdEvent&) { healthy_count.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(idle->start().is_ok());
  ASSERT_TRUE(healthy->start().is_ok());

  constexpr int kEvents = 600;
  for (int i = 0; i < kEvents; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return healthy_count.load() >= kEvents; }));
  EXPECT_EQ(idle->flow_state(), FlowState::kLive);

  // The healthy consumer's acks advance the min watermark because the
  // untouched idle subscriber no longer contributes to it.
  ASSERT_TRUE(wait_until([&] { return monitor.sharded().purge() > 0; },
                         std::chrono::seconds(10)));
  EXPECT_EQ(idle_count.load(), 0);

  idle->stop();
  healthy->stop();
  monitor.stop();
}

TEST_F(FlowControlTest, HubStoppedBeforeStartDoesNotBlockShardSenders) {
  // The tier's hub attaches its kBlock receiver to the shard outputs
  // only at the first subscription, together with the pump that drains
  // it. Before that (the hub never started) the shard senders publish to
  // nobody; after the last consumer leaves, the pump keeps draining.
  // Either way a two-frame inbox never fills and wedges them.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options();
  o.collector.publish_batch = 1;  // one frame per event
  o.flow.high_water_mark = 2;
  ScalableMonitor monitor(fs, o, clock);
  ASSERT_TRUE(monitor.start().is_ok());
  constexpr int kFiles = 64;
  auto create_and_persist = [&](const std::string& prefix, int total) {
    for (int i = 0; i < kFiles; ++i)
      ASSERT_TRUE(fs.create(prefix + std::to_string(i)).is_ok());
    ASSERT_TRUE(wait_until([&] {
      return monitor.sharded().persisted() >= static_cast<std::uint64_t>(total);
    }));
  };
  create_and_persist("/before", kFiles);
  EXPECT_EQ(monitor.sharded().hub().frames_pumped(), 0u);

  std::atomic<int> count{0};
  {
    auto consumer = monitor.make_consumer("c", ConsumerOptions{},
                                          [&](const StdEvent&) { count.fetch_add(1); });
    create_and_persist("/during", 2 * kFiles);
    ASSERT_TRUE(wait_until([&] { return count.load() >= kFiles; }));
  }
  create_and_persist("/after", 3 * kFiles);
  EXPECT_TRUE(wait_until(
      [&] { return monitor.sharded().hub().frames_pumped() >= 2u * kFiles; }));
  monitor.stop();
  EXPECT_EQ(count.load(), kFiles);
}

TEST_F(FlowControlTest, StalledConsumerIsDemotedThenPromotedGapFree) {
  // One frame larger than the credit window, and no traffic after it:
  // the push that spends the window also queues the demotion marker, so
  // the stalled consumer is demoted without waiting for another frame.
  LustreFs fs(LustreFsOptions{}, clock);
  obs::MetricsRegistry registry;
  ScalableMonitorOptions o = options();
  o.aggregator.metrics = &registry;
  o.collector.batch_size = 2048;
  o.collector.publish_batch = 2048;
  o.flow.credit_window = 256;
  ScalableMonitor monitor(fs, o, clock);

  // The stalled consumer blocks inside its callback until released.
  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::mutex seen_mu;
  std::vector<common::EventId> stalled_ids;
  std::atomic<int> healthy_count{0};

  ConsumerOptions slow_options;
  slow_options.ack_interval = 16;
  auto stalled = monitor.make_consumer("stalled", slow_options, [&](const StdEvent& event) {
    {
      std::unique_lock lock(gate_mu);
      gate_cv.wait(lock, [&] { return !gate_closed.load(); });
    }
    std::lock_guard lock(seen_mu);
    stalled_ids.push_back(event.id);
  });
  ConsumerOptions healthy_options;
  healthy_options.ack_interval = 16;
  auto healthy = monitor.make_consumer("healthy", healthy_options,
                                       [&](const StdEvent&) { healthy_count.fetch_add(1); });
  GateGuard guard{gate_closed, gate_mu, gate_cv};

  // Created before start(): the collector reads them as one batch and
  // publishes them as one frame.
  constexpr int kEvents = 1000;
  for (int i = 0; i < kEvents; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(stalled->start().is_ok());
  ASSERT_TRUE(healthy->start().is_ok());

  ASSERT_TRUE(wait_until([&] { return stalled->flow_state() == FlowState::kDemoted; }));
  EXPECT_EQ(monitor.sharded().hub().frames_pumped(), 1u);
  EXPECT_GE(registry.counter("flow.demotions").value(), 1u);
  // Sibling isolation: the healthy consumer receives the whole stream
  // (the frame spent its window too, so via its own catch-up) while its
  // sibling is stalled.
  ASSERT_TRUE(wait_until([&] { return healthy_count.load() >= kEvents; }));
  EXPECT_TRUE(wait_until([&] { return healthy->flow_state() == FlowState::kLive; }));

  // Release the stall: the consumer drains its queued live item, hits
  // the demotion marker, catches up from the store, and is promoted.
  open_gate(gate_closed, gate_mu, gate_cv);
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(seen_mu);
    return stalled_ids.size() >= kEvents;
  })) << "delivered " << stalled->delivered() << ", duplicates "
      << stalled->duplicates_suppressed() << ", seen " << stalled->last_seen_id() << ", "
      << to_string(stalled->flow_state());
  ASSERT_TRUE(wait_until([&] { return stalled->flow_state() == FlowState::kLive; }));
  EXPECT_GE(registry.counter("flow.promotions").value(), 2u);

  stalled->stop();
  healthy->stop();
  monitor.stop();

  // Gap-free and duplicate-free across the live -> replay -> live seam:
  // exactly ids 1..kEvents, each once (single shard, dense sequence).
  std::lock_guard lock(seen_mu);
  ASSERT_EQ(stalled_ids.size(), static_cast<std::size_t>(kEvents));
  std::set<common::EventId> unique(stalled_ids.begin(), stalled_ids.end());
  EXPECT_EQ(unique.size(), stalled_ids.size()) << "duplicate delivery";
  EXPECT_EQ(*unique.begin(), 1u);
  EXPECT_EQ(*unique.rbegin(), static_cast<common::EventId>(kEvents));
  EXPECT_EQ(healthy_count.load(), kEvents);
}

TEST_F(FlowControlTest, NeverDrainingConsumerIsEvicted) {
  LustreFs fs(LustreFsOptions{}, clock);
  obs::MetricsRegistry registry;
  ScalableMonitorOptions o = options();
  o.aggregator.metrics = &registry;
  // The blocked sibling exhausts the window, stops acknowledging and
  // falls past the lag bound. The healthy consumer (which drains at
  // memory speed and acks every 16 events) may still be demoted when the
  // pump runs ahead of it, but it keeps acknowledging while it catches
  // up from the store, so it is never evicted.
  o.flow.credit_window = 4096;
  o.flow.eviction_lag = 6000;
  ScalableMonitor monitor(fs, o, clock);

  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::atomic<int> healthy_count{0};

  ConsumerOptions consumer_options;
  consumer_options.ack_interval = 16;
  auto stalled = monitor.make_consumer("stalled", consumer_options, [&](const StdEvent&) {
    std::unique_lock lock(gate_mu);
    gate_cv.wait(lock, [&] { return !gate_closed.load(); });
  });
  auto healthy = monitor.make_consumer("healthy", consumer_options,
                                       [&](const StdEvent&) { healthy_count.fetch_add(1); });
  GateGuard guard{gate_closed, gate_mu, gate_cv};
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(stalled->start().is_ok());
  ASSERT_TRUE(healthy->start().is_ok());

  constexpr int kEvents = 8000;
  for (int i = 0; i < kEvents; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());

  ASSERT_TRUE(wait_until([&] { return healthy_count.load() >= kEvents; }));
  ASSERT_TRUE(wait_until([&] { return stalled->flow_state() == FlowState::kEvicted; }));
  EXPECT_GE(registry.counter("flow.evictions").value(), 1u);

  // Release the callback so the worker can observe the eviction marker.
  open_gate(gate_closed, gate_mu, gate_cv);
  ASSERT_TRUE(wait_until([&] { return stalled->evicted(); }));
  EXPECT_TRUE(wait_until([&] { return healthy->flow_state() == FlowState::kLive; }));

  stalled->stop();
  healthy->stop();
  monitor.stop();
  EXPECT_EQ(healthy_count.load(), kEvents);
}

TEST_F(FlowControlTest, MinAckHoldsStorePurgeForDemotedConsumer) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options();
  o.flow.credit_window = 256;
  ScalableMonitor monitor(fs, o, clock);

  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::atomic<int> stalled_count{0};
  std::atomic<int> healthy_count{0};

  ConsumerOptions fast_options;
  fast_options.ack_interval = 16;
  auto stalled = monitor.make_consumer("stalled", fast_options, [&](const StdEvent&) {
    {
      std::unique_lock lock(gate_mu);
      gate_cv.wait(lock, [&] { return !gate_closed.load(); });
    }
    stalled_count.fetch_add(1);
  });
  auto healthy = monitor.make_consumer("healthy", fast_options,
                                       [&](const StdEvent&) { healthy_count.fetch_add(1); });
  GateGuard guard{gate_closed, gate_mu, gate_cv};
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(stalled->start().is_ok());
  ASSERT_TRUE(healthy->start().is_ok());

  constexpr int kEvents = 600;
  for (int i = 0; i < kEvents; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return healthy_count.load() >= kEvents; }));
  ASSERT_TRUE(wait_until([&] { return stalled->flow_state() == FlowState::kDemoted; }));

  // The healthy consumer has acked far ahead, but the hub forwards the
  // MINIMUM across subscriptions: the store must keep everything the
  // demoted consumer still needs, so a purge reclaims nothing.
  EXPECT_EQ(monitor.sharded().purge(), 0u);

  open_gate(gate_closed, gate_mu, gate_cv);
  ASSERT_TRUE(wait_until([&] {
    return stalled_count.load() >= kEvents && stalled->flow_state() == FlowState::kLive;
  }));
  // Both consumers have now acked past most of the stream; the min
  // watermark advanced and the purge reclaims reported events.
  ASSERT_TRUE(wait_until([&] { return monitor.sharded().purge() > 0; },
                         std::chrono::seconds(10)));

  stalled->stop();
  healthy->stop();
  monitor.stop();
}

TEST_F(FlowControlTest, StorelessStalledConsumerBackPressuresThePump) {
  // Without a store a slow consumer cannot be demoted to catch up later,
  // so its queue must not grow without bound: the pump waits while the
  // queue holds a credit window of events, and nothing is lost.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options(/*with_store=*/false);
  o.collector.publish_batch = 1;  // one frame per event
  o.flow.credit_window = 64;
  ScalableMonitor monitor(fs, o, clock);

  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::atomic<int> stalled_count{0};
  auto stalled = monitor.make_consumer("stalled", ConsumerOptions{}, [&](const StdEvent&) {
    std::unique_lock lock(gate_mu);
    gate_cv.wait(lock, [&] { return !gate_closed.load(); });
    stalled_count.fetch_add(1);
  });
  GateGuard guard{gate_closed, gate_mu, gate_cv};
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(stalled->start().is_ok());

  constexpr int kEvents = 1000;
  for (int i = 0; i < kEvents; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  // The consumer holds one frame in its callback and the queue one
  // window; the pump stops there, with the rest of the burst upstream.
  auto& hub = monitor.sharded().hub();
  ASSERT_TRUE(wait_until([&] { return hub.frames_pumped() >= 65u; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LE(hub.frames_pumped(), 65u);
  EXPECT_EQ(stalled->flow_state(), FlowState::kLive);

  open_gate(gate_closed, gate_mu, gate_cv);
  ASSERT_TRUE(wait_until([&] { return stalled_count.load() >= kEvents; }))
      << stalled_count.load();
  stalled->stop();
  monitor.stop();
  EXPECT_EQ(stalled_count.load(), kEvents);
  EXPECT_EQ(stalled->flow_state(), FlowState::kLive);
}

TEST_F(FlowControlTest, DeliveryWaitsForPersistenceThenPurgeReclaims) {
  // A shard commits a frame before it publishes it: with the commit held
  // back, nothing is delivered, and every event delivered is already in
  // the store. The consumer's acks therefore never outrun the store, and
  // a purge reclaims everything it acknowledged.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  ConsumerOptions consumer_options;
  consumer_options.ack_interval = 1;
  std::mutex mu;
  std::vector<std::pair<common::EventId, std::uint64_t>> deliveries;  // (id, persisted)
  auto consumer = monitor.make_consumer("c", consumer_options, [&](const StdEvent& event) {
    std::lock_guard lock(mu);
    deliveries.emplace_back(event.id, monitor.sharded().persisted());
  });
  chaos::FaultPlan plan;
  chaos::FaultRule hold_persist;
  hold_persist.point = "aggregator.before_persist";
  hold_persist.action = chaos::FaultAction::kDelay;
  hold_persist.delay = std::chrono::milliseconds(500);
  plan.rules.push_back(hold_persist);
  chaos::ScopedFaultPlan faults(std::move(plan));

  constexpr int kFiles = 8;
  for (int i = 0; i < kFiles; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  {
    std::lock_guard lock(mu);
    EXPECT_TRUE(deliveries.empty()) << "delivered while the commit was held back";
  }
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(mu);
    return deliveries.size() >= static_cast<std::size_t>(kFiles);
  }));
  {
    // One shard, dense ids: id N is durable once N events are persisted.
    std::lock_guard lock(mu);
    for (const auto& [id, persisted] : deliveries)
      EXPECT_GE(persisted, id) << "event " << id << " delivered before it was persisted";
  }

  std::size_t purged = 0;
  EXPECT_TRUE(wait_until([&] {
    purged += monitor.sharded().purge();
    return purged >= kFiles;
  }, std::chrono::seconds(10))) << "purged " << purged;
  consumer->stop();
  monitor.stop();
}

TEST_F(FlowControlTest, RefusedMiddleFrameIsRepairedFromTheStore) {
  run_refused_publish(/*with_store=*/true, /*trailing_frame=*/true);
}

TEST_F(FlowControlTest, RefusedLastFrameIsRepairedWithoutLaterTraffic) {
  run_refused_publish(/*with_store=*/true, /*trailing_frame=*/false);
}

TEST_F(FlowControlTest, StorelessRefusedFrameIsCountedAsAGap) {
  run_refused_publish(/*with_store=*/false, /*trailing_frame=*/true);
}

TEST_F(FlowControlTest, QueuedFramesDoNotPinShmRingRecords) {
  // A subscription's queue holds frames for up to a credit window. Over
  // shm the hub copies each frame out of its ring record, so a consumer
  // that never drains cannot fill the ring and stall the shard sender
  // for its siblings. Upstream, the shard's custody loop must likewise
  // release a committed group before it waits for the next one, or a
  // group that took the whole inbox ring wedges the collector refilling
  // it.
  transport::ShmTransportOptions shm_options;
  shm_options.ring_bytes = 1 << 14;
  transport::ShmTransport shm(shm_options);  // outlives the monitor
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options();
  o.transport = &shm;
  o.collector.publish_batch = 1;  // one small frame per event, through the ring
  ScalableMonitor monitor(fs, o, clock);
  auto never_started =
      monitor.make_consumer("never-started", ConsumerOptions{}, [](const StdEvent&) {});
  std::atomic<int> count{0};
  auto healthy = monitor.make_consumer("healthy", ConsumerOptions{},
                                       [&](const StdEvent&) { count.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(healthy->start().is_ok());

  // Far more one-event frames than the ring holds, all within the idle
  // consumer's credit window, so all of them stay queued for it.
  constexpr int kEvents = 1000;
  for (int i = 0; i < kEvents; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return count.load() >= kEvents; })) << count.load();
  EXPECT_EQ(never_started->flow_state(), FlowState::kLive);
  healthy->stop();
  monitor.stop();
}

}  // namespace
}  // namespace fsmon::scalable
