// Collector behaviour with modeled costs on an injected manual clock:
// the threaded collector pays per-record latency for real, which is how
// small-scale real-time deployments would see fid2path stalls.
#include <gtest/gtest.h>

#include "src/scalable/scalable_monitor.hpp"
#include "src/transport/inproc.hpp"

namespace fsmon::scalable {
namespace {

TEST(CollectorCostsTest, ModeledLatencyAdvancesInjectedClock) {
  common::ManualClock clock;
  lustre::LustreFs fs(lustre::LustreFsOptions{}, clock);
  transport::InProcTransport transport;
  auto inbox = transport.make_receiver("inbox", 1024);
  inbox->subscribe("");
  auto sender = transport.make_sender("pub");
  sender->connect(inbox);

  CollectorOptions options;
  options.cache_size = 16;
  options.costs.base_latency = std::chrono::microseconds(100);
  options.costs.base_cpu = std::chrono::microseconds(10);
  options.resolver.base_cost = std::chrono::microseconds(50);
  options.resolver.per_component_cost = {};
  Collector collector(fs, 0, sender, options, clock);

  fs.create("/a");  // parent (root) fid2path + construct: 100us + 50us + lookups
  fs.modify("/a", 1);  // target cache hit: 100us + lookups
  const auto before = clock.now();
  EXPECT_EQ(collector.drain_once(), 2u);
  const auto elapsed = clock.now() - before;
  // At least the base costs plus one fid2path must have been slept.
  EXPECT_GE(elapsed, std::chrono::microseconds(250));
  // Both events were published (possibly sharing one batch frame).
  std::size_t events = 0;
  while (auto message = inbox->try_recv()) {
    auto batch = core::decode_batch(message->payload.bytes());
    ASSERT_TRUE(batch.is_ok()) << batch.status().to_string();
    events += batch.value().size();
  }
  EXPECT_EQ(events, 2u);
}

TEST(CollectorCostsTest, ZeroCostsDoNotTouchClock) {
  common::ManualClock clock;
  lustre::LustreFs fs(lustre::LustreFsOptions{}, clock);
  transport::InProcTransport transport;
  auto sender = transport.make_sender("pub");
  CollectorOptions options;  // zero modeled costs
  Collector collector(fs, 0, sender, options, clock);
  fs.create("/a");
  const auto before = clock.now();
  collector.drain_once();
  EXPECT_EQ(clock.now(), before);
}

TEST(CollectorCostsTest, CacheStatsExposed) {
  common::ManualClock clock;
  lustre::LustreFs fs(lustre::LustreFsOptions{}, clock);
  transport::InProcTransport transport;
  auto sender = transport.make_sender("pub");
  CollectorOptions options;
  options.cache_size = 16;
  Collector collector(fs, 0, sender, options, clock);
  fs.create("/a");
  fs.modify("/a", 1);
  collector.drain_once();
  ASSERT_TRUE(collector.cache_stats().has_value());
  EXPECT_GE(collector.cache_stats()->hits, 1u);  // the MTIME target hit
  EXPECT_EQ(collector.processor_stats().records, 2u);

  CollectorOptions uncached;
  uncached.cache_size = 0;
  Collector bare(fs, 0, sender, uncached, clock);
  EXPECT_FALSE(bare.cache_stats().has_value());
}

}  // namespace
}  // namespace fsmon::scalable
