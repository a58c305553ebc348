// A burst far beyond a consumer's credit window is lossless. With a
// store, a consumer that falls behind is demoted and recovers the gap
// from the reliable store (paper Section IV "Consumption"; see
// FlowControlTest). Without one there is nothing to catch up from, so
// the hub holds the pump while the consumer's queue is a window deep.
#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/scalable/scalable_monitor.hpp"

namespace fsmon::scalable {
namespace {

using lustre::LustreFs;
using lustre::LustreFsOptions;

class ConsumerOverflowTest : public ::testing::Test {
 protected:
  common::RealClock clock;
};

TEST_F(ConsumerOverflowTest, BlockPolicyIsLosslessUnderBurst) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions options;
  options.collector.publish_batch = 1;  // one frame per event
  options.flow.credit_window = 4;       // tiny, but storeless never drops
  ScalableMonitor monitor(fs, options, clock);
  ConsumerOptions consumer_options;
  consumer_options.ack_interval = 2;
  std::atomic<int> count{0};
  auto consumer = monitor.make_consumer("c", consumer_options,
                                        [&](const core::StdEvent&) {
                                          count.fetch_add(1);
                                        });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());
  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) fs.create("/g" + std::to_string(i));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count.load() < kEvents && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  EXPECT_EQ(count.load(), kEvents);
  EXPECT_EQ(consumer->flow_state(), FlowState::kLive);
}

}  // namespace
}  // namespace fsmon::scalable
