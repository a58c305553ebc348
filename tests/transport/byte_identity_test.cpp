// Satellite invariant of the transport layer: the carrier must be
// invisible. The same 4-shard workload routed over the in-process queues,
// the shared-memory rings and TCP sockets must deliver byte-identical
// per-shard consumer streams — same frames, same bytes, same order. The
// in-proc and shm runs must additionally complete with zero frame
// copies (TCP's receive side materializes bytes off the socket; that is
// a wire transfer, not a counted copy — see src/transport/frame.hpp).
#include <array>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/event.hpp"
#include "src/scalable/sharded_aggregator.hpp"
#include "src/transport/inproc.hpp"
#include "src/transport/shm.hpp"
#include "src/transport/tcp.hpp"

namespace fsmon::transport {
namespace {

constexpr std::size_t kShards = 4;
constexpr int kRounds = 8;

std::string make_frame(const std::string& source, std::uint64_t first_cookie,
                       int count) {
  core::EventBatch batch;
  for (int i = 0; i < count; ++i) {
    core::StdEvent event;
    event.source = source;
    event.cookie = first_cookie + static_cast<std::uint64_t>(i);
    event.path = "/f" + std::to_string(event.cookie);
    batch.events.push_back(std::move(event));
  }
  const auto bytes = core::encode_batch(batch);
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

/// topic -> ordered frame payloads, i.e. one byte stream per shard.
using Streams = std::map<std::string, std::vector<std::string>>;

Streams run_workload(Transport& transport) {
  common::RealClock clock;
  scalable::ShardedAggregatorOptions options;
  options.shards = kShards;
  options.transport = &transport;
  scalable::ShardedAggregator sharded("aggregator", std::move(options), clock);

  auto tap = transport.make_receiver("tap", 1 << 16, OverflowPolicy::kBlock);
  tap->subscribe("");
  for (std::size_t k = 0; k < kShards; ++k) sharded.shard(k).connect_output(tap);

  // Fixed global route order from this one thread: per-shard arrival
  // order (and so per-shard id assignment) is the same on every carrier.
  // MDT i -> shard i via the trailing-index rule.
  std::size_t frames_routed = 0;
  std::uint64_t events_routed = 0;
  std::array<std::uint64_t, kShards> next_cookie;
  next_cookie.fill(1);
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t m = 0; m < kShards; ++m) {
      const int count = 1 + (round + static_cast<int>(m)) % 5;
      const std::string source = "lustre:MDT" + std::to_string(m);
      const auto result = sharded.router().route(
          "events", FrameRef::adopt(make_frame(source, next_cookie[m], count)));
      EXPECT_EQ(result.accepted, 1u) << source << " round " << round;
      next_cookie[m] += static_cast<std::uint64_t>(count);
      ++frames_routed;
      events_routed += static_cast<std::uint64_t>(count);
    }
  }

  // Synchronous shard drains; over TCP the routed frames arrive through
  // sockets, so poll until every event has been pumped.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sharded.aggregated() < events_routed &&
         std::chrono::steady_clock::now() < deadline) {
    for (std::size_t k = 0; k < kShards; ++k) sharded.shard(k).drain_once();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sharded.aggregated(), events_routed);

  Streams streams;
  for (std::size_t i = 0; i < frames_routed; ++i) {
    auto frame = tap->recv(std::chrono::milliseconds(5000));
    if (!frame.has_value()) break;
    streams[frame->topic].push_back(std::string(frame->payload.chars()));
  }
  EXPECT_FALSE(tap->try_recv().has_value());
  return streams;
}

TEST(ByteIdentityTest, AllTransportsDeliverIdenticalConsumerStreams) {
  InProcTransport inproc;
  ShmTransport shm;
  TcpTransport tcp;

  const std::uint64_t copies_before = frame_copies();
  const Streams via_inproc = run_workload(inproc);
  const Streams via_shm = run_workload(shm);
  // In-proc handoffs are refcount bumps; shm writes each frame once into
  // the ring and patches ids in place. Neither run may copy any payload.
  EXPECT_EQ(frame_copies(), copies_before);
  const Streams via_tcp = run_workload(tcp);

  // One stream per shard, every shard saw traffic.
  ASSERT_EQ(via_inproc.size(), kShards);
  for (const auto& [topic, frames] : via_inproc) {
    EXPECT_EQ(frames.size(), kRounds) << topic;
  }

  // The tentpole assertion: carrier changes nothing, byte for byte.
  EXPECT_EQ(via_shm, via_inproc);
  EXPECT_EQ(via_tcp, via_inproc);
}

TEST(ByteIdentityTest, ShardStreamsDifferButUnionCoversWorkload) {
  // Sanity on the harness itself: the per-shard streams are genuinely
  // partitioned (no two shards carry the same frames), and decoding the
  // union recovers every routed (source, cookie) exactly once.
  InProcTransport transport;
  const Streams streams = run_workload(transport);
  std::map<std::pair<std::string, std::uint64_t>, int> seen;
  for (const auto& [topic, frames] : streams) {
    for (const auto& payload : frames) {
      auto batch = core::decode_batch(
          {reinterpret_cast<const std::byte*>(payload.data()), payload.size()});
      ASSERT_TRUE(batch.is_ok()) << batch.status().to_string();
      for (const auto& event : batch.value().events) {
        ++seen[{event.source, event.cookie}];
        EXPECT_EQ("lustre:MDT" + topic.substr(topic.size() - 1), event.source)
            << "event routed to the wrong shard stream " << topic;
      }
    }
  }
  std::size_t expected = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t m = 0; m < kShards; ++m) {
      expected += static_cast<std::size_t>(1 + (round + static_cast<int>(m)) % 5);
    }
  }
  EXPECT_EQ(seen.size(), expected);
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << key.first << " cookie " << key.second;
  }
}

}  // namespace
}  // namespace fsmon::transport
