// The TCP carrier's wire codec (u32 topic_len | topic | u32 payload_len
// | payload | u32 crc), its dial failures, and loopback delivery through
// TcpTransport: sender-side filtering, fan-out to several connections
// and in-order delivery of a long frame stream. The contract shared with
// the other carriers is covered by the parameterized TransportTest.
#include "src/transport/tcp.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/common/random.hpp"

namespace fsmon::transport {
namespace {

std::span<const std::byte> as_bytes(std::string_view view) {
  return {reinterpret_cast<const std::byte*>(view.data()), view.size()};
}

std::vector<std::byte> encode(std::string_view topic, std::string_view payload) {
  return encode_frame(topic, as_bytes(payload));
}

TEST(FrameTest, EncodeDecodeRoundTrip) {
  const auto frame = encode("fsmon/mdt0", "payload bytes");
  auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first.topic, "fsmon/mdt0");
  EXPECT_EQ(decoded->first.payload.chars(), "payload bytes");
  EXPECT_EQ(decoded->second, frame.size());
}

TEST(FrameTest, EmptyTopicAndPayload) {
  const auto frame = encode("", "");
  EXPECT_EQ(frame.size(), 12u);
  auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->first.topic.empty());
  EXPECT_TRUE(decoded->first.payload.empty());
}

TEST(FrameTest, PartialFrameReturnsNullopt) {
  const auto frame = encode("topic", "payload");
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_frame(std::span(frame.data(), len)).has_value()) << len;
  }
}

TEST(FrameTest, CorruptPayloadThrows) {
  auto frame = encode("topic", "payload");
  frame[6] ^= std::byte{0xFF};  // flip a topic byte
  EXPECT_THROW(decode_frame(frame), std::runtime_error);
}

TEST(FrameTest, CorruptCrcThrows) {
  auto frame = encode("t", "p");
  frame.back() ^= std::byte{0x01};
  EXPECT_THROW(decode_frame(frame), std::runtime_error);
}

TEST(FrameTest, BackToBackFramesDecodeSequentially) {
  auto a = encode("t1", "p1");
  const auto b = encode("t2", "payload-two");
  a.insert(a.end(), b.begin(), b.end());
  auto first = decode_frame(a);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first.topic, "t1");
  auto second = decode_frame(std::span(a).subspan(first->second));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->first.payload.chars(), "payload-two");
  EXPECT_EQ(first->second + second->second, a.size());
}

TEST(FrameTest, FuzzRoundTripRandomPayloads) {
  common::Rng rng(1234);
  for (int i = 0; i < 200; ++i) {
    std::string topic;
    std::string payload;
    const auto topic_len = rng.next_below(32);
    const auto payload_len = rng.next_below(512);
    for (std::uint64_t k = 0; k < topic_len; ++k)
      topic.push_back(static_cast<char>(rng.next_below(256)));
    for (std::uint64_t k = 0; k < payload_len; ++k)
      payload.push_back(static_cast<char>(rng.next_below(256)));
    auto decoded = decode_frame(encode(topic, payload));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->first.topic, topic);
    EXPECT_EQ(decoded->first.payload.chars(), payload);
  }
}

TEST(TcpReceiverTest, DialDeadPortFails) {
  std::uint16_t dead_port = 0;
  {
    TcpSender sender("s", "127.0.0.1");
    dead_port = sender.port();
  }  // the listener is gone: nothing accepts on that port any more
  TcpReceiver receiver("r", 16, OverflowPolicy::kBlock);
  receiver.subscribe("");
  const auto status = receiver.dial("127.0.0.1", dead_port);
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), common::ErrorCode::kUnavailable);
}

TEST(TcpReceiverTest, DialBadAddressFails) {
  TcpReceiver receiver("r", 16, OverflowPolicy::kBlock);
  EXPECT_EQ(receiver.dial("not-an-ip", 1234).code(), common::ErrorCode::kInvalid);
}

constexpr auto kRecvTimeout = std::chrono::milliseconds(5000);

class TcpTest : public ::testing::Test {
 protected:
  /// connect() returns once the receiver's filters are registered with
  /// the sender, so the first send after it is already filtered.
  std::shared_ptr<Receiver> subscribed_receiver(const std::string& name,
                                                const std::string& prefix) {
    auto receiver = transport.make_receiver(name, 4096, OverflowPolicy::kBlock);
    receiver->subscribe(prefix);
    sender->connect(receiver);
    return receiver;
  }

  TcpTransport transport;
  std::shared_ptr<Sender> sender = transport.make_sender("p");
};

TEST_F(TcpTest, PublishReachesSubscriber) {
  auto receiver = subscribed_receiver("s", "fsmon/");
  EXPECT_EQ(sender->send("fsmon/mdt0", FrameRef::adopt(std::string("event-payload"))).accepted,
            1u);
  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->topic, "fsmon/mdt0");
  EXPECT_EQ(frame->payload.chars(), "event-payload");
}

TEST_F(TcpTest, TopicFilteringAppliesRemotely) {
  // Filters travel to the sender, so an unwanted frame never crosses the
  // wire: the send is accepted by nobody.
  auto receiver = subscribed_receiver("s", "wanted/");
  EXPECT_EQ(sender->send("unwanted/x", FrameRef::adopt(std::string("nope"))).accepted, 0u);
  EXPECT_EQ(sender->send("wanted/x", FrameRef::adopt(std::string("yes"))).accepted, 1u);
  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.chars(), "yes");
  EXPECT_FALSE(receiver->try_recv().has_value());
}

TEST_F(TcpTest, MultipleSubscribersFanOut) {
  auto a = subscribed_receiver("a", "t");
  auto b = subscribed_receiver("b", "t");
  EXPECT_EQ(sender->receiver_count(), 2u);
  const auto result = sender->send("t", FrameRef::adopt(std::string("final")));
  EXPECT_EQ(result.accepted, 2u);
  EXPECT_EQ(result.receivers, 2u);
  for (const auto& receiver : {a, b}) {
    auto frame = receiver->recv(kRecvTimeout);
    ASSERT_TRUE(frame.has_value()) << receiver->name();
    EXPECT_EQ(frame->payload.chars(), "final");
  }
}

TEST_F(TcpTest, ManyFramesInOrder) {
  auto receiver = subscribed_receiver("s", "seq");
  constexpr int kCount = 2000;
  for (int i = 0; i < kCount; ++i)
    ASSERT_EQ(sender->send("seq", FrameRef::adopt(std::to_string(i))).accepted, 1u) << i;
  for (int i = 0; i < kCount; ++i) {
    auto frame = receiver->recv(kRecvTimeout);
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->payload.chars(), std::to_string(i));
  }
}

}  // namespace
}  // namespace fsmon::transport
