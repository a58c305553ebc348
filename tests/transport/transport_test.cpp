// The Transport contract, checked identically over all three
// implementations (in-process, shared-memory ring, TCP): exact byte
// delivery, prefix filters, fan-in and fan-out, the high-water-mark
// policies, close/destroy lifecycles, the refusal protocol the
// collector rewind depends on, wrong-kind connect rejection, the
// transport.before_send chaos lever, per-transport metrics, and
// zero-copy hops.
#include "src/transport/transport.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/fault.hpp"
#include "src/obs/metrics.hpp"
#include "src/transport/inproc.hpp"
#include "src/transport/shm.hpp"
#include "src/transport/tcp.hpp"

namespace fsmon::transport {
namespace {

constexpr auto kRecvTimeout = std::chrono::milliseconds(5000);

class TransportTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  std::unique_ptr<Transport> make_transport(TransportKind kind) {
    switch (kind) {
      case TransportKind::kInProc:
        return std::make_unique<InProcTransport>();
      case TransportKind::kShm:
        return std::make_unique<ShmTransport>();
      case TransportKind::kTcp:
        return std::make_unique<TcpTransport>();
    }
    return nullptr;
  }

  std::unique_ptr<Transport> make_transport() { return make_transport(GetParam()); }

  void TearDown() override { chaos::FaultInjector::instance().disarm(); }
};

/// Poll `predicate` for up to five seconds (TCP receivers fill their
/// inbox from reader threads, after send() has returned).
bool eventually(const std::function<bool()>& predicate) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A receiver subscribed to `prefix` and connected to `sender`.
std::shared_ptr<Receiver> attach(Transport& transport, Sender& sender, const std::string& name,
                                 std::size_t high_water_mark = 1024,
                                 OverflowPolicy policy = OverflowPolicy::kBlock,
                                 std::string_view prefix = "") {
  auto receiver = transport.make_receiver(name, high_water_mark, policy);
  receiver->subscribe(prefix);
  sender.connect(receiver);
  return receiver;
}

TEST_P(TransportTest, RoundtripDeliversExactBytes) {
  auto transport = make_transport();
  EXPECT_EQ(transport->kind(), GetParam());
  auto sender = transport->make_sender("s");
  auto receiver = attach(*transport, *sender, "r");
  EXPECT_EQ(sender->receiver_count(), 1u);

  const std::string payload("encoded-batch\x00with-binary\xff-bytes", 32);
  const auto result = sender->send("events/shard0", FrameRef::adopt(std::string(payload)));
  EXPECT_EQ(result.accepted, 1u);
  EXPECT_EQ(result.receivers, 1u);
  EXPECT_FALSE(result.refused());
  EXPECT_EQ(sender->sent(), 1u);

  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->topic, "events/shard0");
  EXPECT_EQ(frame->payload.chars(), payload);
}

TEST_P(TransportTest, PerSenderOrderIsPreserved) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = attach(*transport, *sender, "r");
  for (int i = 0; i < 50; ++i) {
    const auto result =
        sender->send("t", FrameRef::adopt("frame" + std::to_string(i)));
    ASSERT_EQ(result.accepted, 1u) << "frame " << i;
  }
  for (int i = 0; i < 50; ++i) {
    auto frame = receiver->recv(kRecvTimeout);
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->payload.chars(), "frame" + std::to_string(i));
  }
}

TEST_P(TransportTest, TopicPrefixFilterApplies) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = attach(*transport, *sender, "r", 1024, OverflowPolicy::kBlock, "alpha");

  sender->send("beta/filtered-out", FrameRef::adopt(std::string("nope")));
  sender->send("alpha/kept", FrameRef::adopt(std::string("yes")));

  // The first frame through the filter must be the alpha one: the beta
  // frame was never enqueued (never even crossed the wire on TCP, where
  // filters run sender-side).
  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->topic, "alpha/kept");
  EXPECT_EQ(frame->payload.chars(), "yes");
  EXPECT_FALSE(receiver->try_recv().has_value());
}

TEST_P(TransportTest, NoFiltersReceiveNothing) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = transport->make_receiver("r", 1024, OverflowPolicy::kBlock);
  sender->connect(receiver);  // connected but not subscribed

  sender->send("t", FrameRef::adopt(std::string("invisible")));
  receiver->subscribe("");
  // A post-connect subscribe registers asynchronously on TCP (production
  // stages subscribe before connect, which waits). Keep sending sentinels
  // until one lands; whatever arrives first must be a sentinel — the
  // pre-subscription frame stays invisible on every carrier.
  std::optional<Frame> frame;
  for (int i = 0; i < 200 && !frame.has_value(); ++i) {
    sender->send("t", FrameRef::adopt(std::string("sentinel")));
    frame = receiver->recv(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.chars(), "sentinel");
}

TEST_P(TransportTest, ConnectingForeignReceiverThrows) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  // A receiver made by a *different* transport kind must be rejected at
  // connect time, not fail silently at send time.
  const auto other_kind = GetParam() == TransportKind::kInProc ? TransportKind::kShm
                                                              : TransportKind::kInProc;
  auto other = make_transport(other_kind);
  auto foreign = other->make_receiver("foreign", 16, OverflowPolicy::kBlock);
  EXPECT_THROW(sender->connect(foreign), std::invalid_argument);
  EXPECT_EQ(sender->receiver_count(), 0u);
}

TEST_P(TransportTest, BeforeSendFaultSurfacesAsRefusal) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = attach(*transport, *sender, "r");

  chaos::FaultPlan plan;
  chaos::FaultRule rule;
  rule.point = "transport.before_send";
  rule.action = chaos::FaultAction::kDrop;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  chaos::FaultInjector::instance().arm(std::move(plan));

  // The faulted send is a refusal — the producer's signal to rewind.
  const auto refused = sender->send("t", FrameRef::adopt(std::string("dropped")));
  EXPECT_EQ(refused.accepted, 0u);
  EXPECT_TRUE(refused.refused());

  // One fire only: the retry goes through, and the receiver never saw
  // the refused frame.
  const auto retried = sender->send("t", FrameRef::adopt(std::string("retried")));
  EXPECT_EQ(retried.accepted, 1u);
  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.chars(), "retried");
}

TEST_P(TransportTest, ClosedReceiverRefusesAndReopenDiscardsBacklog) {
  // Regression test for the TCP reconnect suffix-loss race: a receiver
  // that was connected and is now gone must surface as a *refusal*
  // (receivers > 0, accepted == 0 — the producer's rewind signal), never
  // as receivers == 0 ("nobody ever listened, fine to drop"). In-proc
  // and shm always behaved this way because the inbox object survives a
  // close; TCP used to report the empty connection table as an empty
  // audience, silently losing every frame a collector replayed into a
  // crashed shard's teardown/re-dial window.
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = attach(*transport, *sender, "r");

  ASSERT_EQ(sender->send("t", FrameRef::adopt(std::string("pre-close"))).accepted, 1u);
  receiver->close();
  EXPECT_TRUE(receiver->closed());
  // The carriers learn of the dead peer at different speeds: in-proc and
  // shm refuse on the first send; TCP may buffer a few writes into the
  // half-closed socket before the failure surfaces. Bounded retries,
  // then the result must be a refusal.
  SendResult result;
  for (int i = 0; i < 500; ++i) {
    result = sender->send("t", FrameRef::adopt(std::string("refused")));
    if (result.refused()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(result.accepted, 0u);
  EXPECT_GE(result.receivers, 1u);
  EXPECT_TRUE(result.refused());

  // Reopen drops the pre-crash backlog (restart semantics): the first
  // frame a restarted stage sees is one sent after the reopen. On TCP
  // the re-dialed subscription registers asynchronously, so retry until
  // a send is accepted.
  receiver->reopen();
  EXPECT_FALSE(receiver->closed());
  SendResult reopened;
  for (int i = 0; i < 500; ++i) {
    reopened = sender->send("t", FrameRef::adopt(std::string("post-reopen")));
    if (reopened.accepted > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(reopened.accepted, 0u);
  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.chars(), "post-reopen");
  // Nothing from before the close may leak through; only (possibly
  // repeated) post-reopen sends are visible.
  while (auto extra = receiver->try_recv()) {
    EXPECT_EQ(extra->payload.chars(), "post-reopen");
  }
}

TEST_P(TransportTest, MetricsCountAcceptedFramesAndBytes) {
  obs::MetricsRegistry registry;
  auto transport = make_transport();
  transport->attach_metrics(&registry);
  auto sender = transport->make_sender("s");
  auto receiver = attach(*transport, *sender, "r");

  std::uint64_t bytes = 0;
  for (int i = 0; i < 3; ++i) {
    const std::string payload(10 + i, 'x');
    bytes += payload.size();
    ASSERT_EQ(sender->send("t", FrameRef::adopt(std::string(payload))).accepted, 1u);
  }

  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_total("transport.frames"), 3u);
  EXPECT_EQ(snapshot.counter_total("transport.bytes"), bytes);
  EXPECT_TRUE(snapshot.contains("transport.ring_full_waits"));
  EXPECT_TRUE(snapshot.contains("frame.copies"));
  // The label identifies which transport moved the frames.
  bool labelled = false;
  for (const auto& sample : snapshot.samples) {
    if (sample.name == "transport.frames") {
      const auto it = sample.labels.find("transport");
      labelled = it != sample.labels.end() && it->second == to_string(GetParam());
    }
  }
  EXPECT_TRUE(labelled) << "transport.frames missing transport=<kind> label";
}

TEST_P(TransportTest, HopIsZeroCopy) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = attach(*transport, *sender, "r");

  const std::uint64_t before = frame_copies();
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(sender->send("t", FrameRef::adopt(std::string(512, 'z'))).accepted, 1u);
    auto frame = receiver->recv(kRecvTimeout);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->payload.size(), 512u);
  }
  // In-proc: shared_ptr bump. Shm: one write into the ring, read in
  // place. TCP: scatter-gather send + wire transfer (not a frame copy).
  EXPECT_EQ(frame_copies(), before);
}

TEST_P(TransportTest, FanInKeepsPerSenderOrderUnderBackPressure) {
  // The aggregator pattern: several senders, one receiver. The tiny
  // kBlock high-water mark makes every sender wait on the receiver, so
  // this also checks back-pressure is lossless. Over TCP each sender is
  // its own connection and reader thread feeding the one shared inbox.
  auto transport = make_transport();
  auto receiver = transport->make_receiver("r", 4, OverflowPolicy::kBlock);
  receiver->subscribe("");
  constexpr int kSenders = 3;
  constexpr int kFrames = 300;
  std::vector<std::shared_ptr<Sender>> senders;
  for (int k = 0; k < kSenders; ++k) {
    senders.push_back(transport->make_sender("s" + std::to_string(k)));
    senders.back()->connect(receiver);
  }
  std::vector<std::jthread> producers;
  for (int k = 0; k < kSenders; ++k) {
    producers.emplace_back([&, k] {
      for (int i = 0; i < kFrames; ++i) {
        const auto result = senders[static_cast<std::size_t>(k)]->send(
            "s" + std::to_string(k), FrameRef::adopt(std::to_string(i)));
        EXPECT_EQ(result.accepted, 1u) << "sender " << k << " frame " << i;
      }
    });
  }
  std::map<std::string, int> next;
  for (int n = 0; n < kSenders * kFrames; ++n) {
    auto frame = receiver->recv(kRecvTimeout);
    ASSERT_TRUE(frame.has_value()) << "after " << n << " frames";
    int& expected = next[frame->topic];
    EXPECT_EQ(frame->payload.chars(), std::to_string(expected)) << frame->topic;
    ++expected;
  }
  EXPECT_EQ(next.size(), static_cast<std::size_t>(kSenders));
  EXPECT_FALSE(receiver->try_recv().has_value());
}

TEST_P(TransportTest, FanOutReachesEveryReceiver) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  std::vector<std::shared_ptr<Receiver>> receivers;
  for (int k = 0; k < 3; ++k) {
    receivers.push_back(attach(*transport, *sender, "r" + std::to_string(k), 64));
  }
  EXPECT_EQ(sender->receiver_count(), 3u);
  for (int i = 0; i < 10; ++i) {
    const auto result = sender->send("t", FrameRef::adopt(std::to_string(i)));
    EXPECT_EQ(result.accepted, 3u);
    EXPECT_EQ(result.receivers, 3u);
  }
  for (const auto& receiver : receivers) {
    for (int i = 0; i < 10; ++i) {
      auto frame = receiver->recv(kRecvTimeout);
      ASSERT_TRUE(frame.has_value()) << receiver->name() << " frame " << i;
      EXPECT_EQ(frame->payload.chars(), std::to_string(i));
    }
  }
}

TEST_P(TransportTest, DropNewestAtHighWaterMarkCountsDropped) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = attach(*transport, *sender, "r", 2, OverflowPolicy::kDropNewest);
  for (int i = 0; i < 5; ++i) sender->send("t", FrameRef::adopt(std::to_string(i)));
  // The sender never blocks; the frames past the mark are dropped (at
  // send time in-proc and over shm, at the receiving end over TCP).
  ASSERT_TRUE(eventually([&] { return receiver->pending() + receiver->dropped() == 5; }));
  EXPECT_EQ(receiver->pending(), 2u);
  EXPECT_EQ(receiver->dropped(), 3u);
  for (int i = 0; i < 2; ++i) {
    auto frame = receiver->recv(kRecvTimeout);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload.chars(), std::to_string(i));
  }
}

TEST_P(TransportTest, CloseWakesBlockedRecv) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = attach(*transport, *sender, "r", 16);
  std::atomic<bool> returned{false};
  std::optional<Frame> got;
  std::jthread waiter([&] {
    got = receiver->recv();  // no timeout: only close() can end this
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  receiver->close();
  waiter.join();
  EXPECT_FALSE(got.has_value());
}

TEST_P(TransportTest, DisconnectedOrDestroyedReceiverIsPruned) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto kept = attach(*transport, *sender, "kept", 16);
  auto gone = attach(*transport, *sender, "gone", 16);
  EXPECT_EQ(sender->receiver_count(), 2u);

  sender->disconnect(gone);
  EXPECT_EQ(sender->receiver_count(), 1u);
  EXPECT_EQ(sender->send("t", FrameRef::adopt(std::string("x"))).accepted, 1u);
  EXPECT_FALSE(gone->try_recv().has_value());

  // A destroyed receiver leaves no audience behind: sends read as
  // "nobody listening", not as a refusal (unlike a closed one).
  kept.reset();
  EXPECT_EQ(sender->receiver_count(), 0u);
  const auto result = sender->send("t", FrameRef::adopt(std::string("y")));
  EXPECT_EQ(result.receivers, 0u);
  EXPECT_EQ(result.accepted, 0u);
  EXPECT_FALSE(result.refused());
}

TEST_P(TransportTest, OneMebibytePayloadRoundTrips) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = attach(*transport, *sender, "r", 16);
  std::string payload(1 << 20, 'x');
  for (std::size_t i = 0; i < payload.size(); i += 4099) payload[i] = static_cast<char>(i);
  ASSERT_EQ(sender->send("big", FrameRef::adopt(std::string(payload))).accepted, 1u);
  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->topic, "big");
  EXPECT_TRUE(frame->payload.chars() == payload);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TransportTest,
                         ::testing::Values(TransportKind::kInProc, TransportKind::kShm,
                                           TransportKind::kTcp),
                         [](const ::testing::TestParamInfo<TransportKind>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(InProcTransportTest, BlockedDeliveryDoesNotHoldSenderLock) {
  // send() snapshots the receivers under the sender's lock and delivers
  // outside it. A kBlock receiver at its high-water mark stalls the
  // delivering thread; connect/disconnect/receiver_count and sends to
  // other receivers must still complete while it is stalled.
  InProcTransport transport;
  auto sender = transport.make_sender("s");
  auto full = transport.make_receiver("full", 1, OverflowPolicy::kBlock);
  full->subscribe("t");  // not "": the "u" send below must bypass it
  sender->connect(full);
  ASSERT_EQ(sender->send("t", FrameRef::adopt(std::string("fills the inbox"))).accepted, 1u);

  std::atomic<bool> blocked_send_done{false};
  std::jthread blocked([&] {
    sender->send("t", FrameRef::adopt(std::string("blocks until the inbox drains")));
    blocked_send_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_FALSE(blocked_send_done.load());

  // All of these deadlock if send() still holds the lock while delivering.
  auto other = attach(transport, *sender, "other", 16);
  EXPECT_EQ(sender->receiver_count(), 2u);
  EXPECT_EQ(sender->send("u", FrameRef::adopt(std::string("reaches other"))).accepted, 1u);
  EXPECT_EQ(other->pending(), 1u);
  sender->disconnect(other);
  EXPECT_EQ(sender->receiver_count(), 1u);

  // Drain the full inbox so the stalled send completes.
  while (!blocked_send_done.load()) {
    full->try_recv();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// The in-process pub/sub basics the collectors and the aggregator rely
// on: a subscribed receiver gets the frame, an unsubscribed one gets
// nothing, and a prefix filter keeps out every other topic.
TEST(PubSubTest, DeliversToMatchingSubscriber) {
  InProcTransport transport;
  auto sender = transport.make_sender("p");
  auto receiver = attach(transport, *sender, "s", 16, OverflowPolicy::kBlock, "fsmon/");
  EXPECT_EQ(sender->send("fsmon/mdt0", FrameRef::adopt(std::string("hello"))).accepted, 1u);
  auto frame = receiver->try_recv();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->topic, "fsmon/mdt0");
  EXPECT_EQ(frame->payload.chars(), "hello");
}

TEST(PubSubTest, NoFiltersMeansNoDelivery) {
  InProcTransport transport;
  auto sender = transport.make_sender("p");
  auto receiver = transport.make_receiver("s", 16, OverflowPolicy::kBlock);
  sender->connect(receiver);
  EXPECT_EQ(sender->send("any", FrameRef::adopt(std::string("x"))).accepted, 0u);
  EXPECT_FALSE(receiver->try_recv().has_value());
}

TEST(PubSubTest, TopicFilterExcludesNonMatching) {
  InProcTransport transport;
  auto sender = transport.make_sender("p");
  auto receiver = attach(transport, *sender, "s", 16, OverflowPolicy::kBlock, "a/");
  sender->send("a/1", FrameRef::adopt(std::string("yes")));
  sender->send("b/1", FrameRef::adopt(std::string("no")));
  EXPECT_EQ(receiver->pending(), 1u);
  EXPECT_EQ(receiver->try_recv()->payload.chars(), "yes");
}

TEST(TopicMatchTest, PrefixSemantics) {
  // A filter matches every topic it is a prefix of; "" matches all. The
  // in-process receiver and the TCP sender each apply filters in their
  // own code, so both are checked against the same table.
  struct Case {
    std::string filter;
    std::string topic;
    bool matches;
  };
  const std::vector<Case> cases = {
      {"", "anything", true},
      {"fsmon/", "fsmon/mdt0", true},
      {"fsmon/mdt1", "fsmon/mdt0", false},
      {"fsmon/mdt0", "fsmon/mdt0", true},
      {"longer-than-topic", "short", false},
  };
  InProcTransport inproc;
  TcpTransport tcp;
  for (Transport* transport : {static_cast<Transport*>(&inproc), static_cast<Transport*>(&tcp)}) {
    for (const auto& c : cases) {
      auto sender = transport->make_sender("p");
      auto receiver = attach(*transport, *sender, "s", 16, OverflowPolicy::kBlock, c.filter);
      EXPECT_EQ(sender->send(c.topic, FrameRef::adopt(std::string("x"))).accepted,
                c.matches ? 1u : 0u)
          << to_string(transport->kind()) << ": filter '" << c.filter << "' topic '"
          << c.topic << "'";
    }
  }
}

}  // namespace
}  // namespace fsmon::transport
