// InProcTransport: the in-process carrier, standing in for the paper's
// ZeroMQ pub/sub between stages of one process.
//
// A receiver is a bounded queue of Frames plus a set of topic prefix
// filters; the high-water mark and overflow policy are the queue's
// (kBlock is lossless back-pressure, kDropNewest counts dropped()).
// A sender holds weak references to its connected receivers, so a
// destroyed receiver is pruned on the next send, while a closed one
// still counts as an audience and refuses.
//
// send() snapshots the live receivers under the sender's lock and
// delivers outside it, so a receiver blocked at its high-water mark
// stalls only that send, never connect()/disconnect() or sends from
// other threads. Delivery is move-aware: the last matching receiver
// gets the FrameRef itself, so with single-receiver fan-in (every
// collector -> shard hop) the frame's refcount stays at one and the
// aggregator patches ids in place without a copy.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/bounded_queue.hpp"
#include "src/transport/transport.hpp"

namespace fsmon::transport {

class InProcReceiver : public Receiver {
 public:
  InProcReceiver(std::string name, std::size_t high_water_mark, OverflowPolicy policy)
      : name_(std::move(name)), inbox_(high_water_mark, policy) {}

  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  std::optional<Frame> try_recv() override { return inbox_.try_pop(); }
  void subscribe(std::string_view prefix) override;
  void close() override { inbox_.close(); }
  void reopen() override { inbox_.reopen(); }
  bool closed() const override { return inbox_.closed(); }
  std::size_t pending() const override { return inbox_.size(); }
  std::uint64_t dropped() const override { return inbox_.dropped(); }
  const std::string& name() const override { return name_; }

  bool accepts(std::string_view topic) const;

 private:
  friend class InProcSender;

  const std::string name_;
  mutable std::mutex filter_mu_;
  std::vector<std::string> filters_;
  common::BoundedQueue<Frame> inbox_;
};

class InProcSender : public Sender {
 public:
  explicit InProcSender(std::string name) : name_(std::move(name)) {}

  SendResult send(std::string_view topic, FrameRef frame) override;
  void connect(const std::shared_ptr<Receiver>& receiver) override;
  void disconnect(const std::shared_ptr<Receiver>& receiver) override;
  std::size_t receiver_count() const override;
  std::uint64_t sent() const override;
  const std::string& name() const override { return name_; }

  void set_metrics(TransportMetrics metrics) { metrics_ = metrics; }

 private:
  const std::string name_;
  mutable std::mutex mu_;
  std::vector<std::weak_ptr<InProcReceiver>> receivers_;
  std::uint64_t sent_ = 0;
  TransportMetrics metrics_;
};

class InProcTransport : public Transport {
 public:
  TransportKind kind() const override { return TransportKind::kInProc; }
  std::shared_ptr<Sender> make_sender(std::string name) override;
  std::shared_ptr<Receiver> make_receiver(
      std::string name, std::size_t high_water_mark = 1 << 16,
      OverflowPolicy policy = OverflowPolicy::kBlock) override;
  void attach_metrics(obs::MetricsRegistry* registry) override;

 private:
  std::mutex mu_;
  std::vector<std::shared_ptr<InProcSender>> senders_;
  TransportMetrics metrics_;
  bool metrics_attached_ = false;
};

}  // namespace fsmon::transport
