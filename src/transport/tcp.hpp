// TcpTransport: the socket carrier, standing in for the paper's ZeroMQ
// tcp:// endpoints between collectors, aggregator and consumers.
//
// Wire format, one frame per message, CRC-32 over everything before the
// trailer (little-endian u32s):
//
//   u32 topic_len | topic | u32 payload_len | payload | u32 crc
//
// Each TcpSender listens on an ephemeral port and runs one control
// reader per accepted connection. A receiver dials the sender, sends a
// "\x01sub" control frame per topic prefix, then a "\x01sync" carrying
// its receiver id, which the sender's reader echoes once the filters
// before it are registered — so connect() (and reopen()'s re-dial)
// returns only when a following send() is guaranteed to see the
// filters. Filtering is sender-side: a frame crosses the wire only to
// connections of a connected receiver with a matching prefix.
//
// send() is a scatter-gather sendmsg of header, payload and trailer
// straight from the FrameRef, with no assembly buffer; the receive side
// materializes the bytes off the socket, which is a wire transfer, not
// a counted frame copy. Every connection of one receiver has its own
// reader thread, and all of them push into the receiver's one bounded
// inbox, so a blocking recv() waits on a single condition variable
// however many senders feed it.
//
// A sender counts a connected receiver as an audience until the
// receiver object is destroyed: a closed (crashed) receiver's socket is
// gone, but sends to it are refusals, never "nobody listening". That
// keeps a collector from advancing past frames a restarting shard never
// received.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/bounded_queue.hpp"
#include "src/common/status.hpp"
#include "src/transport/transport.hpp"

namespace fsmon::transport {

/// Encode one wire frame (see file comment).
std::vector<std::byte> encode_frame(std::string_view topic,
                                    std::span<const std::byte> payload);

/// Decode one frame from the front of `buffer`: the frame and the bytes
/// it consumed, or nullopt when the buffer does not yet hold a complete
/// frame. Throws std::runtime_error on a CRC mismatch or a corrupt
/// length field.
std::optional<std::pair<Frame, std::size_t>> decode_frame(std::span<const std::byte> buffer);

struct TcpTransportOptions {
  /// IPv4 address senders listen on and receivers dial.
  std::string host = "127.0.0.1";
};

class TcpConnection;

class TcpReceiver : public Receiver {
 public:
  TcpReceiver(std::string name, std::size_t high_water_mark, OverflowPolicy policy);
  ~TcpReceiver() override;

  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  std::optional<Frame> try_recv() override { return inbox_.try_pop(); }
  void subscribe(std::string_view prefix) override;
  /// Tear every connection down but remember the endpoints; reopen()
  /// re-dials them and re-registers the filters (restart semantics:
  /// frames sent while closed are gone, recovery is replay's job).
  void close() override;
  void reopen() override;
  bool closed() const override { return inbox_.closed(); }
  std::size_t pending() const override { return inbox_.size(); }
  std::uint64_t dropped() const override { return inbox_.dropped(); }
  const std::string& name() const override { return name_; }

  /// Dial the sender listening at `host`:`port` and register every
  /// filter subscribed so far; returns once the sender has them. This is
  /// how TcpSender::connect() attaches a receiver, and frames flow only
  /// once that connect() has admitted it. kUnavailable when nothing
  /// listens there, kInvalid for a bad host.
  common::Status dial(const std::string& host, std::uint16_t port);

 private:
  friend class TcpSender;

  struct Link {
    std::string host;
    std::uint16_t port = 0;
    std::shared_ptr<TcpConnection> connection;  ///< null while closed
    std::jthread reader;
  };

  /// Dial, register filters, wait for the sync echo, start the reader
  /// (mu_ held).
  common::Status open_link(Link& link);
  static void shut_link(Link& link);
  void read_loop(const std::shared_ptr<TcpConnection>& connection);
  /// Drop the connection to the sender listening on `port`.
  void undial(std::uint16_t port);

  const std::string name_;
  /// Process-unique; sent with the sync so a sender can tell whose
  /// connection each of its peers is.
  const std::uint64_t id_;
  std::mutex mu_;  ///< Guards links_ and filters_.
  std::vector<Link> links_;
  std::vector<std::string> filters_;
  common::BoundedQueue<Frame> inbox_;
};

class TcpSender : public Sender {
 public:
  TcpSender(std::string name, const std::string& host);
  ~TcpSender() override;

  SendResult send(std::string_view topic, FrameRef frame) override;
  void connect(const std::shared_ptr<Receiver>& receiver) override;
  void disconnect(const std::shared_ptr<Receiver>& receiver) override;
  /// Connected receivers still alive, connection up or not.
  std::size_t receiver_count() const override;
  std::uint64_t sent() const override { return sent_.load(); }
  const std::string& name() const override { return name_; }

  std::uint16_t port() const { return port_; }

  void set_metrics(TransportMetrics metrics) { metrics_ = metrics; }

 private:
  struct Peer;
  struct Audience {
    std::weak_ptr<TcpReceiver> receiver;
    std::uint64_t id = 0;
  };

  void accept_loop(std::stop_token stop);
  void control_loop(Peer& peer);

  const std::string name_;
  const std::string host_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  mutable std::mutex mu_;  ///< Guards peers_ (and their filters) and receivers_.
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<Audience> receivers_;
  std::atomic<std::uint64_t> sent_{0};
  TransportMetrics metrics_;
  std::jthread accept_thread_;
};

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options = {});

  TransportKind kind() const override { return TransportKind::kTcp; }
  std::shared_ptr<Sender> make_sender(std::string name) override;
  std::shared_ptr<Receiver> make_receiver(
      std::string name, std::size_t high_water_mark = 1 << 16,
      OverflowPolicy policy = OverflowPolicy::kBlock) override;
  void attach_metrics(obs::MetricsRegistry* registry) override;

 private:
  const TcpTransportOptions options_;
  std::mutex mu_;
  std::vector<std::shared_ptr<TcpSender>> senders_;
  TransportMetrics metrics_;
  bool metrics_attached_ = false;
};

}  // namespace fsmon::transport
