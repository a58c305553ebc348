#include "src/transport/tcp.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "src/common/crc32.hpp"

namespace fsmon::transport {

using common::ErrorCode;
using common::Result;
using common::Status;

namespace {

/// Control topics start with this byte; data topics never do.
constexpr char kControlPrefix = '\x01';
const std::string kSubscribeTopic = "\x01sub";
const std::string kSyncTopic = "\x01sync";

std::atomic<std::uint64_t> next_receiver_id{1};

/// Larger length fields are treated as corruption, not as a frame to wait for.
constexpr std::uint32_t kMaxFieldBytes = 1u << 30;

void put_u32(std::byte* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(std::span<const std::byte> in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(in[static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}

std::span<const std::byte> as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::byte*>(text.data()), text.size()};
}

/// Everything of a wire frame but its payload: the length-prefixed topic
/// header and the CRC trailer (computed over header then payload).
struct Envelope {
  std::vector<std::byte> header;
  std::array<std::byte, 4> trailer{};
};

Envelope make_envelope(std::string_view topic, std::span<const std::byte> payload) {
  if (topic.size() > kMaxFieldBytes || payload.size() > kMaxFieldBytes)
    throw std::invalid_argument("tcp frame too large");
  Envelope envelope;
  envelope.header.resize(8 + topic.size());
  put_u32(envelope.header.data(), static_cast<std::uint32_t>(topic.size()));
  std::memcpy(envelope.header.data() + 4, topic.data(), topic.size());
  put_u32(envelope.header.data() + 4 + topic.size(),
          static_cast<std::uint32_t>(payload.size()));
  put_u32(envelope.trailer.data(),
          common::crc32(payload, common::crc32(std::span<const std::byte>(envelope.header))));
  return envelope;
}

Status errno_status(const std::string& what) {
  return Status(ErrorCode::kUnavailable, what + ": " + std::strerror(errno));
}

sockaddr_in make_address(const std::string& host, std::uint16_t port, Status& status) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    status = Status(ErrorCode::kInvalid, "bad host address: " + host);
  return addr;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<int> open_socket(const std::string& host, std::uint16_t port) {
  Status status = Status::ok();
  sockaddr_in addr = make_address(host, port, status);
  if (!status.is_ok()) return status;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_status("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    status = errno_status("connect");
    ::close(fd);
    return status;
  }
  set_nodelay(fd);
  return fd;
}

/// Scatter-gather write of the whole iovec array, advancing across
/// partial writes. sendmsg rather than writev so MSG_NOSIGNAL suppresses
/// SIGPIPE on a vanished peer.
bool write_gather(int fd, iovec* iov, std::size_t iovcnt) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    auto advanced = static_cast<std::size_t>(n);
    while (iovcnt > 0 && advanced >= iov->iov_len) {
      advanced -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + advanced;
      iov->iov_len -= advanced;
    }
  }
  return true;
}

}  // namespace

std::vector<std::byte> encode_frame(std::string_view topic,
                                    std::span<const std::byte> payload) {
  const Envelope envelope = make_envelope(topic, payload);
  std::vector<std::byte> out(envelope.header);
  out.insert(out.end(), payload.begin(), payload.end());
  out.insert(out.end(), envelope.trailer.begin(), envelope.trailer.end());
  return out;
}

std::optional<std::pair<Frame, std::size_t>> decode_frame(std::span<const std::byte> buffer) {
  if (buffer.size() < 12) return std::nullopt;
  const std::uint32_t topic_len = get_u32(buffer);
  if (topic_len > kMaxFieldBytes) throw std::runtime_error("tcp frame: topic length corrupt");
  if (buffer.size() < 12ull + topic_len) return std::nullopt;
  const std::uint32_t payload_len = get_u32(buffer.subspan(4 + topic_len));
  if (payload_len > kMaxFieldBytes)
    throw std::runtime_error("tcp frame: payload length corrupt");
  const std::size_t total = 12ull + topic_len + payload_len;
  if (buffer.size() < total) return std::nullopt;
  if (get_u32(buffer.subspan(total - 4)) != common::crc32(buffer.subspan(0, total - 4)))
    throw std::runtime_error("tcp frame: CRC mismatch");

  const auto* bytes = reinterpret_cast<const char*>(buffer.data());
  Frame frame;
  frame.topic.assign(bytes + 4, topic_len);
  frame.payload = FrameRef::adopt(std::string(bytes + 8 + topic_len, payload_len));
  return std::make_pair(std::move(frame), total);
}

// ---------------------------------------------------------------------------
// TcpConnection: framed, blocking message I/O over one socket.

class TcpConnection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection() {
    close();
    ::close(fd_);
  }

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Thread-safe; whole frames never interleave.
  bool send(std::string_view topic, std::span<const std::byte> payload) {
    return send(make_envelope(topic, payload), payload);
  }
  /// Send a frame whose envelope was built once for several connections.
  bool send(const Envelope& envelope, std::span<const std::byte> payload) {
    if (closed_.load()) return false;
    iovec iov[3];
    iov[0] = {const_cast<std::byte*>(envelope.header.data()), envelope.header.size()};
    iov[1] = {const_cast<std::byte*>(payload.data()), payload.size()};
    iov[2] = {const_cast<std::byte*>(envelope.trailer.data()), envelope.trailer.size()};
    std::lock_guard lock(send_mu_);
    if (write_gather(fd_, iov, 3)) return true;
    close();
    return false;
  }

  /// Blocking receive of one frame; nullopt once the peer closes, the
  /// socket is shut down, or the stream is corrupt. One reader at a time.
  std::optional<Frame> recv() {
    for (;;) {
      try {
        const std::span<const std::byte> unread(buffer_.data() + consumed_,
                                                buffer_.size() - consumed_);
        if (auto decoded = decode_frame(unread)) {
          consumed_ += decoded->second;
          return std::move(decoded->first);
        }
      } catch (const std::runtime_error&) {
        close();
        return std::nullopt;
      }
      // Compact before reading more: drop the decoded prefix.
      buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
      consumed_ = 0;
      std::byte chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        close();
        return std::nullopt;
      }
      buffer_.insert(buffer_.end(), chunk, chunk + n);
    }
  }

  /// Shut the socket down, waking any thread blocked in send()/recv().
  /// The descriptor itself is released by the destructor, once no thread
  /// can still be using it — closing it here could hand a concurrent
  /// ::recv a recycled fd.
  void close() {
    if (!closed_.exchange(true)) ::shutdown(fd_, SHUT_RDWR);
  }
  bool closed() const { return closed_.load(); }

 private:
  const int fd_;
  std::atomic<bool> closed_{false};
  std::mutex send_mu_;
  std::vector<std::byte> buffer_;
  std::size_t consumed_ = 0;
};

// ---------------------------------------------------------------------------
// TcpReceiver

TcpReceiver::TcpReceiver(std::string name, std::size_t high_water_mark,
                         OverflowPolicy policy)
    : name_(std::move(name)),
      id_(next_receiver_id.fetch_add(1)),
      inbox_(high_water_mark, policy) {}

TcpReceiver::~TcpReceiver() { TcpReceiver::close(); }

std::optional<Frame> TcpReceiver::recv(std::chrono::milliseconds timeout) {
  if (timeout.count() < 0) return inbox_.pop();
  return inbox_.pop_for(timeout);
}

void TcpReceiver::subscribe(std::string_view prefix) {
  std::lock_guard lock(mu_);
  filters_.emplace_back(prefix);
  for (auto& link : links_) {
    if (link.connection != nullptr) link.connection->send(kSubscribeTopic, as_bytes(prefix));
  }
}

Status TcpReceiver::open_link(Link& link) {
  auto fd = open_socket(link.host, link.port);
  if (!fd) return fd.status();
  auto connection = std::make_shared<TcpConnection>(fd.value());
  for (const auto& prefix : filters_) connection->send(kSubscribeTopic, as_bytes(prefix));
  connection->send(kSyncTopic, as_bytes(std::to_string(id_)));
  // The sender echoes the sync after registering every filter sent
  // before it; data frames that already match arrive first and are kept.
  for (;;) {
    auto frame = connection->recv();
    if (!frame) return Status(ErrorCode::kUnavailable, "tcp: sender closed during handshake");
    if (frame->topic == kSyncTopic) break;
    if (frame->topic.empty() || frame->topic[0] != kControlPrefix)
      inbox_.push(std::move(*frame));
  }
  link.connection = connection;
  link.reader = std::jthread([this, connection] { read_loop(connection); });
  return Status::ok();
}

void TcpReceiver::shut_link(Link& link) {
  if (link.connection == nullptr) return;
  link.connection->close();
  if (link.reader.joinable()) link.reader.join();
  link.connection.reset();
}

void TcpReceiver::read_loop(const std::shared_ptr<TcpConnection>& connection) {
  while (auto frame = connection->recv()) {
    if (!frame->topic.empty() && frame->topic[0] == kControlPrefix) continue;
    // Blocks at the high-water mark under kBlock (back-pressure into the
    // socket); fails once close() has shut the inbox.
    inbox_.push(std::move(*frame));
  }
}

Status TcpReceiver::dial(const std::string& host, std::uint16_t port) {
  std::lock_guard lock(mu_);
  Link link{host, port, nullptr, {}};
  if (auto status = open_link(link); !status.is_ok()) return status;
  links_.push_back(std::move(link));
  return Status::ok();
}

void TcpReceiver::undial(std::uint16_t port) {
  std::lock_guard lock(mu_);
  std::erase_if(links_, [&](Link& link) {
    if (link.port != port) return false;
    shut_link(link);
    return true;
  });
}

void TcpReceiver::close() {
  // Close the inbox first: it wakes a reader blocked at the high-water
  // mark, so shutting the sockets below can join every reader.
  inbox_.close();
  std::lock_guard lock(mu_);
  for (auto& link : links_) shut_link(link);
}

void TcpReceiver::reopen() {
  std::lock_guard lock(mu_);
  inbox_.reopen();
  for (auto& link : links_) {
    // A sender torn down mid-restart refuses the dial; that link stays dark.
    if (link.connection == nullptr) (void)open_link(link);
  }
}

// ---------------------------------------------------------------------------
// TcpSender

struct TcpSender::Peer {
  std::shared_ptr<TcpConnection> connection;
  std::vector<std::string> filters;  ///< Guarded by the sender's mu_.
  std::uint64_t receiver = 0;        ///< From the sync; guarded by the sender's mu_.
  std::jthread reader;               ///< Declared last: joined first.

  /// Wakes the reader so the member destructors can join it.
  ~Peer() { connection->close(); }
};

TcpSender::TcpSender(std::string name, const std::string& host)
    : name_(std::move(name)), host_(host) {
  Status status = Status::ok();
  sockaddr_in addr = make_address(host_, 0, status);
  if (status.is_ok()) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) status = errno_status("socket");
  }
  if (status.is_ok()) {
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      status = errno_status("listen");
    }
  }
  if (!status.is_ok()) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    throw std::runtime_error("TcpSender: " + status.message());
  }
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::jthread([this](std::stop_token stop) { accept_loop(stop); });
}

TcpSender::~TcpSender() {
  // Wake the accept thread with shutdown, join it, and only then close
  // the descriptor — closing while accept4 still blocks on it races.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.request_stop();
  accept_thread_.join();
  ::close(listen_fd_);
  // Destroyed outside the lock: each Peer joins a reader that may be
  // waiting on mu_.
  std::vector<std::unique_ptr<Peer>> peers;
  {
    std::lock_guard lock(mu_);
    peers.swap(peers_);
  }
}

void TcpSender::accept_loop(std::stop_token stop) {
  while (!stop.stop_requested()) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener shut down
    }
    set_nodelay(fd);
    auto peer = std::make_unique<Peer>();
    peer->connection = std::make_shared<TcpConnection>(fd);
    std::vector<std::unique_ptr<Peer>> dead;
    {
      std::lock_guard lock(mu_);
      // Reap connections whose receiver went away; they are joined below,
      // outside the lock their readers may be waiting on.
      for (auto& existing : peers_) {
        if (existing->connection->closed()) dead.push_back(std::move(existing));
      }
      std::erase(peers_, nullptr);
      Peer& ref = *peer;
      peer->reader = std::jthread([this, &ref] { control_loop(ref); });
      peers_.push_back(std::move(peer));
    }
  }
}

void TcpSender::control_loop(Peer& peer) {
  while (auto frame = peer.connection->recv()) {
    if (frame->topic == kSubscribeTopic) {
      std::lock_guard lock(mu_);
      peer.filters.emplace_back(frame->payload.chars());
    } else if (frame->topic == kSyncTopic) {
      const auto id = frame->payload.chars();
      {
        std::lock_guard lock(mu_);
        std::from_chars(id.data(), id.data() + id.size(), peer.receiver);
      }
      peer.connection->send(kSyncTopic, {});
    }
  }
}

void TcpSender::connect(const std::shared_ptr<Receiver>& receiver) {
  auto tcp = std::dynamic_pointer_cast<TcpReceiver>(receiver);
  if (tcp == nullptr) {
    throw std::invalid_argument("TcpSender::connect: receiver is not a TCP receiver");
  }
  if (const auto status = tcp->dial(host_, port_); !status.is_ok()) {
    throw std::runtime_error("TcpSender::connect: " + status.message());
  }
  std::lock_guard lock(mu_);
  if (std::none_of(receivers_.begin(), receivers_.end(),
                   [&](const Audience& a) { return a.id == tcp->id_; })) {
    receivers_.push_back(Audience{tcp, tcp->id_});
  }
}

void TcpSender::disconnect(const std::shared_ptr<Receiver>& receiver) {
  auto tcp = std::dynamic_pointer_cast<TcpReceiver>(receiver);
  if (tcp == nullptr) return;
  tcp->undial(port_);
  std::lock_guard lock(mu_);
  std::erase_if(receivers_, [&](const Audience& a) {
    return a.receiver.expired() || a.id == tcp->id_;
  });
}

std::size_t TcpSender::receiver_count() const {
  std::lock_guard lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(receivers_.begin(), receivers_.end(),
                    [](const Audience& a) { return !a.receiver.expired(); }));
}

SendResult TcpSender::send(std::string_view topic, FrameRef frame) {
  SendResult result;
  if (detail::send_faulted()) {
    result.receivers = std::max<std::size_t>(receiver_count(), 1);
    return result;
  }
  std::vector<std::shared_ptr<TcpConnection>> targets;
  {
    std::lock_guard lock(mu_);
    std::erase_if(receivers_, [](const Audience& a) { return a.receiver.expired(); });
    // A receiver whose socket is gone (closed, crashed) still counts:
    // over TCP a crashed stage and one that never listened look the same
    // on the wire, but the refusal protocol above depends on telling
    // them apart — see the file comment.
    result.receivers = receivers_.size();
    for (const auto& peer : peers_) {
      // Only a live, connected receiver's socket counts: a destroyed
      // receiver's connection may not have read as closed here yet.
      if (peer->connection->closed() ||
          std::none_of(receivers_.begin(), receivers_.end(),
                       [&](const Audience& a) { return a.id == peer->receiver; }))
        continue;
      if (std::any_of(peer->filters.begin(), peer->filters.end(),
                      [&](const std::string& prefix) { return topic.starts_with(prefix); }))
        targets.push_back(peer->connection);
    }
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (!targets.empty()) {
    const Envelope envelope = make_envelope(topic, frame.bytes());
    for (const auto& connection : targets) {
      if (connection->send(envelope, frame.bytes())) ++result.accepted;
    }
  }
  metrics_.on_send(result.accepted, result.accepted * frame.size());
  return result;
}

// ---------------------------------------------------------------------------
// TcpTransport

TcpTransport::TcpTransport(TcpTransportOptions options) : options_(std::move(options)) {}

std::shared_ptr<Sender> TcpTransport::make_sender(std::string name) {
  auto sender = std::make_shared<TcpSender>(std::move(name), options_.host);
  std::lock_guard lock(mu_);
  if (metrics_attached_) sender->set_metrics(metrics_);
  senders_.push_back(sender);
  return sender;
}

std::shared_ptr<Receiver> TcpTransport::make_receiver(std::string name,
                                                      std::size_t high_water_mark,
                                                      OverflowPolicy policy) {
  return std::make_shared<TcpReceiver>(std::move(name), high_water_mark, policy);
}

void TcpTransport::attach_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  std::lock_guard lock(mu_);
  metrics_ = TransportMetrics::create(*registry, TransportKind::kTcp);
  metrics_attached_ = true;
  for (auto& sender : senders_) sender->set_metrics(metrics_);
}

}  // namespace fsmon::transport
