#include "src/transport/inproc.hpp"

#include <algorithm>
#include <stdexcept>

namespace fsmon::transport {

std::optional<Frame> InProcReceiver::recv(std::chrono::milliseconds timeout) {
  if (timeout.count() < 0) return inbox_.pop();
  return inbox_.pop_for(timeout);
}

void InProcReceiver::subscribe(std::string_view prefix) {
  std::lock_guard lock(filter_mu_);
  if (std::find(filters_.begin(), filters_.end(), prefix) == filters_.end())
    filters_.emplace_back(prefix);
}

bool InProcReceiver::accepts(std::string_view topic) const {
  std::lock_guard lock(filter_mu_);
  return std::any_of(filters_.begin(), filters_.end(),
                     [&](const std::string& prefix) { return topic.starts_with(prefix); });
}

SendResult InProcSender::send(std::string_view topic, FrameRef frame) {
  SendResult result;
  if (detail::send_faulted()) {
    result.receivers = std::max<std::size_t>(receiver_count(), 1);
    return result;
  }
  std::vector<std::shared_ptr<InProcReceiver>> targets;
  {
    std::lock_guard lock(mu_);
    std::erase_if(receivers_, [](const auto& weak) { return weak.expired(); });
    ++sent_;
    targets.reserve(receivers_.size());
    for (const auto& weak : receivers_) {
      if (auto receiver = weak.lock()) targets.push_back(std::move(receiver));
    }
  }
  result.receivers = targets.size();
  std::erase_if(targets, [&](const auto& receiver) { return !receiver->accepts(topic); });
  const std::size_t bytes = frame.size();
  // Deliver outside the lock: a kBlock receiver at its high-water mark
  // may wait for space. The last receiver takes the frame by move, so a
  // single-receiver hop never bumps the refcount.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const bool last = i + 1 == targets.size();
    Frame delivery{std::string(topic), last ? std::move(frame) : frame};
    if (targets[i]->inbox_.push(std::move(delivery))) ++result.accepted;
  }
  metrics_.on_send(result.accepted, result.accepted * bytes);
  return result;
}

void InProcSender::connect(const std::shared_ptr<Receiver>& receiver) {
  auto inproc = std::dynamic_pointer_cast<InProcReceiver>(receiver);
  if (inproc == nullptr) {
    throw std::invalid_argument(
        "InProcSender::connect: receiver is not an in-process receiver");
  }
  std::lock_guard lock(mu_);
  for (const auto& weak : receivers_) {
    if (weak.lock() == inproc) return;
  }
  receivers_.push_back(std::move(inproc));
}

void InProcSender::disconnect(const std::shared_ptr<Receiver>& receiver) {
  std::lock_guard lock(mu_);
  std::erase_if(receivers_, [&](const auto& weak) {
    auto live = weak.lock();
    return live == nullptr || live == receiver;
  });
}

std::size_t InProcSender::receiver_count() const {
  std::lock_guard lock(mu_);
  return static_cast<std::size_t>(std::count_if(
      receivers_.begin(), receivers_.end(), [](const auto& weak) { return !weak.expired(); }));
}

std::uint64_t InProcSender::sent() const {
  std::lock_guard lock(mu_);
  return sent_;
}

std::shared_ptr<Sender> InProcTransport::make_sender(std::string name) {
  auto sender = std::make_shared<InProcSender>(std::move(name));
  std::lock_guard lock(mu_);
  if (metrics_attached_) sender->set_metrics(metrics_);
  senders_.push_back(sender);
  return sender;
}

std::shared_ptr<Receiver> InProcTransport::make_receiver(std::string name,
                                                         std::size_t high_water_mark,
                                                         OverflowPolicy policy) {
  return std::make_shared<InProcReceiver>(std::move(name), high_water_mark, policy);
}

void InProcTransport::attach_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  std::lock_guard lock(mu_);
  metrics_ = TransportMetrics::create(*registry, TransportKind::kInProc);
  metrics_attached_ = true;
  for (auto& sender : senders_) sender->set_metrics(metrics_);
}

}  // namespace fsmon::transport
