// Bounded multi-producer multi-consumer queue with close semantics.
//
// This is the processing-queue primitive used by the resolution layer and
// by the scalable monitor's collector → aggregator → consumer pipeline. It
// supports two overflow policies mirroring message-queue high-water-mark
// behaviour: Block (producers wait) and DropNewest (offer fails), plus a
// cooperative close() that wakes all waiters — the idiom every pipeline
// stage uses for clean shutdown.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fsmon::common {

enum class OverflowPolicy {
  kBlock,       ///< push() blocks until space is available.
  kDropNewest,  ///< push() returns false when full (the new item is dropped).
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity, OverflowPolicy policy = OverflowPolicy::kBlock)
      : capacity_(capacity), policy_(policy) {
    if (capacity_ == 0) throw std::invalid_argument("BoundedQueue capacity must be > 0");
  }

  /// Enqueue one item. Returns false only when the queue is closed, or when
  /// the policy is DropNewest and the queue is full (item dropped).
  bool push(T item) {
    std::unique_lock lock(mu_);
    if (policy_ == OverflowPolicy::kBlock) {
      not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
    } else {
      if (closed_) return false;
      if (items_.size() >= capacity_) {
        ++dropped_;
        return false;
      }
    }
    items_.push_back(std::move(item));
    ++pushed_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Dequeue one item, blocking until an item is available or the queue is
  /// closed and drained (returns nullopt in that case).
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    ++popped_;
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Dequeue one item, waiting at most `timeout`. Returns nullopt on
  /// timeout or when the queue is closed and drained (a receiver's timed
  /// recv).
  template <typename Rep, typename Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mu_);
    not_empty_.wait_for(lock, timeout, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    ++popped_;
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking dequeue.
  std::optional<T> try_pop() {
    std::unique_lock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    ++popped_;
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Drain up to `max_items` currently queued items in one lock
  /// acquisition — the batching primitive used by the resolution layer.
  std::vector<T> pop_batch(std::size_t max_items) {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    std::vector<T> batch;
    const std::size_t n = std::min(max_items, items_.size());
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    popped_ += n;
    lock.unlock();
    not_full_.notify_all();
    return batch;
  }

  /// Close the queue: subsequent pushes fail, poppers drain what remains
  /// then observe end-of-stream. Idempotent.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Reopen a closed queue, discarding anything still buffered — the
  /// crash()/restart() harness primitive. A restarted stage must not see
  /// items its pre-crash incarnation never drained (a real restart loses
  /// its process memory), so the backlog is dropped, not replayed here;
  /// recovery paths (changelog rewind, replay_historic) repopulate it.
  void reopen() {
    std::lock_guard lock(mu_);
    items_.clear();
    closed_ = false;
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  std::uint64_t dropped() const {
    std::lock_guard lock(mu_);
    return dropped_;
  }
  std::uint64_t pushed() const {
    std::lock_guard lock(mu_);
    return pushed_;
  }
  std::uint64_t popped() const {
    std::lock_guard lock(mu_);
    return popped_;
  }

 private:
  const std::size_t capacity_;
  const OverflowPolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  std::uint64_t dropped_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
};

}  // namespace fsmon::common
