// Variable-length SPSC byte ring: the storage under ShmTransport.
//
// common/spsc_ring.hpp moves fixed-size slots; a frame hop moves a
// variable-length encoded batch, and the whole point of the shm path is
// that the frame bytes are written exactly once — into the ring — and
// read in place by the consumer. So this ring stores records, not slots:
//
//   [u32 total_len][u32 state][u32 topic_len][u32 payload_len]
//   [topic bytes][payload bytes][pad to 8]
//
// Records never straddle the wrap: when a record does not fit in the
// space before the end of the buffer, an 8-byte padding record
// ([u32 total_len][u32 state=kPadding]) fills the remainder so every
// payload is a single contiguous span the consumer can hand out as a
// borrowing FrameRef.
//
// Cursors (monotonic byte offsets, masked on access):
//   tail_ <= read_ <= head_
//   - head_: producer publish cursor (store-release after the record is
//     written; the consumer's load-acquire makes the bytes visible).
//   - read_: consumer cursor; a popped record's payload stays live in
//     the ring until its FrameRef drops.
//   - tail_: producer reclaim cursor; advances over kReleased records.
//
// Release is out of order by design — a shard's custody group may hold
// frame N while frame N+1's consumers already finished — so each record
// carries a state word flipped to kReleased by the FrameRef's release
// hook (any thread, std::atomic_ref), and the producer reclaims in tail
// order as far as the first still-live record.
//
// SPSC contract: one thread calls try_push (the sender serializes its
// callers), one thread calls try_pop; release hooks may run anywhere.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/transport/frame.hpp"

namespace fsmon::transport {

class ShmRing : public std::enable_shared_from_this<ShmRing> {
 public:
  enum class PushResult : std::uint8_t {
    kOk,
    kFull,      ///< not enough reclaimable space right now
    kTooLarge,  ///< record can never fit; route around the ring
  };

  /// One popped record: topic plus a FrameRef borrowing the ring bytes.
  struct Popped {
    std::string topic;
    FrameRef payload;
  };

  /// `min_capacity` bytes, rounded up to a power of two (>= 1024).
  explicit ShmRing(std::size_t min_capacity);

  /// Producer side. Writes topic + payload into the ring (the single
  /// write of the zero-copy path) and publishes the record.
  PushResult try_push(std::string_view topic, std::span<const std::byte> payload);

  /// Consumer side. The returned payload borrows ring memory; the record
  /// is reclaimed only after the FrameRef (and all its retainers) drop.
  std::optional<Popped> try_pop();

  /// Block the producer until a release may have freed space (or timeout).
  void wait_for_space(std::chrono::milliseconds timeout);

  std::size_t capacity() const { return capacity_; }
  /// Committed-but-unpopped records (approximate across threads).
  std::size_t pending() const { return pending_.load(std::memory_order_acquire); }
  /// Bytes between reclaim and publish cursors (approximate).
  std::size_t bytes_used() const {
    return head_.load(std::memory_order_acquire) - tail_.load(std::memory_order_acquire);
  }

  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

 private:
  static constexpr std::uint32_t kStateCommitted = 1;
  static constexpr std::uint32_t kStateReleased = 2;
  static constexpr std::uint32_t kStatePadding = 3;
  static constexpr std::size_t kHeaderBytes = 16;
  static constexpr std::size_t kPaddingHeaderBytes = 8;

  std::byte* data() { return reinterpret_cast<std::byte*>(buffer_.data()); }
  const std::byte* data() const { return reinterpret_cast<const std::byte*>(buffer_.data()); }

  std::uint32_t load_u32(std::size_t offset) const;
  void store_u32(std::size_t offset, std::uint32_t value);
  std::uint32_t load_state(std::size_t offset, std::memory_order order) const;
  void store_state(std::size_t offset, std::uint32_t value, std::memory_order order);

  /// Advance `tail` over one released/consumed-padding record.
  bool reclaim_one(std::uint64_t& tail);

  /// FrameRef release hook target: mark the record free, wake the producer.
  void release_record(std::size_t offset);

  const std::size_t capacity_;
  const std::size_t mask_;
  /// u64 storage guarantees 8-byte alignment for the record headers.
  std::vector<std::uint64_t> buffer_;

  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> read_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::size_t> pending_{0};

  std::mutex space_mu_;
  std::condition_variable space_cv_;
};

}  // namespace fsmon::transport
