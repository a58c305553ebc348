// ShardRouter: routes each collector batch frame to exactly one
// aggregator shard.
//
// Sits logically between the collectors and the shard inboxes, but runs
// *synchronously on the collector's thread* — deliberately not a pump
// stage with its own queue. The collector's recovery protocol depends on
// the send call observing the target inbox directly: a closed inbox
// (shard crash window) must surface as "refused" so the collector
// rewinds to its cleared index. A queue in between would absorb the
// frame, report success, and lose it with the router's memory.
//
// The router is transport-agnostic: it holds one pre-connected
// transport::Sender per shard and never learns whether the hop is the
// in-process queue, a shared-memory ring, or a TCP link. Frames travel as
// immutable FrameRefs, so routing is a refcount bump, never a copy.
//
// Routing key: the frame's event source (all events in a frame share
// one source — collectors flush at record boundaries and each collector
// serves one MDT), resolved through the shared ShardMap.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.hpp"
#include "src/obs/metrics.hpp"
#include "src/scalable/shard_map.hpp"
#include "src/transport/transport.hpp"

namespace fsmon::scalable {

/// Outcome of routing one frame, shaped like the raw sender call the
/// collector used to make: `accepted == 0 && subscribers > 0` is the
/// refusal signal that triggers a collector rewind.
struct RouteResult {
  std::size_t accepted = 0;
  std::size_t subscribers = 0;
  std::size_t shard = 0;
};

class ShardRouter {
 public:
  /// `senders[k]` is shard k's fan-in sender, already connected to that
  /// shard's input receiver by whoever assembled the tier.
  ShardRouter(const ShardMap& map,
              std::vector<std::shared_ptr<transport::Sender>> senders,
              common::Clock& clock, obs::MetricsRegistry* metrics = nullptr);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Route one encoded batch frame to its owning shard. Synchronous:
  /// returns only after the shard inbox accepted (or refused) the frame.
  /// The `router.before_route` fault point models the collector->shard
  /// link failing: drop/fail outcomes refuse the frame (the collector
  /// rewinds and replays contiguously — never a silent loss), delay
  /// stalls the publishing collector thread.
  RouteResult route(const std::string& topic, transport::FrameRef frame);

  const ShardMap& map() const { return map_; }
  std::uint64_t frames_routed() const { return frames_.load(); }
  std::uint64_t frames_refused() const { return refused_.load(); }

 private:
  const ShardMap& map_;
  common::Clock& clock_;
  std::vector<std::shared_ptr<transport::Sender>> senders_;
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::vector<obs::Counter*> frames_counters_;  ///< Per shard, label shard=<k>.
  std::vector<obs::Counter*> events_counters_;  ///< Per shard, label shard=<k>.
  obs::Counter* refused_counter_ = nullptr;
  obs::Counter* unroutable_counter_ = nullptr;
};

}  // namespace fsmon::scalable
