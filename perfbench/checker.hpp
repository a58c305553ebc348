// Delivery checker for the pipeline benchmark.
//
// The generator records every metadata operation it performs in a
// Ledger, keyed by the changelog record it produced (MDT index + record
// index, exactly what LustreFs returns). Consumers append one Delivery
// per received event to their own log. check() then compares each log
// against what that consumer should have received:
//
//   lost        an expected event that never arrived;
//   duplicated  a second delivery of one (shard, id), or of one
//               changelog record half under another id;
//   misrouted   an event that reached a consumer whose directories do
//               not include it, an event no generator operation wrote,
//               or an event whose kind or path disagrees with the op.
//
// The expected set comes from the generator's own directory choice,
// never from FilterRule::matches, so a filter bug shows as misrouted or
// lost rather than being mirrored by the check.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/event.hpp"

namespace perfbench {

namespace core = fsmon::core;

/// The metadata operations the generator performs.
enum class Op : std::uint8_t { kCreate, kMkdir, kSetattr, kRename, kUnlink };

/// Events one op produces: a rename yields MOVED_FROM + MOVED_TO.
inline std::uint32_t events_of(Op op) { return op == Op::kRename ? 2 : 1; }

/// One generator operation. Files live at /d<dir>/f<name> (r<name> once
/// renamed, in the same directory); mkdir creates /d<dir>/m<name>.
struct Expected {
  Op op = Op::kCreate;
  std::uint32_t dir = 0;
  std::uint32_t name = 0;
};

/// What the generator wrote, indexed by (MDT, changelog record index).
class Ledger {
 public:
  explicit Ledger(std::uint32_t mdts) : by_mdt_(mdts), base_(mdts, 0) {}

  /// Record the op that produced changelog record `record` on `mdt`.
  /// Records of one MDT must arrive in index order without gaps (the
  /// generator is the only writer); returns false otherwise.
  bool add(std::uint32_t mdt, std::uint64_t record, Expected op);

  /// The op behind (mdt, record), or null when the generator wrote none.
  const Expected* find(std::uint32_t mdt, std::uint64_t record) const;

  std::uint32_t mdts() const { return static_cast<std::uint32_t>(by_mdt_.size()); }
  std::uint64_t base(std::uint32_t mdt) const { return base_[mdt]; }
  const std::vector<Expected>& ops(std::uint32_t mdt) const { return by_mdt_[mdt]; }
  /// Total events the ledger's ops produce.
  std::uint64_t events() const;

 private:
  std::vector<std::vector<Expected>> by_mdt_;
  std::vector<std::uint64_t> base_;  ///< Record index of slot 0 per MDT.
};

/// Directories a consumer subscribes to; empty = everything.
struct Route {
  std::vector<bool> dirs;
  bool wants(std::uint32_t dir) const {
    return dirs.empty() || (dir < dirs.size() && dirs[dir]);
  }
};

/// One received event, reduced to what the check needs. Filled from a
/// StdEvent by make_delivery() on the consumer's thread.
struct Delivery {
  std::uint64_t record = 0;  ///< Changelog record index (event cookie).
  std::uint64_t id = 0;      ///< Per-shard event id.
  std::int64_t at_ns = 0;    ///< Receipt time, steady clock.
  std::uint32_t mdt = 0;
  std::uint32_t shard = 0;
  std::uint32_t dir = 0;
  std::uint32_t name = 0;
  core::EventKind kind = core::EventKind::kCreate;
  char tag = '?';  ///< 'f', 'r' or 'm' from the path; '?' if unparsable.
  bool is_dir = false;
};

/// Parse "lustre:MDT<i>" and "/d<dir>/<tag><name>" out of `event`.
Delivery make_delivery(const core::StdEvent& event, std::uint32_t shard,
                       std::int64_t at_ns);

struct Tally {
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t misrouted = 0;

  std::uint64_t errors() const { return lost + duplicated + misrouted; }
  Tally& operator+=(const Tally& other);
};

/// Events `route` should receive from `ledger`.
std::uint64_t expected_for(const Ledger& ledger, const Route& route);

/// Compare one consumer's delivery log against the ledger.
Tally check(const Ledger& ledger, const Route& route, const std::vector<Delivery>& log);

}  // namespace perfbench
