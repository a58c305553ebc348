// Exactly-once delivery window, keyed by per-source changelog sequence.
//
// The Lustre processor stamps each event's cookie with its changelog
// record index, so (source, cookie) identifies a record across replays
// and aggregator restarts — event ids do NOT survive an aggregator
// crash (unacked records are re-published and renumbered), which is why
// consumers dedup on the changelog sequence instead. `watermark` covers
// a densely delivered prefix; `beyond` holds delivered sequences above
// it, because replayed and live frames interleave out of order during
// catch-up. Not thread-safe; callers serialize access.
#pragma once

#include <cstdint>
#include <set>

namespace fsmon::scalable {

struct SourceDedupWindow {
  std::uint64_t watermark = 0;
  bool initialized = false;
  std::set<std::uint64_t> beyond;

  bool fresh(std::uint64_t seq) const {
    if (!initialized) return true;
    return seq > watermark && beyond.count(seq) == 0;
  }

  void mark(std::uint64_t seq) {
    if (!initialized) {
      // First record from this source: everything before it is outside
      // this consumer's lifetime.
      initialized = true;
      watermark = seq;
      return;
    }
    if (seq <= watermark) return;
    if (seq == watermark + 1) {
      watermark = seq;
      absorb();
    } else {
      beyond.insert(seq);
    }
  }

  /// Close the window below `seq`: every lower sequence counts as
  /// delivered. Only for a stream known to arrive in sequence order,
  /// where a gap can only be records this consumer was never sent.
  void settle_below(std::uint64_t seq) {
    if (seq == 0 || (initialized && seq - 1 <= watermark)) return;
    initialized = true;
    watermark = seq - 1;
    beyond.erase(beyond.begin(), beyond.upper_bound(watermark));
    absorb();
  }

 private:
  /// Fold the entries that now extend the dense prefix into it.
  void absorb() {
    auto it = beyond.begin();
    while (it != beyond.end() && *it == watermark + 1) {
      watermark = *it;
      it = beyond.erase(it);
    }
  }
};

}  // namespace fsmon::scalable
