// Subscription filtering rules.
//
// The interface layer filters events per subscriber. Recursive
// monitoring is implemented here — "FSMonitor will monitor events
// recursively by just modifying the filtering rule in the Interface
// layer" (Section V-C1) instead of placing per-directory watchers the
// way inotify must.
//
// Two representations exist:
//
//   FilterRule      — the user-facing rule, kept verbatim from the
//                     subscription call. matches() normalizes paths on
//                     every evaluation: correct, but it allocates per
//                     (rule, event) pair. It is the reference the
//                     compiled form is property-tested against.
//   CompiledRule /  — the hot-path form, built once at subscription
//   CompiledRuleSet   time: root pre-normalized and split into path
//                     components, the kind set flattened into an 8-bit
//                     mask, and the set's rules indexed by root. An
//                     event is matched by walking its path's ancestors
//                     (O(depth) hash probes, no allocation), so it can
//                     run on fields read straight out of a frame. The
//                     component lists are also what the scalable tier's
//                     SubscriptionIndex ingests (one trie insertion per
//                     rule).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/event.hpp"
#include "src/obs/metrics.hpp"

namespace fsmon::core {

struct FilterRule {
  /// Subtree of interest, relative to the watch root ("/" = everything).
  std::string root = "/";
  /// When false, only events on direct children of `root` match —
  /// inotify's single-directory semantics. When true (the FSMonitor
  /// default extension), the whole subtree matches.
  bool recursive = true;
  /// Optional glob over the event's base name ("*.h5"); empty = any.
  std::string name_pattern;
  /// Optional restriction on event kinds; nullopt = all kinds.
  std::optional<std::set<EventKind>> kinds;

  bool matches(const StdEvent& event) const;
};

/// Bitmask over the 8 EventKind values: bit (1 << kind) is set when the
/// kind is accepted. kAllKinds accepts everything.
using KindMask = std::uint8_t;
inline constexpr KindMask kAllKinds = 0xFF;

/// Flatten an optional kind set into a mask (nullopt = kAllKinds).
KindMask kind_mask(const std::optional<std::set<EventKind>>& kinds);
inline bool mask_accepts(KindMask mask, EventKind kind) {
  return (mask & static_cast<KindMask>(1u << static_cast<std::uint8_t>(kind))) != 0;
}

/// Split a normalized path into its components ("/" -> {}).
std::vector<std::string> path_components(std::string_view normalized_path);

/// A FilterRule compiled once at subscription time. CompiledRuleSet
/// matches with it; the semantics are those of FilterRule::matches
/// (property-tested), only the per-event cost changes.
struct CompiledRule {
  std::string root;                     ///< Normalized ("/a/b", or "/").
  std::vector<std::string> components;  ///< Split root; empty for "/".
  bool recursive = true;
  std::string name_pattern;             ///< Empty = any name.
  KindMask kinds = kAllKinds;

  static CompiledRule compile(const FilterRule& rule);
};

/// Instrument handles for one filtering site (filter.*). Created by the
/// owning subscriber (e.g. a Consumer) with a distinguishing label.
struct FilterMetrics {
  obs::Counter* evaluations = nullptr;
  obs::Counter* matches = nullptr;
  obs::Counter* drops = nullptr;

  static FilterMetrics create(obs::MetricsRegistry& registry, const obs::Labels& labels);

  bool wired() const { return evaluations != nullptr; }
  /// Batched accounting: one atomic add per counter per batch instead of
  /// one per event (the old per-event hot-path cost).
  void count(std::uint64_t matched, std::uint64_t dropped) const {
    if (evaluations == nullptr) return;
    evaluations->inc(matched + dropped);
    if (matched > 0) matches->inc(matched);
    if (dropped > 0) drops->inc(dropped);
  }
};

/// A subscriber's whole rule set in compiled form. The empty rule set
/// matches everything — the consumer default.
class CompiledRuleSet {
 public:
  CompiledRuleSet() = default;
  explicit CompiledRuleSet(std::span<const FilterRule> rules);

  bool empty() const { return rules_.empty(); }
  std::span<const CompiledRule> rules() const { return rules_; }

  /// Equivalent to matches_any(rules, event) for an event on `path`.
  /// Probes the root index with `path`'s ancestors — "/", each prefix,
  /// then the path itself — so the cost is O(path depth), not O(rules).
  /// Allocates only when `path` is not already normalized (collector
  /// paths are). Never touches counters.
  bool matches(std::string_view path, EventKind kind) const;
  bool matches(const StdEvent& event) const { return matches(event.path, event.kind); }

 private:
  /// FNV-1a: roots and their probes are short, so an inline byte loop
  /// beats the general-purpose string hash.
  struct RootHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      std::uint64_t h = 1469598103934665603ull;
      for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };

  bool matches_normalized(std::string_view path, EventKind kind) const;
  /// Any of the rules `indices`, which share one root, accepting an
  /// event named `base` of `kind`; `direct_child` says that root is the
  /// event path's parent.
  bool any_accepts(std::span<const std::uint32_t> indices, bool direct_child,
                   std::string_view base, EventKind kind) const;

  std::vector<CompiledRule> rules_;
  std::vector<std::uint32_t> slash_rules_;  ///< Indices of the rules rooted at "/".
  /// Indices of the other rules by normalized root, found by string_view.
  std::unordered_map<std::string, std::vector<std::uint32_t>, RootHash, std::equal_to<>>
      by_root_;
  std::size_t max_root_depth_ = 0;  ///< Components in the deepest root.
};

/// True when any rule matches (or the rule set is empty — match-all, the
/// consumer default). Counts the outcome against `metrics` when given.
/// Legacy per-event path; hot paths use CompiledRuleSet instead.
bool matches_any(std::span<const FilterRule> rules, const StdEvent& event,
                 const FilterMetrics* metrics = nullptr);

}  // namespace fsmon::core
