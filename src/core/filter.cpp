#include "src/core/filter.hpp"

#include <algorithm>

#include "src/common/string_util.hpp"

namespace fsmon::core {

bool FilterRule::matches(const StdEvent& event) const {
  const std::string path = common::normalize_path(event.path);
  const std::string rule_root = common::normalize_path(root);
  if (!common::is_under(path, rule_root)) return false;
  if (!recursive) {
    // Direct children only: the parent of the event path must be exactly
    // the rule root.
    if (common::parent_path(path) != rule_root) return false;
  }
  if (!name_pattern.empty() &&
      !common::glob_match(name_pattern, common::base_name(path)))
    return false;
  if (kinds && kinds->count(event.kind) == 0) return false;
  return true;
}

FilterMetrics FilterMetrics::create(obs::MetricsRegistry& registry,
                                    const obs::Labels& labels) {
  FilterMetrics m;
  m.evaluations = &registry.counter("filter.evaluations", labels,
                                    "Events run through a subscriber's rule set",
                                    "events");
  m.matches = &registry.counter("filter.matches", labels,
                                "Events accepted by at least one rule", "events");
  m.drops = &registry.counter("filter.drops", labels,
                              "Events rejected by every rule in the set", "events");
  return m;
}

KindMask kind_mask(const std::optional<std::set<EventKind>>& kinds) {
  if (!kinds) return kAllKinds;
  KindMask mask = 0;
  for (EventKind kind : *kinds)
    mask |= static_cast<KindMask>(1u << static_cast<std::uint8_t>(kind));
  return mask;
}

std::vector<std::string> path_components(std::string_view normalized_path) {
  std::vector<std::string> components;
  std::size_t pos = 0;
  while (pos < normalized_path.size()) {
    if (normalized_path[pos] == '/') {
      ++pos;
      continue;
    }
    std::size_t end = normalized_path.find('/', pos);
    if (end == std::string_view::npos) end = normalized_path.size();
    components.emplace_back(normalized_path.substr(pos, end - pos));
    pos = end;
  }
  return components;
}

CompiledRule CompiledRule::compile(const FilterRule& rule) {
  CompiledRule compiled;
  compiled.root = common::normalize_path(rule.root);
  compiled.components = path_components(compiled.root);
  compiled.recursive = rule.recursive;
  compiled.name_pattern = rule.name_pattern;
  compiled.kinds = kind_mask(rule.kinds);
  return compiled;
}

CompiledRuleSet::CompiledRuleSet(std::span<const FilterRule> rules) {
  rules_.reserve(rules.size());
  for (const auto& rule : rules) {
    rules_.push_back(CompiledRule::compile(rule));
    const CompiledRule& compiled = rules_.back();
    const auto index = static_cast<std::uint32_t>(rules_.size() - 1);
    if (compiled.components.empty())
      slash_rules_.push_back(index);
    else
      by_root_[compiled.root].push_back(index);
    max_root_depth_ = std::max(max_root_depth_, compiled.components.size());
  }
}

bool CompiledRuleSet::matches(std::string_view path, EventKind kind) const {
  if (rules_.empty()) return true;
  if (common::is_normalized_path(path)) return matches_normalized(path, kind);
  return matches_normalized(common::normalize_path(path), kind);
}

bool CompiledRuleSet::matches_normalized(std::string_view path, EventKind kind) const {
  // An event path P matches a rule rooted at R only if R is "/", a
  // proper prefix of P ending before a '/', or P itself. A recursive
  // rule takes any of them; a non-recursive one only P's parent. The
  // "/" quirk of FilterRule — parent_path("/") is "/", so a
  // non-recursive "/" rule matches the path "/" — falls out of
  // last_slash being 0 for both "/" and depth-1 paths.
  const std::size_t last_slash = path.rfind('/');
  const std::string_view base = path.substr(last_slash + 1);
  if (any_accepts(slash_rules_, last_slash == 0, base, kind)) return true;
  if (path.size() == 1) return false;  // "/" has no other ancestor
  std::size_t end = 0;
  for (std::size_t depth = 1; depth <= max_root_depth_ && end < path.size(); ++depth) {
    end = path.find('/', end + 1);
    if (end == std::string_view::npos) end = path.size();
    const auto it = by_root_.find(path.substr(0, end));
    // end == path.size() probes P itself: only recursive rules accept.
    if (it != by_root_.end() && any_accepts(it->second, end == last_slash, base, kind))
      return true;
  }
  return false;
}

bool CompiledRuleSet::any_accepts(std::span<const std::uint32_t> indices, bool direct_child,
                                  std::string_view base, EventKind kind) const {
  for (const std::uint32_t i : indices) {
    const CompiledRule& rule = rules_[i];
    if (!mask_accepts(rule.kinds, kind)) continue;
    if (!rule.recursive && !direct_child) continue;
    if (!rule.name_pattern.empty() && !common::glob_match(rule.name_pattern, base))
      continue;
    return true;
  }
  return false;
}

bool matches_any(std::span<const FilterRule> rules, const StdEvent& event,
                 const FilterMetrics* metrics) {
  bool matched = rules.empty();
  if (!matched) {
    for (const auto& rule : rules) {
      if (rule.matches(event)) {
        matched = true;
        break;
      }
    }
  }
  if (metrics != nullptr) {
    metrics->evaluations->inc();
    (matched ? metrics->matches : metrics->drops)->inc();
  }
  return matched;
}

}  // namespace fsmon::core
