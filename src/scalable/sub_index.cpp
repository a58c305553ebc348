#include "src/scalable/sub_index.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "src/common/string_util.hpp"

namespace fsmon::scalable {

namespace {
constexpr std::size_t kWordBits = 64;

inline void set_bit(std::vector<std::uint64_t>& words, SubscriberId id) {
  const std::size_t word = id / kWordBits;
  if (word >= words.size()) words.resize(word + 1, 0);
  words[word] |= std::uint64_t{1} << (id % kWordBits);
}
}  // namespace

void SubscriberBitset::set(SubscriberId id) { set_bit(words_, id); }

void SubscriberBitset::clear(SubscriberId id) {
  const std::size_t word = id / kWordBits;
  if (word < words_.size())
    words_[word] &= ~(std::uint64_t{1} << (id % kWordBits));
}

bool SubscriberBitset::test(SubscriberId id) const {
  const std::size_t word = id / kWordBits;
  return word < words_.size() &&
         (words_[word] >> (id % kWordBits)) & std::uint64_t{1};
}

bool SubscriberBitset::any() const {
  for (std::uint64_t w : words_)
    if (w != 0) return true;
  return false;
}

void SubscriberBitset::or_into(std::vector<std::uint64_t>& words) const {
  const std::size_t n = std::min(words.size(), words_.size());
  for (std::size_t i = 0; i < n; ++i) words[i] |= words_[i];
}

void SubscriberBitset::or_into(std::vector<std::uint64_t>& words,
                               std::vector<std::uint32_t>& dirty) const {
  const std::size_t n = std::min(words.size(), words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (words_[i] == 0) continue;
    if (words[i] == 0) dirty.push_back(static_cast<std::uint32_t>(i));
    words[i] |= words_[i];
  }
}

void DeliverySet::reset(std::size_t subscriber_limit) {
  for (SubscriberId id : touched_) indices_[id].clear();
  touched_.clear();
  if (indices_.size() < subscriber_limit) indices_.resize(subscriber_limit);
}

void DeliverySet::add(SubscriberId id, std::uint32_t event_index) {
  auto& list = indices_[id];
  if (list.empty()) touched_.push_back(id);
  list.push_back(event_index);
}

SubIndexMetrics SubIndexMetrics::create(obs::MetricsRegistry& registry,
                                        const obs::Labels& labels) {
  SubIndexMetrics m;
  m.subscribers = &registry.gauge("subidx.subscribers", labels,
                                  "Live subscribers registered in the index",
                                  "subscribers");
  m.nodes = &registry.gauge("subidx.nodes", labels,
                            "Path-trie nodes currently allocated", "nodes");
  m.batches = &registry.counter("subidx.batches", labels,
                                "Batches matched through the shared index",
                                "batches");
  m.events = &registry.counter("subidx.events", labels,
                               "Events matched through the shared index",
                               "events");
  m.deliveries = &registry.counter(
      "subidx.deliveries", labels,
      "(subscriber, event) delivery pairs the index produced", "deliveries");
  return m;
}

/// One trie node's subscriber entries, split by how cheaply they can be
/// evaluated: patternless all-kind rules are a single bitset OR,
/// patternless kind-restricted rules one OR from the per-kind bitmap,
/// and only glob-carrying rules pay a per-(rule, event) check.
struct SubscriptionIndex::EntrySet {
  SubscriberBitset all;
  std::array<SubscriberBitset, core::kEventKindCount> by_kind;
  struct Cond {
    SubscriberId id;
    core::KindMask kinds;
    std::string pattern;
  };
  std::vector<Cond> cond;

  bool empty() const {
    if (all.any() || !cond.empty()) return false;
    for (const auto& b : by_kind)
      if (b.any()) return false;
    return true;
  }
};

struct SubscriptionIndex::Node {
  std::map<std::string, std::unique_ptr<Node>, std::less<>> children;
  EntrySet recursive;  ///< Rules rooted here with subtree semantics.
  EntrySet direct;     ///< Rules rooted here matching direct children only.
};

SubscriptionIndex::SubscriptionIndex(SubIndexMetrics metrics)
    : root_(std::make_unique<Node>()), metrics_(metrics) {
  update_gauges();
}

SubscriptionIndex::~SubscriptionIndex() = default;

SubscriptionIndex::Node* SubscriptionIndex::walk_to(
    std::span<const std::string> components) {
  Node* node = root_.get();
  for (const auto& component : components) {
    auto it = node->children.find(component);
    if (it == node->children.end()) {
      it = node->children.emplace(component, std::make_unique<Node>()).first;
      ++node_count_;
    }
    node = it->second.get();
  }
  return node;
}

SubscriberId SubscriptionIndex::add_subscriber(
    std::span<const core::CompiledRule> rules) {
  std::unique_lock lock(mu_);
  SubscriberId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<SubscriberId>(rules_by_id_.size());
    rules_by_id_.emplace_back();
    live_.push_back(false);
  }
  live_[id] = true;
  ++live_count_;
  rules_by_id_[id].assign(rules.begin(), rules.end());

  if (rules.empty()) {
    match_all_.set(id);
  } else {
    for (const auto& rule : rules) {
      Node* node = walk_to(rule.components);
      EntrySet& set = rule.recursive ? node->recursive : node->direct;
      if (!rule.name_pattern.empty()) {
        set.cond.push_back({id, rule.kinds, rule.name_pattern});
      } else if (rule.kinds == core::kAllKinds) {
        set.all.set(id);
      } else {
        for (std::size_t k = 0; k < core::kEventKindCount; ++k) {
          if (core::mask_accepts(rule.kinds, static_cast<core::EventKind>(k)))
            set.by_kind[k].set(id);
        }
      }
    }
  }
  update_gauges();
  return id;
}

void SubscriptionIndex::remove_subscriber(SubscriberId id) {
  std::unique_lock lock(mu_);
  if (id >= live_.size() || !live_[id]) return;
  match_all_.clear(id);
  for (const auto& rule : rules_by_id_[id]) {
    Node* node = root_.get();
    bool found = true;
    for (const auto& component : rule.components) {
      auto it = node->children.find(component);
      if (it == node->children.end()) {
        found = false;
        break;
      }
      node = it->second.get();
    }
    if (!found) continue;
    EntrySet& set = rule.recursive ? node->recursive : node->direct;
    set.all.clear(id);
    for (auto& b : set.by_kind) b.clear(id);
    std::erase_if(set.cond, [id](const EntrySet::Cond& c) { return c.id == id; });
  }
  rules_by_id_[id].clear();
  rules_by_id_[id].shrink_to_fit();
  live_[id] = false;
  free_ids_.push_back(id);
  --live_count_;
  prune(root_.get(), {});
  update_gauges();
}

void SubscriptionIndex::prune(Node* node, std::span<const std::string>) {
  for (auto it = node->children.begin(); it != node->children.end();) {
    prune(it->second.get(), {});
    Node& child = *it->second;
    if (child.children.empty() && child.recursive.empty() &&
        child.direct.empty()) {
      it = node->children.erase(it);
      --node_count_;
    } else {
      ++it;
    }
  }
}

void SubscriptionIndex::accumulate(const EntrySet& set, std::string_view base,
                                   core::EventKind kind,
                                   std::vector<std::uint64_t>& hits,
                                   std::vector<std::uint32_t>& dirty) {
  set.all.or_into(hits, dirty);
  set.by_kind[static_cast<std::size_t>(kind)].or_into(hits, dirty);
  for (const auto& cond : set.cond) {
    if (core::mask_accepts(cond.kinds, kind) &&
        common::glob_match(cond.pattern, base)) {
      const std::size_t word = cond.id / kWordBits;
      if (hits[word] == 0) dirty.push_back(static_cast<std::uint32_t>(word));
      hits[word] |= std::uint64_t{1} << (cond.id % kWordBits);
    }
  }
}

void SubscriptionIndex::match_into(std::string_view path, core::EventKind kind,
                                   std::vector<std::uint64_t>& hits,
                                   std::vector<std::uint32_t>& dirty) const {
  // Walk the normalized path one component at a time, straight off the
  // string: the component after a node decides both the child to
  // descend into and whether the node's direct-child rules apply (they
  // do when that component is the last one).
  const std::size_t slash = path.rfind('/');
  const std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  std::size_t pos = 0;
  auto next_component = [&]() -> std::string_view {
    while (pos < path.size() && path[pos] == '/') ++pos;
    const std::size_t begin = pos;
    while (pos < path.size() && path[pos] != '/') ++pos;
    return path.substr(begin, pos - begin);
  };
  const Node* node = root_.get();
  std::string_view component = next_component();
  for (bool at_root = true;; at_root = false) {
    // Recursive rules rooted at this prefix cover the whole subtree.
    accumulate(node->recursive, base, kind, hits, dirty);
    if (component.empty()) {
      // At the event itself. The root also keeps the quirk that a
      // non-recursive "/" rule matches "/" (parent_path("/") == "/").
      if (at_root) accumulate(node->direct, base, kind, hits, dirty);
      break;
    }
    const std::string_view child = component;
    component = next_component();
    // Non-recursive rules match direct children only — the event must
    // have exactly one component past this prefix.
    if (component.empty()) accumulate(node->direct, base, kind, hits, dirty);
    auto it = node->children.find(child);
    if (it == node->children.end()) break;
    node = it->second.get();
  }
}

void SubscriptionIndex::match_batch(std::span<const MatchKey> events,
                                    DeliverySet& out) const {
  std::shared_lock lock(mu_);
  const std::size_t limit = rules_by_id_.size();
  out.reset(limit);
  // `hits` is zero outside this loop body; each event records the words
  // it sets in `dirty` and zeroes exactly those afterwards, so per-event
  // cost scales with matched subscribers, not the id space.
  std::vector<std::uint64_t> hits((limit + kWordBits - 1) / kWordBits, 0);
  std::vector<std::uint32_t> dirty;
  std::uint64_t deliveries = 0;
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    dirty.clear();
    match_all_.or_into(hits, dirty);
    const std::string_view path = events[i].path;
    if (common::is_normalized_path(path)) {
      match_into(path, events[i].kind, hits, dirty);
    } else {
      match_into(common::normalize_path(path), events[i].kind, hits, dirty);
    }
    for (const std::uint32_t w : dirty) {
      std::uint64_t word = hits[w];
      hits[w] = 0;
      while (word != 0) {
        const int bit = std::countr_zero(word);
        word &= word - 1;
        out.add(static_cast<SubscriberId>(std::size_t{w} * kWordBits + bit), i);
        ++deliveries;
      }
    }
  }
  if (metrics_.batches != nullptr) {
    metrics_.batches->inc();
    metrics_.events->inc(events.size());
    metrics_.deliveries->inc(deliveries);
  }
}

std::vector<SubscriberId> SubscriptionIndex::match_event(
    const core::StdEvent& event) const {
  DeliverySet out;
  const MatchKey key{event.path, event.kind};
  match_batch(std::span(&key, 1), out);
  std::vector<SubscriberId> ids(out.touched().begin(), out.touched().end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t SubscriptionIndex::subscriber_count() const {
  std::shared_lock lock(mu_);
  return live_count_;
}

std::size_t SubscriptionIndex::node_count() const {
  std::shared_lock lock(mu_);
  return node_count_;
}

void SubscriptionIndex::update_gauges() const {
  if (metrics_.subscribers != nullptr) {
    metrics_.subscribers->set(static_cast<std::int64_t>(live_count_));
    metrics_.nodes->set(static_cast<std::int64_t>(node_count_));
  }
}

}  // namespace fsmon::scalable
