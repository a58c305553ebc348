#include "perfbench/checker.hpp"

#include <charconv>
#include <string_view>

namespace perfbench {
namespace {

/// Parse a decimal number at the front of `text`, advancing past it.
bool take_number(std::string_view& text, std::uint32_t& value) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end == text.data()) return false;
  text.remove_prefix(static_cast<std::size_t>(end - text.data()));
  return true;
}

/// Does delivery `d` carry the right kind and path for half `half` of `op`?
bool matches_op(const Expected& op, std::uint32_t half, const Delivery& d) {
  if (d.dir != op.dir || d.name != op.name) return false;
  const bool file_tag = d.tag == 'f' || d.tag == 'r';
  switch (op.op) {
    case Op::kCreate:
      return d.kind == core::EventKind::kCreate && !d.is_dir && d.tag == 'f';
    case Op::kMkdir:
      return d.kind == core::EventKind::kCreate && d.is_dir && d.tag == 'm';
    case Op::kSetattr:
      return d.kind == core::EventKind::kAttrib && !d.is_dir && file_tag;
    case Op::kUnlink:
      return d.kind == core::EventKind::kDelete && !d.is_dir && file_tag;
    case Op::kRename:
      return d.kind == (half == 0 ? core::EventKind::kMovedFrom : core::EventKind::kMovedTo) &&
             !d.is_dir && file_tag;
  }
  return false;
}

}  // namespace

bool Ledger::add(std::uint32_t mdt, std::uint64_t record, Expected op) {
  if (mdt >= by_mdt_.size()) return false;
  auto& ops = by_mdt_[mdt];
  if (ops.empty()) base_[mdt] = record;
  if (record != base_[mdt] + ops.size()) return false;
  ops.push_back(op);
  return true;
}

const Expected* Ledger::find(std::uint32_t mdt, std::uint64_t record) const {
  if (mdt >= by_mdt_.size()) return nullptr;
  const auto& ops = by_mdt_[mdt];
  if (ops.empty() || record < base_[mdt] || record - base_[mdt] >= ops.size()) return nullptr;
  return &ops[record - base_[mdt]];
}

std::uint64_t Ledger::events() const {
  std::uint64_t total = 0;
  for (const auto& ops : by_mdt_)
    for (const auto& op : ops) total += events_of(op.op);
  return total;
}

Delivery make_delivery(const core::StdEvent& event, std::uint32_t shard,
                       std::int64_t at_ns) {
  Delivery d;
  d.record = event.cookie;
  d.id = event.id;
  d.at_ns = at_ns;
  d.shard = shard;
  d.kind = event.kind;
  d.is_dir = event.is_dir;
  std::string_view source = event.source;
  constexpr std::string_view kPrefix = "lustre:MDT";
  if (source.starts_with(kPrefix)) {
    source.remove_prefix(kPrefix.size());
    if (!take_number(source, d.mdt) || !source.empty()) d.mdt = UINT32_MAX;
  } else {
    d.mdt = UINT32_MAX;
  }
  std::string_view path = event.path;
  if (path.starts_with("/d")) {
    path.remove_prefix(2);
    if (take_number(path, d.dir) && path.size() >= 3 && path[0] == '/') {
      const char tag = path[1];
      path.remove_prefix(2);
      if ((tag == 'f' || tag == 'r' || tag == 'm') && take_number(path, d.name) &&
          path.empty())
        d.tag = tag;
    }
  }
  return d;
}

Tally& Tally::operator+=(const Tally& other) {
  expected += other.expected;
  delivered += other.delivered;
  lost += other.lost;
  duplicated += other.duplicated;
  misrouted += other.misrouted;
  return *this;
}

std::uint64_t expected_for(const Ledger& ledger, const Route& route) {
  std::uint64_t total = 0;
  for (std::uint32_t m = 0; m < ledger.mdts(); ++m)
    for (const auto& op : ledger.ops(m))
      if (route.wants(op.dir)) total += events_of(op.op);
  return total;
}

Tally check(const Ledger& ledger, const Route& route, const std::vector<Delivery>& log) {
  Tally tally;
  tally.expected = expected_for(ledger, route);
  tally.delivered = log.size();
  // Receipt count per (record, half), per MDT.
  std::vector<std::vector<std::uint8_t>> counts(ledger.mdts());
  for (std::uint32_t m = 0; m < ledger.mdts(); ++m) counts[m].assign(ledger.ops(m).size() * 2, 0);
  std::vector<std::vector<bool>> ids_seen;  // per shard, indexed by id
  for (const Delivery& d : log) {
    if (d.shard >= ids_seen.size()) ids_seen.resize(d.shard + 1);
    auto& seen = ids_seen[d.shard];
    if (d.id >= seen.size()) seen.resize(std::max<std::size_t>(d.id + 1, seen.size() * 2));
    if (seen[d.id]) {
      ++tally.duplicated;
      continue;
    }
    seen[d.id] = true;
    const Expected* op = ledger.find(d.mdt, d.record);
    const std::uint32_t half = d.kind == core::EventKind::kMovedTo ? 1 : 0;
    if (op == nullptr || !route.wants(op->dir) || !matches_op(*op, half, d)) {
      ++tally.misrouted;
      continue;
    }
    auto& count = counts[d.mdt][(d.record - ledger.base(d.mdt)) * 2 + half];
    if (count != 0) ++tally.duplicated;
    if (count < UINT8_MAX) ++count;
  }
  for (std::uint32_t m = 0; m < ledger.mdts(); ++m) {
    const auto& ops = ledger.ops(m);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!route.wants(ops[i].dir)) continue;
      for (std::uint32_t half = 0; half < events_of(ops[i].op); ++half)
        if (counts[m][i * 2 + half] == 0) ++tally.lost;
    }
  }
  return tally;
}

}  // namespace perfbench
