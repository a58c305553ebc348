// nsquery: answer namespace queries from a persisted event store
// without touching (or even having) the monitored file system.
//
// Usage:
//   nsquery <store_dir> [shards=N] [snapshot.dir=DIR] <command> [args]
//
// Commands:
//   lookup <path>        attrs + rename chain for one path
//   ls <path>            direct children of a directory
//   top [k]              k most active directories (default 10)
//   chain <path>         rename history, oldest name first
//   dump                 full index state (debugging)
//
// The store directory is the aggregator's (`shard<k>` suffixes are
// derived when shards>1). With `snapshot.dir=` the newest valid
// snapshot seeds the index and only the delta above its cursor is
// folded — the same O(delta) path IndexConsumer uses at restart.
#include <cstdio>
#include <string>

#include "src/common/config.hpp"
#include "src/nsindex/index_consumer.hpp"

using namespace fsmon;

namespace {

void print_node(const std::string& path, const nsindex::NodeView& node) {
  std::printf("%s  %s%s  node=%llu  events=%llu  create_id=%llu  last_id=%llu\n",
              path.c_str(), node.is_dir ? "dir" : "file",
              node.implicit ? " (implicit)" : "",
              static_cast<unsigned long long>(node.node_id),
              static_cast<unsigned long long>(node.events),
              static_cast<unsigned long long>(node.create_event),
              static_cast<unsigned long long>(node.last_event));
  for (const auto& hop : node.chain)
    std::printf("  was %s (until event %llu)\n", hop.old_path.c_str(),
                static_cast<unsigned long long>(hop.event_id));
}

int usage() {
  std::fprintf(stderr,
               "usage: nsquery <store_dir> [shards=N] [snapshot.dir=DIR] "
               "<lookup|ls|top|chain|dump> [args]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  common::Config config;
  const auto positional = config.parse_args(argc, argv);
  if (positional.size() < 2) return usage();
  const std::string& store_dir = positional[0];
  const std::string& command = positional[1];
  const auto shards = static_cast<std::size_t>(config.get_int("shards", 1));

  scalable::ShardedAggregatorOptions options;
  options.shards = shards;
  eventstore::EventStoreOptions store;
  store.directory = store_dir;
  options.aggregator.store = store;
  auto& clock = common::RealClock::instance();
  // Constructing the tier recovers each shard's store from disk; we
  // never start() it — nsquery only reads the merged replay.
  scalable::ShardedAggregator aggregator("nsquery", options, clock);

  nsindex::NamespaceIndex index;
  const std::string snapshot_dir = config.get_or("snapshot.dir", "");
  if (!snapshot_dir.empty()) {
    nsindex::SnapshotStore snapshots({snapshot_dir, 2, nullptr});
    auto recovered = snapshots.recover(index);
    if (!recovered.is_ok()) {
      std::fprintf(stderr, "snapshot recovery failed: %s\n",
                   recovered.status().to_string().c_str());
      return 1;
    }
  }
  // Fold the delta above the (possibly zero) snapshot cursor.
  scalable::VectorCursor cursor = index.applied_cursor();
  cursor.ensure(aggregator.shard_count());
  for (;;) {
    auto events = aggregator.events_since(cursor, 4096);
    if (!events.is_ok()) {
      std::fprintf(stderr, "store replay failed: %s\n",
                   events.status().to_string().c_str());
      return 1;
    }
    if (events.value().empty()) break;
    for (const auto& event : events.value()) {
      const std::size_t shard =
          shards == 1 ? 0 : aggregator.map().shard_of(event.source);
      index.apply(shard, event);
    }
    if (events.value().size() < 4096) break;
  }
  std::fprintf(stderr, "# folded %llu events, %zu nodes\n",
               static_cast<unsigned long long>(index.applied_seq()),
               index.node_count());

  if (command == "lookup" || command == "chain") {
    if (positional.size() < 3) return usage();
    auto node = index.lookup(positional[2]);
    if (!node.has_value()) {
      std::fprintf(stderr, "not found: %s\n", positional[2].c_str());
      return 1;
    }
    if (command == "lookup") {
      print_node(positional[2], *node);
    } else {
      auto chain = index.resolve_rename_chain(positional[2]);
      if (chain.is_ok()) {
        for (const auto& hop : chain.value().hops)
          std::printf("%s (until event %llu)\n", hop.old_path.c_str(),
                      static_cast<unsigned long long>(hop.event_id));
        std::printf("%s (current)\n", positional[2].c_str());
      }
    }
    return 0;
  }
  if (command == "ls") {
    if (positional.size() < 3) return usage();
    auto listing = index.list_dir(positional[2]);
    if (!listing.is_ok()) {
      std::fprintf(stderr, "ls failed: %s\n",
                   listing.status().to_string().c_str());
      return 1;
    }
    for (const auto& entry : listing.value())
      std::printf("%s%s\n", entry.name.c_str(), entry.is_dir ? "/" : "");
    return 0;
  }
  if (command == "top") {
    const std::size_t k =
        positional.size() > 2 ? std::stoul(positional[2]) : 10;
    for (const auto& dir : index.activity_topk(k))
      std::printf("%8llu  %s\n", static_cast<unsigned long long>(dir.events),
                  dir.path.c_str());
    return 0;
  }
  if (command == "dump") {
    std::printf("%s", index.debug_dump().c_str());
    return 0;
  }
  return usage();
}
