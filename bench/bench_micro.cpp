// Google-benchmark micro-benchmarks for the hot-path primitives: the
// fid2path LRU cache, the bounded queue, Algorithm 1 processing, event
// serialization, consumer rule matching, and in-process transport sends.
#include <filesystem>

#include <benchmark/benchmark.h>

#include "src/common/bounded_queue.hpp"
#include "src/common/lru_cache.hpp"
#include "src/common/random.hpp"
#include "src/common/spsc_ring.hpp"
#include "src/core/event.hpp"
#include "src/core/filter.hpp"
#include "src/eventstore/store.hpp"
#include "src/scalable/processor.hpp"
#include "src/transport/inproc.hpp"

namespace {

using namespace fsmon;

void BM_LruCacheHit(benchmark::State& state) {
  common::LruCache<std::uint64_t, std::string> cache(
      static_cast<std::size_t>(state.range(0)));
  for (std::int64_t i = 0; i < state.range(0); ++i)
    cache.put(static_cast<std::uint64_t>(i), "/some/path/component");
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(key));
    key = (key + 1) % static_cast<std::uint64_t>(state.range(0));
  }
}
BENCHMARK(BM_LruCacheHit)->Arg(200)->Arg(5000)->Arg(100000);

void BM_LruCacheMissInsertEvict(benchmark::State& state) {
  common::LruCache<std::uint64_t, std::string> cache(5000);
  std::uint64_t key = 0;
  for (auto _ : state) {
    cache.put(key++, "/some/path/component");
  }
  state.counters["evictions"] =
      static_cast<double>(cache.stats().evictions) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_LruCacheMissInsertEvict);

void BM_BoundedQueuePushPop(benchmark::State& state) {
  common::BoundedQueue<int> queue(1024);
  for (auto _ : state) {
    queue.push(1);
    benchmark::DoNotOptimize(queue.try_pop());
  }
}
BENCHMARK(BM_BoundedQueuePushPop);

void BM_SpscRingPushPop(benchmark::State& state) {
  common::SpscRing<int> ring(1024);
  for (auto _ : state) {
    ring.try_push(1);
    benchmark::DoNotOptimize(ring.try_pop());
  }
}
BENCHMARK(BM_SpscRingPushPop);

void BM_EventSerializeRoundTrip(benchmark::State& state) {
  core::StdEvent event;
  event.id = 42;
  event.kind = core::EventKind::kCreate;
  event.watch_root = "/mnt/lustre";
  event.path = "/perf/d123/f456789";
  event.source = "lustre:MDT0";
  std::vector<std::byte> buffer;
  for (auto _ : state) {
    buffer.clear();
    core::serialize_event(event, buffer);
    benchmark::DoNotOptimize(core::deserialize_event(buffer));
  }
}
BENCHMARK(BM_EventSerializeRoundTrip);

// One consumer's per-event match, shaped like the fanout_16 workload:
// Arg(0) recursive rules on distinct top-level directories, events
// spread over 512 directories two levels deep. The cost should follow
// path depth, not the rule count.
void BM_CompiledRuleSetMatch(benchmark::State& state) {
  std::vector<core::FilterRule> rules;
  for (std::int64_t d = 0; d < state.range(0); ++d)
    rules.push_back({"/d" + std::to_string(d * 7 % 512), true, "", std::nullopt});
  const core::CompiledRuleSet compiled(rules);
  std::vector<std::string> paths;
  for (int i = 0; i < 4096; ++i)
    paths.push_back("/d" + std::to_string(i % 512) + "/f" + std::to_string(i));
  std::size_t i = 0;
  std::uint64_t matched = 0;
  for (auto _ : state) {
    matched += compiled.matches(paths[i], core::EventKind::kCreate) ? 1 : 0;
    i = (i + 1) % paths.size();
  }
  benchmark::DoNotOptimize(matched);
  state.counters["match_ratio"] =
      static_cast<double>(matched) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CompiledRuleSetMatch)->Arg(1)->Arg(32)->Arg(512);

void BM_InProcSend(benchmark::State& state) {
  transport::InProcTransport transport;
  auto sender = transport.make_sender("p");
  auto receiver = transport.make_receiver("s", 1 << 20, common::OverflowPolicy::kDropNewest);
  receiver->subscribe("");
  sender->connect(receiver);
  for (auto _ : state) {
    sender->send("fsmon/mdt0", transport::FrameRef::adopt(std::string("payload")));
    if (receiver->pending() > (1u << 19)) {
      state.PauseTiming();
      while (receiver->try_recv()) {
      }
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_InProcSend);

void BM_BatchedHop(benchmark::State& state) {
  // One serialize->copy->send->recv->deserialize hop, the copy-per-hop
  // collector -> aggregator edge, at varying publish-batch sizes. Items
  // are events, so events/s is directly comparable across batch sizes.
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  transport::InProcTransport transport;
  auto sender = transport.make_sender("p");
  auto receiver = transport.make_receiver("s", 1 << 16, common::OverflowPolicy::kDropNewest);
  receiver->subscribe("");
  sender->connect(receiver);
  core::StdEvent event;
  event.kind = core::EventKind::kCreate;
  event.watch_root = "/mnt/lustre";
  event.path = "/d123/f45678";  // SSO-sized: isolates framing cost from malloc
  event.source = "lustre:MDT0";
  core::EventBatch batch;
  for (std::size_t i = 0; i < batch_size; ++i) {
    event.id = i + 1;
    batch.events.push_back(event);
  }
  std::vector<std::byte> frame;
  for (auto _ : state) {
    frame.clear();
    core::encode_batch(batch, frame);
    sender->send("fsmon/mdt0", transport::FrameRef::copy(frame));
    auto message = receiver->try_recv();
    auto decoded = core::decode_batch(message->payload.bytes());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_BatchedHop)->Arg(1)->Arg(64)->Arg(512);

void BM_ProcessorAlgorithm1(benchmark::State& state) {
  common::ManualClock clock;
  lustre::LustreFs fs(lustre::LustreFsOptions{}, clock);
  lustre::FidResolverOptions resolver_options;  // zero modeled cost: measure real work
  resolver_options.base_cost = {};
  resolver_options.per_component_cost = {};
  lustre::FidResolver resolver(fs, resolver_options);
  scalable::EventProcessor::FidCache cache(5000);
  scalable::EventProcessor processor(resolver, &cache, scalable::ProcessorCosts{},
                                     "lustre:MDT0");
  fs.mkdir("/d");
  // Pre-generate a batch of records to process.
  std::vector<lustre::ChangelogRecord> records;
  for (int i = 0; i < 1024; ++i) {
    fs.create("/d/f" + std::to_string(i));
    fs.modify("/d/f" + std::to_string(i), 64);
  }
  records = fs.mds(0).mdt().changelog().read(0, 4096);
  std::size_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(processor.process(records[index]));
    index = (index + 1) % records.size();
  }
}
BENCHMARK(BM_ProcessorAlgorithm1);

void BM_LustreCreateOp(benchmark::State& state) {
  common::ManualClock clock;
  lustre::LustreFs fs(lustre::LustreFsOptions{}, clock);
  fs.mkdir("/d");
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.create("/d/f" + std::to_string(i++)));
  }
}
BENCHMARK(BM_LustreCreateOp);

void BM_EventStoreAppend(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "fsmon_bench_store";
  std::filesystem::remove_all(dir);
  eventstore::EventStoreOptions options;
  options.directory = dir;
  eventstore::EventStore store(options);
  const auto payload = core::serialize_event(core::StdEvent{});
  common::EventId id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.append(id++, payload));
    if (id % 100000 == 0) {
      state.PauseTiming();
      store.mark_reported(id - 1);
      store.purge_reported();
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_EventStoreAppend);

void BM_EventStoreReplay(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "fsmon_bench_replay";
  std::filesystem::remove_all(dir);
  eventstore::EventStoreOptions options;
  options.directory = dir;
  eventstore::EventStore store(options);
  const auto payload = core::serialize_event(core::StdEvent{});
  for (common::EventId id = 1; id <= 10000; ++id) store.append(id, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.events_since(5000, 1000));
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_EventStoreReplay);

void BM_ZipfSample(benchmark::State& state) {
  common::Rng rng(1);
  common::ZipfSampler zipf(2000, 0.9);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

}  // namespace

BENCHMARK_MAIN();
