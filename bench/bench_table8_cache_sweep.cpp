// Table VIII reproduction: FSMonitor performance vs fid2path-cache size
// on Iota (one MDS, mixed Evaluate_Performance_Script), plus the
// resolver-pool sweep: resolver threads x cache size with modeled
// fid2path cost paid for real (RealClock), checking that the pool
// multiplies the reporting rate while publishing the identical per-MDT
// event order. Emits BENCH_resolution.json for the sweep.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/scalable/sim_driver.hpp"
#include "src/transport/inproc.hpp"

using namespace fsmon;

namespace {

struct SweepResult {
  std::size_t resolver_threads = 0;
  std::size_t cache_size = 0;
  std::size_t events = 0;
  double seconds = 0;
  double events_per_sec = 0;
  double hit_rate = 0;
  std::uint64_t coalesced = 0;
  double speedup_vs_serial = 1.0;
  bool order_identical_to_serial = true;
  std::vector<std::byte> wire_bytes;  // concatenated serialized events
};

/// One collector run over kTriples create/rename/unlink triples with the
/// modeled fid2path cost actually slept (base_latency enables the sleep
/// gate; workers overlap the nanosleeps, which is where the pool's
/// speedup comes from on any core count).
SweepResult run_sweep_config(std::size_t resolver_threads, std::size_t cache_size) {
  constexpr int kTriples = 1200;
  common::RealClock clock;
  lustre::LustreFs fs(lustre::LustreFsOptions{}, clock);
  transport::InProcTransport transport;
  auto inbox = transport.make_receiver("inbox", 1 << 16);
  inbox->subscribe("");
  auto sender = transport.make_sender("pub");
  sender->connect(inbox);

  obs::MetricsRegistry registry;
  scalable::CollectorOptions options;
  options.cache_size = cache_size;
  options.resolver_threads = resolver_threads;
  options.costs.base_latency = std::chrono::microseconds(1);
  options.resolver.base_cost = std::chrono::microseconds(150);
  options.resolver.per_component_cost = std::chrono::microseconds(5);
  options.metrics = &registry;
  scalable::Collector collector(fs, 0, sender, options, clock);

  for (int i = 0; i < kTriples; ++i) {
    const std::string f = "/f" + std::to_string(i);
    const std::string r = "/r" + std::to_string(i);
    fs.create(f);
    fs.rename(f, r);
    fs.unlink(r);
  }

  const auto start = std::chrono::steady_clock::now();
  collector.drain_once();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  SweepResult result;
  result.resolver_threads = resolver_threads;
  result.cache_size = cache_size;
  result.seconds = std::chrono::duration<double>(elapsed).count();
  while (auto message = inbox->try_recv()) {
    auto batch = core::decode_batch(message->payload.bytes());
    if (!batch.is_ok()) continue;
    for (auto& event : batch.value().events) {
      // Timestamps are real wall-clock instants of this run's fs ops, so
      // they can never match across runs; blank them so wire_bytes
      // compares ordering and content only.
      event.timestamp = {};
      core::serialize_event(event, result.wire_bytes);
      ++result.events;
    }
  }
  result.events_per_sec =
      result.seconds > 0 ? static_cast<double>(result.events) / result.seconds : 0;
  const auto snapshot = registry.snapshot();
  result.hit_rate = bench::cache_hit_rate(snapshot);
  result.coalesced = snapshot.counter_total("fid2path.coalesced");
  return result;
}

void run_resolver_sweep() {
  bench::banner(
      "Resolver-pool sweep: resolver threads x cache size (modeled fid2path "
      "cost paid for real)");

  const std::size_t thread_counts[] = {1, 2, 4};
  const std::size_t cache_sizes[] = {0, 5000};
  std::vector<SweepResult> results;
  for (std::size_t cache : cache_sizes) {
    SweepResult serial;  // copied baseline — results may reallocate
    for (std::size_t threads : thread_counts) {
      SweepResult row = run_sweep_config(threads, cache);
      if (threads == 1) {
        serial = row;
      } else {
        row.speedup_vs_serial = row.seconds > 0 ? serial.seconds / row.seconds : 0;
        row.order_identical_to_serial = row.wire_bytes == serial.wire_bytes;
      }
      results.push_back(std::move(row));
    }
  }

  bench::Table table({"Resolver threads", "Cache size", "Events", "Events/sec",
                      "Hit rate", "Coalesced", "Speedup vs serial",
                      "Order == serial"});
  for (const auto& row : results) {
    table.add_row({std::to_string(row.resolver_threads),
                   std::to_string(row.cache_size), std::to_string(row.events),
                   bench::fmt(row.events_per_sec, 0), bench::fmt(row.hit_rate, 3),
                   std::to_string(row.coalesced),
                   bench::fmt(row.speedup_vs_serial, 2),
                   row.order_identical_to_serial ? "yes" : "NO"});
  }
  table.print();

  // Machine-readable sweep for the driver / regression tracking.
  if (std::FILE* out = std::fopen("BENCH_resolution.json", "w")) {
    std::fprintf(out, "{\n  \"rows\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& row = results[i];
      std::fprintf(out,
                   "    {\"resolver_threads\": %zu, \"cache_size\": %zu, "
                   "\"events\": %zu, \"events_per_sec\": %.0f, "
                   "\"hit_rate\": %.4f, \"coalesced\": %llu, "
                   "\"speedup_vs_serial\": %.3f, "
                   "\"order_identical_to_serial\": %s}%s\n",
                   row.resolver_threads, row.cache_size, row.events,
                   row.events_per_sec, row.hit_rate,
                   static_cast<unsigned long long>(row.coalesced),
                   row.speedup_vs_serial,
                   row.order_identical_to_serial ? "true" : "false",
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("sweep results: BENCH_resolution.json\n");
  }

  // Acceptance: with the cache disabled (every record pays fid2path) the
  // 4-thread pool must deliver >= 2.5x the serial reporting rate with a
  // byte-identical published stream.
  for (const auto& row : results) {
    if (row.resolver_threads == 4 && row.cache_size == 0) {
      const bool pass = row.speedup_vs_serial >= 2.5 && row.order_identical_to_serial;
      std::printf("acceptance (4 threads, cache off): speedup %.2fx, order %s -> %s\n",
                  row.speedup_vs_serial,
                  row.order_identical_to_serial ? "identical" : "DIVERGED",
                  pass ? "PASS" : "FAIL");
    }
  }
}

}  // namespace

int main() {
  bench::banner("Table VIII: FSMonitor performance vs. cache size (Iota, 1 MDS)");

  struct PaperRow {
    std::size_t size;
    double cpu, memory_mb, reported;
  };
  const PaperRow rows[] = {
      {200, 4.8, 88.7, 8644},  {500, 3.5, 84.3, 8997},   {1000, 2.98, 75.6, 9401},
      {2000, 2.95, 61.3, 9453}, {5000, 2.89, 55.4, 9487}, {7500, 2.92, 60.7, 9481},
  };

  bench::Table table({"Cache Size (#fid2path)", "CPU% on collector",
                      "Memory (MB) on collector", "Events/sec reported",
                      "Cache hit rate"});
  double best_rate = 0;
  std::size_t best_size = 0;
  for (const auto& row : rows) {
    scalable::SimConfig config;
    config.profile = lustre::TestbedProfile::iota();
    config.duration = std::chrono::seconds(30);
    config.cache_size = row.size;
    // One registry per row so fidcache.* counters are per-configuration;
    // the hit-rate column comes from the registry, not SimReport.
    obs::MetricsRegistry registry;
    config.metrics = &registry;
    const auto report = scalable::run_pipeline_sim(config);
    const auto snapshot = registry.snapshot();
    table.add_row({std::to_string(row.size),
                   bench::vs_paper(report.collector.cpu_percent, row.cpu, 2),
                   bench::vs_paper(report.collector.memory_mb, row.memory_mb, 1),
                   bench::vs_paper(report.reported_rate, row.reported),
                   bench::fmt(bench::cache_hit_rate(snapshot), 3)});
    if (report.reported_rate > best_rate) {
      best_rate = report.reported_rate;
      best_size = row.size;
    }
    // Keep the paper-optimum row's snapshot as the bench's final dump.
    if (row.size == 5000) bench::dump_metrics(registry, "bench_table8_metrics.json");
  }
  table.print();
  std::printf(
      "Optimum observed at cache size %zu (paper: 5000). Shape: reporting\n"
      "rate and CPU improve steeply up to ~1000-5000 entries, then flatten;\n"
      "oversizing past the working set buys nothing and costs lookup time\n"
      "and memory.\n",
      best_size);

  run_resolver_sweep();
  return 0;
}
