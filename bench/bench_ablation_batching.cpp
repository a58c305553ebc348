// Ablation: changelog read-batch size.
//
// The paper's collector processes "events ... in batches" (Algorithm 1's
// caller) and purges the changelog per batch. Each changelog read is an
// RPC to the MDS; batching amortizes that round trip. This ablation
// sweeps the batch size on the Iota profile and shows the knee: tiny
// batches pay the RPC per record and collapse throughput, while past a
// few hundred records the amortization is complete.
#include <atomic>
#include <chrono>
#include <thread>

#include "bench/bench_util.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/scalable/sim_driver.hpp"

using namespace fsmon;

namespace {

// Second ablation: the collector -> aggregator publish-batch size. Runs
// the real threaded pipeline (collectors, aggregator, consumer over the
// in-process transport) against a pre-filled changelog and reports delivered events/s
// plus wire bytes per event, both straight from the metrics registry.
void publish_batch_sweep() {
  bench::banner("Ablation: collector publish-batch size (threaded pipeline)");
  constexpr int kEvents = 50000;

  bench::Table table({"Publish batch", "Delivered events/sec", "vs batch=512",
                      "Wire bytes/event"});
  struct Row {
    std::size_t batch;
    double rate;
    double bytes_per_event;
  };
  std::vector<Row> rows;
  double reference = 0;
  for (std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                            std::size_t{512}}) {
    common::RealClock clock;
    lustre::LustreFs fs(lustre::LustreFsOptions{}, clock);
    fs.mkdir("/d");

    obs::MetricsRegistry registry;
    scalable::ScalableMonitorOptions options;
    options.collector.cache_size = 5000;
    options.collector.publish_batch = batch;
    options.collector.metrics = &registry;
    options.aggregator.metrics = &registry;
    // Construct before the creates so the collectors' changelog users
    // are registered and the backlog is retained until start().
    scalable::ScalableMonitor monitor(fs, options, clock);
    for (int i = 0; i < kEvents; ++i) fs.create("/d/f" + std::to_string(i));
    std::atomic<int> received{0};
    auto consumer =
        monitor.make_consumer("bench", scalable::ConsumerOptions{},
                              [&](const core::EventBatch& delivered) {
                                received.fetch_add(static_cast<int>(delivered.size()));
                              });
    const auto start = std::chrono::steady_clock::now();
    if (!monitor.start().is_ok() || !consumer->start().is_ok()) return;
    while (received.load() < kEvents) std::this_thread::sleep_for(std::chrono::microseconds(200));
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start);
    consumer->stop();
    monitor.stop();

    const auto snapshot = registry.snapshot();
    const auto published = snapshot.counter_total("collector.records_published");
    const auto wire_bytes = snapshot.histogram_merged("collector.batch_bytes").sum();
    rows.push_back({batch, kEvents / elapsed.count(),
                    published == 0 ? 0.0
                                   : static_cast<double>(wire_bytes) /
                                         static_cast<double>(published)});
    if (batch == 512) reference = rows.back().rate;
  }
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.batch), bench::fmt(row.rate),
                   bench::fmt(100.0 * row.rate / reference, 1) + "%",
                   bench::fmt(row.bytes_per_event, 1)});
  }
  table.print();
  std::printf(
      "Shape: batch=1 pays one frame (header+CRC+pub/sub hop) per event;\n"
      "larger batches amortize framing into ~1 frame per read batch, so\n"
      "bytes/event falls toward the bare serialized-event size and the\n"
      "delivered rate climbs until the changelog read batch caps it.\n");
}

}  // namespace

int main() {
  bench::banner("Ablation: collector changelog-read batch size (Iota, cache 5000)");

  bench::Table table({"Batch size", "Reported events/sec", "vs batch=512",
                      "Peak backlog (records)"});
  double reference = 0;
  struct Row {
    std::size_t batch;
    double rate;
    std::size_t backlog;
  };
  std::vector<Row> rows;
  for (std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                            std::size_t{64}, std::size_t{512}, std::size_t{4096}}) {
    scalable::SimConfig config;
    config.profile = lustre::TestbedProfile::iota();
    config.duration = std::chrono::seconds(10);
    config.cache_size = 5000;
    config.collector_batch = batch;
    const auto report = scalable::run_pipeline_sim(config);
    rows.push_back({batch, report.reported_rate, report.peak_backlog_records});
    if (batch == 512) reference = report.reported_rate;
  }
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.batch), bench::fmt(row.rate),
                   bench::fmt(100.0 * row.rate / reference, 1) + "%",
                   std::to_string(row.backlog)});
  }
  table.print();
  std::printf(
      "Shape: with a ~100us read RPC, batch=1 pays it per record (~50%%\n"
      "throughput loss at Iota rates); amortization is essentially\n"
      "complete by a few hundred records — the paper's batched design is\n"
      "necessary, and oversizing batches buys nothing further.\n");

  publish_batch_sweep();
  return 0;
}
