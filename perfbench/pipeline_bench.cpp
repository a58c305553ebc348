// One trial of the pipeline benchmark: drives the real threaded
// scalable::ScalableMonitor (8 MDT collectors -> shard router -> 4
// aggregator shards + event store -> consumers) through one workload and
// prints its figures as one JSON line. run.py runs trials in fresh
// processes, takes medians and prints the metrics.
//
//   pipeline_bench --workload <backlog_drain|live_tcp|fanout_16> --seed <n>
//                  --mode <plain|traced|stepped> --work-dir <dir>
//
// plain    threaded pipeline, no registry, no sampling: end-to-end figures.
// traced   the same job with a metrics registry passed through the
//          existing `metrics` options and a ~1 ms counter sampler.
// stepped  the same job single-threaded: the drain_collectors_once
//          sequence spelled out with a span around every stage call,
//          then each consumer drained alone.
//
// Every trial checks its deliveries against the generator's ledger
// (checker.hpp). Options the workloads do not name keep their shipped
// defaults; no modeled costs run.
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/checker.hpp"
#include "src/common/clock.hpp"
#include "src/common/logging.hpp"
#include "src/lustre/filesystem.hpp"
#include "src/obs/metrics.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/transport/frame.hpp"
#include "src/transport/tcp.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace scalable = fsmon::scalable;
namespace lustre = fsmon::lustre;
namespace transport = fsmon::transport;
namespace obs = fsmon::obs;
namespace common = fsmon::common;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kMdts = 8;
constexpr std::size_t kShards = 4;
/// Fresh-consumer store replays per trial: enough to replay this many
/// events in all (at least one); the median replay rate is kept.
constexpr std::uint64_t kReplayEvents = 250'000;

// ---------------------------------------------------------------- workloads

struct Workload {
  std::size_t records = 0;     ///< Pre-filled changelog records (0 = live).
  std::uint32_t dirs = 64;     ///< Top-level directories /d0 .. /d<dirs-1>.
  bool mixed_ops = false;      ///< Mix setattr/rename/unlink/mkdir into creates.
  std::size_t filtered = 0;    ///< Filtered consumers beside the catch-all.
  bool tcp = false;            ///< transport::TcpTransport instead of in-proc.
  std::size_t aged_files = 0;  ///< Files present before the monitor exists.
  // Every trial ends with an open-loop live phase: creates at `rate`,
  // the first warmup_s checked but not timed, the next live_s timed.
  // It is the whole job on a live workload and a latency probe after
  // the backlog on the others.
  double rate = 20'000;        ///< Live phase: creates per second.
  double warmup_s = 0.1;
  double live_s = 1.0;
  bool live() const { return records == 0; }
  std::size_t live_ops() const { return static_cast<std::size_t>(rate * (warmup_s + live_s)); }
};

std::optional<Workload> workload_named(const std::string& name) {
  Workload w;
  if (name == "backlog_drain") {
    // Sized so the live probe's creates stay below the simulator's next
    // fid hash-table growth step (351,062 entries; see live_tcp).
    w.records = 400'000;
    w.mixed_ops = true;
  } else if (name == "live_tcp") {
    w.tcp = true;
    w.warmup_s = 0.5;
    w.live_s = 2.5;
    // 90k aged files put the simulator's fid hash tables just past a
    // growth step (85,230 entries), so the live creates never trigger a
    // rehash: a rehash holds the simulated MDS lock for milliseconds to
    // tens of milliseconds and would put simulator stalls into the
    // latency tail.
    w.aged_files = 90'000;
  } else if (name == "fanout_16") {
    w.records = 200'000;
    w.dirs = 512;
    w.filtered = 16;
  } else {
    return std::nullopt;
  }
  return w;
}

// ------------------------------------------------------------------ helpers

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of sorted samples.
template <typename T>
double percentile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const auto i = std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, sorted.size());
  return static_cast<double>(sorted[i - 1]);
}

template <typename T>
std::vector<T> sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::string describe_filesystem(const fs::path& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994: return "tmpfs (RAM-backed)";
    case 0x858458f6: return "ramfs (RAM-backed)";
    case 0xEF53: return "ext2/3/4 (disk)";
    case 0x58465342: return "xfs (disk)";
    case 0x9123683E: return "btrfs (disk)";
    case 0x794c7630: return "overlayfs";
    default: return "f_type " + std::to_string(static_cast<unsigned long>(st.f_type));
  }
}

/// Warnings the monitor logged; forwarded to stderr as well.
std::atomic<std::uint64_t> g_warnings{0};

// ---------------------------------------------------------------- generator

/// Issues metadata operations against the simulated Lustre and records
/// each one in the ledger. The seed fixes the op mix and directory
/// choice. Files never leave their directory and directories are never
/// renamed or removed, so every event's directory and file number are
/// known up front.
class Generator {
 public:
  Generator(lustre::LustreFs& lfs, Ledger& ledger, std::uint64_t seed, const Workload& w)
      : fs_(lfs), ledger_(ledger), rng_(seed), w_(w) {}

  /// Create the top-level directories and the aged files (/d<dir>/a<k>).
  /// Run before the monitor exists: these records precede every
  /// collector's changelog registration, so no consumer sees them.
  bool make_tree() {
    for (std::uint32_t d = 0; d < w_.dirs; ++d)
      if (!fs_.mkdir("/d" + std::to_string(d)).is_ok()) return false;
    for (std::size_t k = 0; k < w_.aged_files; ++k)
      if (!fs_.create(path(pick_dir(), 'a', static_cast<std::uint32_t>(k))).is_ok())
        return false;
    return true;
  }

  /// One pre-fill operation; false when the filesystem or the ledger
  /// refused it.
  bool step() {
    const double u = w_.mixed_ops ? unit_(rng_) : 0.0;
    if (u >= 0.96) return mkdir();
    if (u >= 0.89 && !live_.empty()) return unlink();
    if (u >= 0.82 && rename()) return renamed_ok_;
    if (u >= 0.72 && !live_.empty()) return setattr();
    return create(next_name_++);
  }

  /// Create /d<dir>/f<k>. Live ops number their files from
  /// next_name() on, so a consumer can recover each event's due time
  /// from its path.
  bool create(std::uint32_t k) {
    const Expected e{Op::kCreate, pick_dir(), k};
    const auto t0 = Clock::now();
    auto r = fs_.create(path(e.dir, 'f', e.name));
    create_ns_.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    if (!r.is_ok()) return false;
    if (w_.mixed_ops) {
      live_.push_back(files_.size());
      fresh_.push_back(files_.size());
      files_.push_back({e.dir, e.name});
    }
    return record(r.value(), e);
  }

  std::vector<std::int64_t>& create_ns() { return create_ns_; }
  std::uint32_t next_name() const { return next_name_; }

 private:
  struct File {
    std::uint32_t dir;
    std::uint32_t name;
    bool renamed = false;
    bool alive = true;
  };

  bool mkdir() {
    const Expected e{Op::kMkdir, pick_dir(), next_name_++};
    auto r = fs_.mkdir(path(e.dir, 'm', e.name));
    return r.is_ok() && record(r.value(), e);
  }

  bool setattr() {
    const File& f = files_[live_[pick(live_.size())]];
    auto r = fs_.setattr(path(f.dir, f.renamed ? 'r' : 'f', f.name), 0600);
    return r.is_ok() && record(r.value(), {Op::kSetattr, f.dir, f.name});
  }

  /// Rename a live, never-renamed file within its directory (f<k> ->
  /// r<k>). False when there is none; renamed_ok_ holds the outcome.
  bool rename() {
    while (!fresh_.empty()) {
      File& f = files_[take(fresh_)];
      if (!f.alive) continue;  // unlinked since it was created
      auto r = fs_.rename(path(f.dir, 'f', f.name), path(f.dir, 'r', f.name));
      f.renamed = true;
      renamed_ok_ = r.is_ok() && record(r.value(), {Op::kRename, f.dir, f.name});
      return true;
    }
    return false;
  }

  bool unlink() {
    File& f = files_[take(live_)];
    f.alive = false;
    auto r = fs_.unlink(path(f.dir, f.renamed ? 'r' : 'f', f.name));
    return r.is_ok() && record(r.value(), {Op::kUnlink, f.dir, f.name});
  }

  /// Remove and return a random element (order is not kept).
  std::size_t take(std::vector<std::size_t>& v) {
    const std::size_t slot = pick(v.size());
    const std::size_t value = v[slot];
    v[slot] = v.back();
    v.pop_back();
    return value;
  }

  static std::string path(std::uint32_t dir, char tag, std::uint32_t name) {
    return "/d" + std::to_string(dir) + "/" + tag + std::to_string(name);
  }
  std::uint32_t pick_dir() { return static_cast<std::uint32_t>(pick(w_.dirs)); }
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }
  bool record(const lustre::OpResult& r, Expected e) {
    return ledger_.add(r.mdt_index, r.record_index, e);
  }

  lustre::LustreFs& fs_;
  Ledger& ledger_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  const Workload& w_;
  std::vector<File> files_;         ///< Mixed ops: every file created, in order.
  std::vector<std::size_t> live_;   ///< files_ indices not yet unlinked.
  std::vector<std::size_t> fresh_;  ///< files_ indices never renamed (may be unlinked).
  bool renamed_ok_ = true;
  std::uint32_t next_name_ = 0;
  std::vector<std::int64_t> create_ns_;
};

// ----------------------------------------------------------------- consumers

/// One consumer's delivery log, appended on its delivery thread and read
/// by the main thread only after the consumer has stopped.
struct Sink {
  Route route;
  std::vector<Delivery> log;
  std::atomic<std::uint64_t> received{0};
  std::uint64_t expected = 0;
};

scalable::Consumer::BatchCallback log_into(Sink& sink, const scalable::ShardMap& map) {
  return [&sink, &map](const core::EventBatch& batch) {
    const std::int64_t at = now_ns();
    for (const auto& e : batch.events)
      sink.log.push_back(
          make_delivery(e, static_cast<std::uint32_t>(map.shard_of(e.source)), at));
    sink.received.fetch_add(batch.size(), std::memory_order_release);
  };
}

/// The catch-all route plus `filtered` routes that each watch a
/// disjoint, seed-chosen 1/filtered of the directories.
std::vector<Route> make_routes(const Workload& w, std::uint64_t seed) {
  std::vector<Route> routes(1);
  if (w.filtered == 0) return routes;
  std::vector<std::uint32_t> order(w.dirs);
  for (std::uint32_t d = 0; d < w.dirs; ++d) order[d] = d;
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::shuffle(order.begin(), order.end(), rng);
  for (std::size_t c = 0; c < w.filtered; ++c) {
    Route r;
    r.dirs.assign(w.dirs, false);
    for (std::size_t i = c; i < order.size(); i += w.filtered) r.dirs[order[i]] = true;
    routes.push_back(std::move(r));
  }
  return routes;
}

scalable::ConsumerOptions consumer_options(const Route& route, obs::MetricsRegistry* metrics) {
  scalable::ConsumerOptions o;
  for (std::uint32_t d = 0; d < route.dirs.size(); ++d)
    if (route.dirs[d]) o.rules.push_back({"/d" + std::to_string(d), true, "", std::nullopt});
  o.metrics = metrics;
  return o;
}

// ------------------------------------------------------------------- output

/// Flat JSON object writer for the trial's result line.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  Json& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// -------------------------------------------------------------------- trial

enum class Mode { kPlain, kTraced, kStepped };

/// Queue depth seen by the ~1 ms counter sampler.
struct Backlog {
  double peak = 0;
  double sum = 0;
  std::uint64_t samples = 0;
  void add(double v) {
    peak = std::max(peak, v);
    sum += v;
    ++samples;
  }
  double mean() const { return samples == 0 ? 0 : sum / static_cast<double>(samples); }
};

class Trial {
 public:
  Trial(const Workload& w, std::uint64_t seed, Mode mode, fs::path store)
      : w_(w), seed_(seed), mode_(mode), store_(std::move(store)) {}

  /// Run the trial; returns its JSON result line.
  std::string run();

 private:
  bool wait_for(const std::function<bool()>& done,
                const std::function<std::uint64_t()>& progress);
  void drain_threaded(scalable::ScalableMonitor& monitor, lustre::LustreFs& lfs,
                      transport::Transport& tr, obs::MetricsRegistry* registry);
  void run_live_generator();
  /// Wait until every event in the ledger is persisted and every
  /// consumer holds its share; false (and a failure) on a stall.
  bool settle(scalable::ScalableMonitor& monitor);
  void measure_replay(scalable::ScalableMonitor& monitor);
  void report_latency();
  void sample(scalable::ScalableMonitor& monitor);
  void trace_layers(scalable::ScalableMonitor& monitor, obs::MetricsRegistry& registry,
                    transport::Transport& tr);
  std::string bottleneck() const;
  void run_stepped(scalable::ScalableMonitor& monitor);
  void fail(std::string why) {
    if (failure_.empty()) failure_ = std::move(why);
  }

  const Workload& w_;
  std::uint64_t seed_;
  Mode mode_;
  fs::path store_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<Generator> gen_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<std::unique_ptr<scalable::Consumer>> consumers_;
  std::string failure_;
  Json out_;
  Tally tally_;
  std::map<std::string, double> layer_;
  std::uint64_t events_ = 0;       ///< Events in the ledger at the last settle().
  std::uint64_t job_records_ = 0;  ///< Records of the timed job (backlog or live phase).
  std::uint64_t job_events_ = 0;   ///< Events of the timed job.
  std::int64_t start_ns_ = 0;
  std::int64_t t0_ns_ = 0;  ///< Live phase: due time of op 0.
  std::int64_t period_ns_ = 0;
  std::uint32_t first_live_ = 0;  ///< File number of the first live op.
  std::uint32_t first_timed_ = 0;  ///< File number of the first timed live op.
  std::vector<std::int64_t> late_ns_;
  std::atomic<std::uint64_t> written_{0};
  Backlog changelog_, inbox_, persist_, delivery_;
  double collect_done_s_ = 0;  ///< Sampler: first time every record was processed.
};

bool Trial::wait_for(const std::function<bool()>& done,
                     const std::function<std::uint64_t()>& progress) {
  constexpr auto kStallLimit = std::chrono::seconds(15);
  std::uint64_t last = progress();
  auto last_change = Clock::now();
  while (!done()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (const std::uint64_t p = progress(); p != last) {
      last = p;
      last_change = Clock::now();
    } else if (Clock::now() - last_change > kStallLimit) {
      return false;
    }
  }
  return true;
}

std::string Trial::run() {
  fs::remove_all(store_);
  const auto setup_begin = Clock::now();
  common::RealClock& clock = common::RealClock::instance();

  lustre::LustreFsOptions fs_options;
  fs_options.mdt_count = kMdts;
  lustre::LustreFs lfs(fs_options, clock);
  ledger_ = std::make_unique<Ledger>(kMdts);
  gen_ = std::make_unique<Generator>(lfs, *ledger_, seed_, w_);
  if (!gen_->make_tree()) fail("creating the directory tree failed");

  // Declared before the monitor, so it outlives every endpoint on it.
  std::unique_ptr<transport::TcpTransport> tcp;
  if (w_.tcp) tcp = std::make_unique<transport::TcpTransport>();
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = mode_ == Mode::kTraced ? &registry : nullptr;

  scalable::ScalableMonitorOptions options;
  options.shards = kShards;
  options.transport = tcp.get();
  fsmon::eventstore::EventStoreOptions store;
  store.directory = store_;
  options.aggregator.store = store;
  options.collector.metrics = metrics;
  options.aggregator.metrics = metrics;
  auto monitor = std::make_unique<scalable::ScalableMonitor>(lfs, options, clock);
  transport::Transport& tr = monitor->sharded().transport();
  if (metrics != nullptr) tr.attach_metrics(metrics);

  for (Route& route : make_routes(w_, seed_)) {
    auto sink = std::make_unique<Sink>();
    sink->route = std::move(route);
    consumers_.push_back(monitor->make_consumer("c" + std::to_string(sinks_.size()),
                                                consumer_options(sink->route, metrics),
                                                log_into(*sink, monitor->sharded().map())));
    sinks_.push_back(std::move(sink));
  }

  // Pre-fill after the monitor exists (its collectors registered their
  // changelog users at construction) and before start(). The stepped
  // run pre-fills the live workload's ops too: it has no clock to keep.
  const bool prefilled = !w_.live() || mode_ == Mode::kStepped;
  const std::size_t prefill = !prefilled ? 0 : w_.live() ? w_.live_ops() : w_.records;
  for (std::size_t i = 0; i < prefill && failure_.empty(); ++i) {
    if (!(w_.live() ? gen_->create(static_cast<std::uint32_t>(i)) : gen_->step()))
      fail("generator op " + std::to_string(i) + " failed");
  }
  written_.store(prefill);
  for (auto& sink : sinks_) {
    sink->expected = expected_for(*ledger_, sink->route);
    sink->log.reserve(sink->expected + w_.live_ops());
  }
  out_.num("setup_s", seconds_since(setup_begin));

  if (failure_.empty()) {
    if (mode_ == Mode::kStepped)
      run_stepped(*monitor);
    else
      drain_threaded(*monitor, lfs, tr, metrics);
  }

  for (auto& c : consumers_) c->stop();
  for (const auto& sink : sinks_) tally_ += check(*ledger_, sink->route, sink->log);
  if (mode_ != Mode::kStepped) report_latency();

  out_.num("records", static_cast<double>(job_records_))
      .num("events", static_cast<double>(job_events_))
      .num("create_us_p50", percentile(sorted(gen_->create_ns()), 50) / 1e3);
  gen_.reset();

  // Teardown order: consumers (their destructors may still write the
  // store's reported watermark), then the monitor, then the store.
  consumers_.clear();
  monitor.reset();
  tcp.reset();
  fs::remove_all(store_);

  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  Json tally;
  tally.num("expected", static_cast<double>(tally_.expected))
      .num("delivered", static_cast<double>(tally_.delivered))
      .num("lost", static_cast<double>(tally_.lost))
      .num("duplicated", static_cast<double>(tally_.duplicated))
      .num("misrouted", static_cast<double>(tally_.misrouted));
  Json layer;
  for (const auto& [name, value] : layer_) layer.num(name, value);
  out_.boolean("ok", failure_.empty())
      .str("failure", failure_)
      .num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .num("warnings", static_cast<double>(g_warnings.load()))
      .raw("tally", tally.text())
      .raw("layer", layer.text());
  return out_.text();
}

void Trial::drain_threaded(scalable::ScalableMonitor& monitor, lustre::LustreFs& lfs,
                           transport::Transport& tr, obs::MetricsRegistry* registry) {
  std::atomic<bool> sampling{registry != nullptr};
  std::jthread sampler;
  if (registry != nullptr) sampler = std::jthread([&] {
    while (sampling.load()) {
      sample(monitor);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto codec0 = core::codec_counters();
  const std::uint64_t copies0 = transport::frame_copies();

  start_ns_ = now_ns();
  const auto start = Clock::now();
  if (auto s = monitor.start(); !s.is_ok()) fail("monitor start: " + s.to_string());
  for (auto& c : consumers_) c->start();

  // The timed job: the pre-filled backlog, or the live phase itself.
  if (w_.live() && failure_.empty()) run_live_generator();
  const bool done = failure_.empty() && settle(monitor);
  const double drain_s = seconds_since(start);
  const auto codec1 = core::codec_counters();
  const std::uint64_t copies1 = transport::frame_copies();
  job_events_ = events_;
  job_records_ = written_.load();
  const double events = static_cast<double>(job_events_);
  const double records = static_cast<double>(job_records_);
  out_.num("drain_s", drain_s).num("drain_events_per_s", events / drain_s);
  sampling.store(false);
  if (sampler.joinable()) sampler.join();

  if (registry != nullptr) {
    layer_["core.decodes_per_event"] =
        static_cast<double>(codec1.deserialize_calls - codec0.deserialize_calls) / events;
    layer_["core.encodes_per_event"] =
        static_cast<double>(codec1.serialize_calls - codec0.serialize_calls) / events;
    layer_["transport.frame_copies"] = static_cast<double>(copies1 - copies0);
    layer_["collector.records_per_s"] =
        records / (collect_done_s_ > 0 ? collect_done_s_ : drain_s);
    trace_layers(monitor, *registry, tr);
  }

  // After a backlog, the live phase probes real-time latency. It starts
  // once the collectors have cleared the drained records: a clear purges
  // them under the changelog lock that every create also takes.
  if (!w_.live() && done) {
    auto retained = [&] {
      std::uint64_t n = 0;
      for (std::uint32_t m = 0; m < kMdts; ++m) n += lfs.mds(m).mdt().changelog().retained();
      return n;
    };
    if (!wait_for([&] { return retained() == 0; }, retained))
      fail("changelog records stayed uncleared after the drain");
    run_live_generator();
    if (failure_.empty()) settle(monitor);
  }
  measure_replay(monitor);
}

bool Trial::settle(scalable::ScalableMonitor& monitor) {
  events_ = ledger_->events();
  auto& tier = monitor.sharded();
  const bool done = wait_for(
      [&] {
        for (const auto& s : sinks_)
          if (s->received.load(std::memory_order_acquire) < s->expected) return false;
        return tier.persisted() >= events_;
      },
      [&] {
        std::uint64_t p = tier.persisted();
        for (const auto& s : sinks_) p += s->received.load(std::memory_order_relaxed);
        return p;
      });
  if (!done) fail("pipeline stalled before every event was persisted and delivered");
  return done;
}

void Trial::run_live_generator() {
  // Open loop: op k is due at t0 + k * period whatever the pipeline
  // does; a late generator issues every op already due back to back.
  // The first warmup_s of ops are checked but not timed: they pay for
  // connection and thread start-up, not steady delivery.
  const auto count = static_cast<std::uint32_t>(w_.live_ops());
  period_ns_ = static_cast<std::int64_t>(1e9 / w_.rate);
  first_live_ = gen_->next_name();
  first_timed_ = first_live_ + static_cast<std::uint32_t>(w_.rate * w_.warmup_s);
  late_ns_.reserve(count);
  gen_->create_ns().reserve(gen_->create_ns().size() + count);
  t0_ns_ = now_ns() + 1'000'000;
  std::jthread producer([&] {
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::int64_t due = t0_ns_ + static_cast<std::int64_t>(k) * period_ns_;
      if (const std::int64_t now = now_ns(); now < due)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      if (first_live_ + k >= first_timed_)
        late_ns_.push_back(std::max<std::int64_t>(0, now_ns() - due));
      if (!gen_->create(first_live_ + k)) {
        fail("live create " + std::to_string(k) + " failed");
        return;
      }
      written_.fetch_add(1, std::memory_order_relaxed);
    }
  });
  producer.join();
  for (auto& sink : sinks_) sink->expected = expected_for(*ledger_, sink->route);
}

void Trial::measure_replay(scalable::ScalableMonitor& monitor) {
  // Phase 2: fresh catch-all consumers each replay the whole store.
  std::vector<double> rates;
  for (std::uint64_t i = 0; i == 0 || i * events_ < kReplayEvents; ++i) {
    Sink replay;
    replay.log.reserve(events_);
    auto replayer = monitor.make_consumer("replay" + std::to_string(i), {},
                                          log_into(replay, monitor.sharded().map()));
    const auto r0 = Clock::now();
    auto n = replayer->replay_historic(common::EventId{0});
    const double replay_s = seconds_since(r0);
    replayer.reset();
    if (!n.is_ok()) fail("replay_historic: " + n.status().to_string());
    rates.push_back(static_cast<double>(n.is_ok() ? n.value() : 0) / replay_s);
    tally_ += check(*ledger_, replay.route, replay.log);
  }
  out_.num("replay_events_per_s", median(rates));
}

void Trial::report_latency() {
  // Latency of each timed live op's deliveries, from its due time, also
  // grouped into windows of kWindowOps consecutive ops (250 ms at
  // 20k/s). run.py takes the median window's p50 and p99: a host
  // scheduling stall that hits a few windows does not move them, and the
  // trial's tail percentile is reported beside them.
  constexpr std::uint32_t kWindowOps = 5'000;
  std::vector<std::int64_t> lat;
  std::vector<std::vector<std::int64_t>> windows;
  for (const auto& sink : sinks_) {
    for (const Delivery& d : sink->log) {
      if (d.tag != 'f' || d.name < first_timed_) continue;  // backlog or warm-up
      lat.push_back(d.at_ns - (t0_ns_ + static_cast<std::int64_t>(d.name - first_live_) *
                                            period_ns_));
      const std::size_t w = (d.name - first_timed_) / kWindowOps;
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(lat.back());
    }
  }
  std::string window_list;
  for (auto& w : windows) {
    std::sort(w.begin(), w.end());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s[%.6f, %.6f]", window_list.empty() ? "" : ", ",
                  percentile(w, 50) / 1e6, percentile(w, 99) / 1e6);
    window_list += buf;
  }
  std::sort(lat.begin(), lat.end());
  // The highest percentile with at least ten samples beyond it.
  const double n = static_cast<double>(lat.size());
  double tail = 50;
  for (double p : {90.0, 99.0, 99.9, 99.99, 99.999})
    if (n * (1 - p / 100) >= 10) tail = p;
  const auto late = sorted(late_ns_);
  out_.raw("latency_windows_ms", "[" + window_list + "]")
      .num("latency_samples", n)
      .num("tail_pct", tail)
      .num("tail_ms", percentile(lat, tail) / 1e6)
      .num("tail_beyond", std::floor(n * (1 - tail / 100)))
      .num("late_p50_us", percentile(late, 50) / 1e3)
      .num("late_p99_us", percentile(late, 99) / 1e3);
}

void Trial::sample(scalable::ScalableMonitor& monitor) {
  std::uint64_t processed = 0, published = 0;
  for (std::size_t i = 0; i < monitor.collector_count(); ++i) {
    processed += monitor.collector(i).records_processed();
    published += monitor.collector(i).events_published();
  }
  const std::uint64_t aggregated = monitor.sharded().aggregated();
  const std::uint64_t persisted = monitor.sharded().persisted();
  std::uint64_t slowest = UINT64_MAX;
  for (const auto& c : consumers_)
    slowest = std::min(slowest, c->delivered() + c->filtered_out() + c->duplicates_suppressed());
  const std::uint64_t written = written_.load(std::memory_order_relaxed);
  auto gap = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? static_cast<double>(a - b) : 0.0;
  };
  changelog_.add(gap(written, processed));
  inbox_.add(gap(published, aggregated));
  persist_.add(gap(aggregated, persisted));
  delivery_.add(gap(aggregated, slowest));
  if (collect_done_s_ == 0 && processed > 0 && processed >= written)
    collect_done_s_ = static_cast<double>(now_ns() - start_ns_) / 1e9;
}

void Trial::trace_layers(scalable::ScalableMonitor& monitor, obs::MetricsRegistry& registry,
                         transport::Transport& tr) {
  const auto snap = registry.snapshot();
  const double events = static_cast<double>(job_events_);
  auto& L = layer_;
  std::uint64_t hits = 0, lookups = 0, published = 0;
  for (std::size_t i = 0; i < monitor.collector_count(); ++i) {
    auto& c = monitor.collector(i);
    published += c.events_published();
    if (auto st = c.cache_stats()) {
      hits += st->hits;
      lookups += st->hits + st->misses;
    }
  }
  auto& tier = monitor.sharded();
  const double routed = static_cast<double>(tier.router().frames_routed());
  L["collector.fidcache_hit_ratio"] =
      lookups == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(lookups);
  L["collector.events_per_frame"] = routed == 0 ? 0 : static_cast<double>(published) / routed;
  L["shard_router.frames_refused"] =
      routed == 0 ? 0 : static_cast<double>(tier.router().frames_refused()) / routed;
  double max_shard = 0, sum_shard = 0;
  std::uint64_t groups = 0;
  for (std::size_t k = 0; k < tier.shard_count(); ++k) {
    const double a = static_cast<double>(tier.shard(k).aggregated());
    max_shard = std::max(max_shard, a);
    sum_shard += a;
    groups += tier.shard(k).commit_groups();
  }
  L["shard_router.shard_skew"] =
      sum_shard == 0 ? 0 : max_shard / (sum_shard / static_cast<double>(tier.shard_count()));
  L["aggregator.inbox_backlog_peak"] = inbox_.peak;
  L["aggregator.fanout_lag_us_p99"] =
      snap.histogram_merged("aggregator.fanout_lag_us").quantile(0.99);
  L["aggregator.publish_abandoned"] =
      static_cast<double>(snap.counter_total("aggregator.publish_abandoned"));
  L["eventstore.persist_backlog_peak"] = persist_.peak;
  L["eventstore.events_per_commit_group"] =
      groups == 0 ? 0 : static_cast<double>(tier.persisted()) / static_cast<double>(groups);
  L["eventstore.group_commit_latency_us_p99"] =
      snap.histogram_merged("wal.group_commit_latency").quantile(0.99);
  L["transport.frames_per_event"] =
      static_cast<double>(snap.counter_total("transport.frames")) / events;
  L["consumer.delivery_backlog_peak"] = delivery_.peak;
  std::uint64_t delivered = 0, attempts = 0;
  for (const auto& c : consumers_) {
    delivered += c->delivered();
    attempts += c->delivered() + c->filtered_out();
  }
  L["consumer.match_ratio"] =
      attempts == 0 ? 0 : static_cast<double>(delivered) / static_cast<double>(attempts);
  L["lustre.changelog_lag_peak"] = changelog_.peak;

  // Replay paging: a span around each ShardedAggregator::events_since.
  std::vector<double> page_ms;
  scalable::VectorCursor cursor(kShards);
  for (;;) {
    const auto p0 = Clock::now();
    auto page = tier.events_since(cursor, 4096);
    const double ms = seconds_since(p0) * 1e3;
    if (!page.is_ok() || page.value().empty()) break;
    page_ms.push_back(ms);
  }
  L["eventstore.replay_page_ms"] = median(page_ms);

  // One live-sized frame (three events) through Sender::send ->
  // Receiver::recv on the workload's own transport.
  auto sender = tr.make_sender("perfbench-hop");
  auto receiver = tr.make_receiver("perfbench-hop-rx");
  receiver->subscribe("");
  sender->connect(receiver);
  core::EventBatch batch;
  for (int i = 0; i < 3; ++i) {
    core::StdEvent e;
    e.path = "/d1/f" + std::to_string(i);
    e.source = "lustre:MDT0";
    batch.events.push_back(e);
  }
  const auto frame = transport::FrameRef::adopt(core::encode_batch(batch));
  std::vector<std::int64_t> hops;
  for (int i = 0; i < 220; ++i) {
    const std::int64_t t0 = now_ns();
    sender->send("perfbench/hop", frame);
    if (!receiver->recv(std::chrono::milliseconds(1000))) break;
    if (i >= 20) hops.push_back(now_ns() - t0);  // the first 20 warm the path
  }
  sender->disconnect(receiver);
  receiver->close();
  L["transport.hop_us_p50"] = percentile(sorted(hops), 50) / 1e3;

  Json backlog;
  const std::pair<const char*, const Backlog*> queues[] = {{"changelog", &changelog_},
                                                           {"aggregator_inbox", &inbox_},
                                                           {"persist_queue", &persist_},
                                                           {"consumer_delivery", &delivery_}};
  for (const auto& [name, b] : queues) {
    Json pm;
    pm.num("peak", b->peak).num("mean", b->mean());
    backlog.raw(name, pm.text());
  }
  out_.raw("backlog", backlog.text()).str("bottleneck", bottleneck());
}

std::string Trial::bottleneck() const {
  // Queues build in front of the slowest stage while every stage after
  // it waits on an empty input, so the bottleneck is the
  // furthest-downstream stage whose input queue grows: holds more than
  // two collector frames or 1% of the events on average over the drain.
  // Store and consumers sit side by side after the aggregator. With no
  // growing queue, the collector (reading the changelog) bounds the run.
  const double threshold = std::max(1024.0, 0.01 * static_cast<double>(job_events_));
  const bool store_first = persist_.mean() >= delivery_.mean();
  const Backlog& first = store_first ? persist_ : delivery_;
  const Backlog& second = store_first ? delivery_ : persist_;
  if (first.mean() > threshold) return store_first ? "eventstore" : "consumer";
  if (second.mean() > threshold) return store_first ? "consumer" : "eventstore";
  if (inbox_.mean() > threshold) return "aggregator";
  return "collector";
}

void Trial::run_stepped(scalable::ScalableMonitor& monitor) {
  // The drain_collectors_once sequence, spelled out so each stage call
  // gets its own span; rounds repeat until every event is persisted
  // (over TCP, frames can still be in flight after a round).
  std::int64_t collect = 0, aggregate = 0, clear = 0, consume = 0;  // span totals, ns
  auto timed = [](std::int64_t& total, auto&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    total += now_ns() - t0;
  };
  events_ = job_events_ = ledger_->events();
  job_records_ = written_.load();
  const auto begin = Clock::now();
  auto& tier = monitor.sharded();
  const bool drained = wait_for(
      [&] {
        for (std::size_t i = 0; i < monitor.collector_count(); ++i)
          timed(collect, [&] { monitor.collector(i).drain_once(); });
        for (std::size_t k = 0; k < tier.shard_count(); ++k)
          timed(aggregate, [&] { tier.shard(k).drain_once(); });
        for (std::size_t i = 0; i < monitor.collector_count(); ++i)
          timed(clear, [&] { monitor.collector(i).apply_acked_clear(); });
        return tier.persisted() >= events_;
      },
      [&] { return tier.persisted(); });
  if (!drained) fail("stepped drain stalled");
  // Consumers one at a time, each alone draining the frames queued for it.
  std::uint64_t deliveries = 0;
  for (std::size_t c = 0; c < consumers_.size() && drained; ++c) {
    Sink& sink = *sinks_[c];
    timed(consume, [&] {
      consumers_[c]->start();
      if (!wait_for([&] { return sink.received.load(std::memory_order_acquire) >= sink.expected; },
                    [&] { return sink.received.load(); }))
        fail("stepped consumer " + std::to_string(c) + " stalled");
      consumers_[c]->stop();
    });
    deliveries += sink.received.load();
  }
  const double wall_s = seconds_since(begin);
  const double records = static_cast<double>(written_.load());
  const double total = static_cast<double>(collect + aggregate + clear + consume);
  layer_["collector.busy_ns_per_record"] = static_cast<double>(collect) / records;
  layer_["aggregator.busy_ns_per_event"] =
      static_cast<double>(aggregate) / static_cast<double>(events_);
  layer_["consumer.busy_ns_per_delivery"] =
      static_cast<double>(consume) / static_cast<double>(std::max<std::uint64_t>(deliveries, 1));
  layer_["stepped.share_collector"] = static_cast<double>(collect) / total;
  layer_["stepped.share_aggregator"] = static_cast<double>(aggregate) / total;
  layer_["stepped.share_clear"] = static_cast<double>(clear) / total;
  layer_["stepped.share_consumer"] = static_cast<double>(consume) / total;
  layer_["pipeline.stepped_events_per_s"] = static_cast<double>(events_) / wall_s;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, mode_name;
  std::uint64_t seed = 1;
  fs::path work_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::stoull(value);
    else if (key == "--mode") mode_name = value;
    else if (key == "--work-dir") work_dir = value;
  }
  const auto w = workload_named(workload);
  const std::map<std::string, Mode> modes = {
      {"plain", Mode::kPlain}, {"traced", Mode::kTraced}, {"stepped", Mode::kStepped}};
  if (!w || !modes.count(mode_name) || work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload <backlog_drain|live_tcp|fanout_16> "
                 "--seed <n> --mode <plain|traced|stepped> --work-dir <dir>\n");
    return 2;
  }
  common::set_log_sink([](common::LogLevel level, const std::string& line) {
    if (level >= common::LogLevel::kWarn) g_warnings.fetch_add(1);
    std::fprintf(stderr, "%s\n", line.c_str());
  });
  fs::create_directories(work_dir);
  Json head;
  head.str("filesystem", describe_filesystem(work_dir));
  std::string line = Trial(*w, seed, modes.at(mode_name), work_dir / "store").run();
  line.replace(0, 1, head.text().substr(0, head.text().size() - 1) + ", ");
  std::printf("%s\n", line.c_str());
  fs::remove_all(work_dir);
  return 0;
}
