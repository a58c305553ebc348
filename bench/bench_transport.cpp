// Transport hop bench: the zero-copy FrameRef hop against the historic
// copy-per-hop hop (the BM_BatchedHop loop from bench_micro, reproduced
// here as the baseline).
//
// The baseline pays the pre-refactor pipeline's per-hop tax on the same
// in-process carrier: copy the encoded frame into a fresh payload
// (FrameRef::copy), send it, and decode_batch on the receive side
// materializes every event. The transport hop is what the stages
// actually do now: adopt the encoded buffer into a FrameRef (a move),
// send it (refcount bump / one ring write / scatter-gather writev), and
// view_batch the received bytes in place — one CRC verify at ingress
// (as the aggregator does) but no per-hop deserialization, which is the
// one-serialization invariant the codec counters assert.
//
// Emits BENCH_transport.json and fails (exit 1) unless, at batch 64,
// the in-proc and shm hops both reach >= 2x the baseline events/s with
// frame.copies == 0 across their measured loops and exactly one
// serialize call per event (and zero deserialize calls) in every
// zero-copy run.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/event.hpp"
#include "src/transport/inproc.hpp"
#include "src/transport/shm.hpp"
#include "src/transport/tcp.hpp"

namespace fsmon {
namespace {

constexpr std::uint64_t kEventsPerRun = 1 << 18;  // ~constant work per run
constexpr double kRequiredSpeedup = 2.0;

bool sockets_available() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

core::EventBatch make_batch(std::size_t batch_size) {
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
  return batch;
}

struct HopResult {
  std::string mode;
  std::size_t batch = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
  std::uint64_t frame_copies = 0;
  bool one_serialization = false;
};

std::size_t iterations_for(std::size_t batch_size) {
  // Cap the frame count so small-batch runs (many tiny frames) finish in
  // reasonable time on the slower carriers; events/s stays comparable.
  return std::min<std::size_t>(kEventsPerRun / batch_size, 1 << 16);
}

/// The BM_BatchedHop loop: encode, send a copied payload, receive,
/// decode every event. One hop of the pre-transport pipeline.
HopResult run_baseline(std::size_t batch_size) {
  transport::InProcTransport transport;
  auto sender = transport.make_sender("p");
  auto receiver = transport.make_receiver("s", 1 << 16, common::OverflowPolicy::kDropNewest);
  receiver->subscribe("");
  sender->connect(receiver);
  const core::EventBatch batch = make_batch(batch_size);
  const std::size_t iters = iterations_for(batch_size);

  std::uint64_t sink = 0;
  std::vector<std::byte> frame;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    frame.clear();
    core::encode_batch(batch, frame);
    sender->send("fsmon/mdt0", transport::FrameRef::copy(frame));
    auto message = receiver->try_recv();
    auto decoded = core::decode_batch(message->payload.bytes());
    sink += decoded.value().events.size();
  }
  const auto done = std::chrono::steady_clock::now();

  HopResult result;
  result.mode = "copy";
  result.batch = batch_size;
  result.events = sink;
  result.wall_ms = std::chrono::duration<double, std::milli>(done - start).count();
  result.events_per_sec = static_cast<double>(sink) / (result.wall_ms / 1000.0);
  result.one_serialization = true;  // n/a: the baseline decodes on purpose
  return result;
}

/// One transport hop as the refactored stages do it: adopt the encoded
/// buffer (move), send, and view the received frame in place.
HopResult run_transport(transport::Transport& t, std::string mode,
                        std::size_t batch_size) {
  auto sender = t.make_sender("bench/out");
  auto receiver = t.make_receiver("bench/in", 1 << 16, transport::OverflowPolicy::kBlock);
  receiver->subscribe("");
  sender->connect(receiver);
  const core::EventBatch batch = make_batch(batch_size);
  // TCP pays a full socket roundtrip per frame in this lock-step loop;
  // fewer frames give the same events/s without a minute of wall time.
  const std::size_t iters = mode == "tcp"
                                ? std::min<std::size_t>(iterations_for(batch_size), 4096)
                                : iterations_for(batch_size);

  const std::uint64_t copies_before = transport::frame_copies();
  const auto codec_before = core::codec_counters();
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    auto bytes = core::encode_batch(batch);
    sender->send("fsmon/mdt0", transport::FrameRef::adopt(std::move(bytes)));
    auto frame = receiver->recv(std::chrono::milliseconds(2000));
    auto view = core::view_batch(frame->payload.bytes());
    sink += view.value().count;
  }
  const auto done = std::chrono::steady_clock::now();
  const auto codec_after = core::codec_counters();

  HopResult result;
  result.mode = std::move(mode);
  result.batch = batch_size;
  result.events = sink;
  result.wall_ms = std::chrono::duration<double, std::milli>(done - start).count();
  result.events_per_sec = static_cast<double>(sink) / (result.wall_ms / 1000.0);
  result.frame_copies = transport::frame_copies() - copies_before;
  // Exactly one serialize per event (the collector-side encode), zero
  // per-hop deserializes: view_batch never materializes events.
  result.one_serialization =
      codec_after.serialize_calls - codec_before.serialize_calls ==
          static_cast<std::uint64_t>(iters) * batch_size &&
      codec_after.deserialize_calls == codec_before.deserialize_calls;
  return result;
}

}  // namespace
}  // namespace fsmon

int main() {
  using namespace fsmon;

  bench::banner("transport hop: zero-copy FrameRef vs copy-per-hop baseline");
  std::printf("%llu events per run, batch sizes 1 / 64 / 512\n",
              static_cast<unsigned long long>(kEventsPerRun));

  const std::vector<std::size_t> batches{1, 64, 512};
  std::vector<HopResult> results;
  double baseline64 = 0;
  for (const std::size_t b : batches) {
    auto r = run_baseline(b);
    if (b == 64) baseline64 = r.events_per_sec;
    results.push_back(std::move(r));
  }
  {
    transport::InProcTransport inproc;
    for (const std::size_t b : batches) results.push_back(run_transport(inproc, "inproc", b));
    transport::ShmTransport shm;
    for (const std::size_t b : batches) results.push_back(run_transport(shm, "shm", b));
    if (sockets_available()) {
      transport::TcpTransport tcp;
      for (const std::size_t b : batches) results.push_back(run_transport(tcp, "tcp", b));
    } else {
      std::printf("sockets unavailable: skipping the tcp hop (not asserted)\n");
    }
  }

  bench::Table table({"mode", "batch", "events", "wall ms", "events/s", "vs baseline@64",
                      "frame copies", "1-serialize"});
  double speedup_inproc64 = 0, speedup_shm64 = 0, speedup_tcp64 = 0;
  bool zero_copy_ok = true;
  bool one_serialization_ok = true;
  for (const auto& r : results) {
    const double speedup = r.batch == 64 ? r.events_per_sec / baseline64 : 0;
    if (r.batch == 64) {
      if (r.mode == "inproc") speedup_inproc64 = speedup;
      if (r.mode == "shm") speedup_shm64 = speedup;
      if (r.mode == "tcp") speedup_tcp64 = speedup;
    }
    if (r.mode == "inproc" || r.mode == "shm") {
      zero_copy_ok = zero_copy_ok && r.frame_copies == 0;
      one_serialization_ok = one_serialization_ok && r.one_serialization;
    }
    table.add_row({r.mode, std::to_string(r.batch), std::to_string(r.events),
                   bench::fmt(r.wall_ms, 1), bench::fmt(r.events_per_sec, 0),
                   r.batch == 64 ? bench::fmt(speedup, 2) + "x" : "-",
                   std::to_string(r.frame_copies), r.one_serialization ? "yes" : "NO"});
  }
  table.print();

  if (std::FILE* out = std::fopen("BENCH_transport.json", "w")) {
    std::fprintf(out, "{\n  \"runs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(out,
                   "    {\"mode\": \"%s\", \"batch\": %zu, \"events\": %llu, "
                   "\"wall_ms\": %.1f, \"events_per_sec\": %.0f, \"frame_copies\": %llu, "
                   "\"one_serialization_per_event\": %s}%s\n",
                   r.mode.c_str(), r.batch, static_cast<unsigned long long>(r.events),
                   r.wall_ms, r.events_per_sec,
                   static_cast<unsigned long long>(r.frame_copies),
                   r.one_serialization ? "true" : "false",
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"baseline_batch64_events_per_sec\": %.0f,\n", baseline64);
    std::fprintf(out, "  \"speedup_batch64\": {\"inproc\": %.2f, \"shm\": %.2f, \"tcp\": %.2f},\n",
                 speedup_inproc64, speedup_shm64, speedup_tcp64);
    std::fprintf(out, "  \"required_speedup\": %.1f,\n", kRequiredSpeedup);
    std::fprintf(out, "  \"zero_copy_inproc_shm\": %s\n}\n", zero_copy_ok ? "true" : "false");
    std::fclose(out);
    std::printf("results: BENCH_transport.json\n");
  }

  bool ok = true;
  if (speedup_inproc64 < kRequiredSpeedup || speedup_shm64 < kRequiredSpeedup) {
    std::printf("FAIL: batch-64 speedup inproc %.2fx / shm %.2fx below the %.1fx floor\n",
                speedup_inproc64, speedup_shm64, kRequiredSpeedup);
    ok = false;
  }
  if (!zero_copy_ok) {
    std::printf("FAIL: frame.copies moved on an in-proc/shm hop\n");
    ok = false;
  }
  if (!one_serialization_ok) {
    std::printf("FAIL: one-serialization-per-event invariant broken\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
