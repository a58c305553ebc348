// Self-test of the delivery checker: synthetic delivery logs with one
// dropped, one duplicated and one misrouted event must each be flagged,
// and a clean log must pass. Exits nonzero on the first failed case.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/checker.hpp"

namespace {

using perfbench::Delivery;
using perfbench::Expected;
using perfbench::Ledger;
using perfbench::Op;
using perfbench::Route;
namespace core = fsmon::core;

int failures = 0;

void expect_eq(const char* what, std::uint64_t got, std::uint64_t want) {
  if (got == want) return;
  std::fprintf(stderr, "checker_test: %s = %llu, want %llu\n", what,
               static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
  ++failures;
}

core::StdEvent event(std::uint32_t mdt, std::uint64_t record, std::uint64_t id,
                     core::EventKind kind, std::string path) {
  core::StdEvent e;
  e.id = id;
  e.kind = kind;
  e.cookie = record;
  e.path = std::move(path);
  e.source = "lustre:MDT" + std::to_string(mdt);
  return e;
}

Delivery deliver(const core::StdEvent& e, std::uint32_t shard) {
  return perfbench::make_delivery(e, shard, 0);
}

/// Two MDTs, one shard each. MDT0: create /d0/f1 (record 5), rename it
/// (record 6). MDT1: create /d1/f2 (record 9).
Ledger ledger() {
  Ledger l(2);
  bool ok = l.add(0, 5, {Op::kCreate, 0, 1}) && l.add(0, 6, {Op::kRename, 0, 1}) &&
            l.add(1, 9, {Op::kCreate, 1, 2});
  if (!ok) {
    std::fprintf(stderr, "checker_test: ledger rejected an in-order record\n");
    std::exit(1);
  }
  return l;
}

std::vector<Delivery> clean_log() {
  return {deliver(event(0, 5, 1, core::EventKind::kCreate, "/d0/f1"), 0),
          deliver(event(0, 6, 2, core::EventKind::kMovedFrom, "/d0/f1"), 0),
          deliver(event(0, 6, 3, core::EventKind::kMovedTo, "/d0/r1"), 0),
          deliver(event(1, 9, 1, core::EventKind::kCreate, "/d1/f2"), 1)};
}

}  // namespace

int main() {
  const Ledger l = ledger();
  const Route all;
  Route only_d0;
  only_d0.dirs = {true, false};

  expect_eq("ledger events", l.events(), 4);
  expect_eq("gapped record rejected", Ledger(l).add(0, 8, {Op::kCreate, 0, 3}) ? 1 : 0, 0);

  auto clean = perfbench::check(l, all, clean_log());
  expect_eq("clean expected", clean.expected, 4);
  expect_eq("clean errors", clean.errors(), 0);

  auto dropped_log = clean_log();
  dropped_log.erase(dropped_log.begin() + 2);  // lose the MOVED_TO half
  auto dropped = perfbench::check(l, all, dropped_log);
  expect_eq("dropped lost", dropped.lost, 1);
  expect_eq("dropped errors", dropped.errors(), 1);

  auto dup_log = clean_log();
  dup_log.push_back(dup_log[0]);  // same (shard, id) twice
  auto dup = perfbench::check(l, all, dup_log);
  expect_eq("duplicate duplicated", dup.duplicated, 1);
  expect_eq("duplicate errors", dup.errors(), 1);

  auto redelivered_log = clean_log();  // same record half under a new id
  redelivered_log.push_back(deliver(event(0, 5, 7, core::EventKind::kCreate, "/d0/f1"), 0));
  expect_eq("redelivered duplicated", perfbench::check(l, all, redelivered_log).duplicated, 1);

  // A consumer of /d0 only receives /d1's create: misrouted.
  auto misrouted = perfbench::check(l, only_d0, clean_log());
  expect_eq("misrouted expected", misrouted.expected, 3);
  expect_eq("misrouted misrouted", misrouted.misrouted, 1);
  expect_eq("misrouted errors", misrouted.errors(), 1);

  auto wrong_path_log = clean_log();  // right record, wrong file name
  wrong_path_log[3] = deliver(event(1, 9, 1, core::EventKind::kCreate, "/d1/f3"), 1);
  auto wrong_path = perfbench::check(l, all, wrong_path_log);
  expect_eq("wrong path misrouted", wrong_path.misrouted, 1);
  expect_eq("wrong path lost", wrong_path.lost, 1);

  if (failures != 0) return 1;
  std::printf("checker_test: ok\n");
  return 0;
}
