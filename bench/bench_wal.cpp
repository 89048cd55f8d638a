// Group-commit latency/throughput sweep for the durability axis (DESIGN.md
// §14): threads × durability {off, relaxed, strict} × fsync_every_n
// {1, 8, 64}, each cell timing transactions that write one var and log a
// 64-byte redo record. `off` cells run the identical workload with no Wal
// attached, so the sweep shows the cost of the subsystem itself, the cost
// of relaxed appends, and the fsync-bounded strict ack (whose mean wait is
// reported from the wal_wait_ns stats counter).
//
// --recovery: the bounded-restart sweep for the checkpoint layer (DESIGN.md
// §15). History length is swept as a multiplier over a fixed live-state
// size, with the checkpointer off vs taking periodic cuts; the measured
// quantity is cold recovery time of the resulting directory. Without
// checkpoints recovery cost grows with the multiplier; with them it tracks
// live state + the unretired tail, which is the layer's contract.
//
// --ab: the default-neutrality check (same discipline as the scenario
// matrix's pinning A/B). A = stock StmOptions. B = a live Wal *attached but
// never logged to* — every commit takes the compiled-in durability
// branches, nothing is staged or published. With --ckpt, B additionally
// runs a live background Checkpointer parked on the log, so the cell
// prices the checkpoint layer's whole non-participant surface: the
// wal_fenced predicate every commit now evaluates plus the idle
// checkpointer thread. Paired-interleaved runs; the acceptance bar is
// min-time ratio >= 0.97.
//
// Every cell is one bench::Record (bench_util/record.hpp): a text row, and
// with --csv/--json a CSV row and a JSON object in the same schema as the
// scenario matrix, host topology included, so output from different
// machines stays comparable. `extra` is fsync_every_n in the sweep and the
// history multiplier in --recovery.
//
// Segments land in a scratch directory under the working directory and are
// removed on exit.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_util/adapters.hpp"
#include "bench_util/cli.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/record.hpp"
#include "common/rng.hpp"
#include "stm/checkpoint.hpp"
#include "stm/stm.hpp"
#include "stm/wal.hpp"

using namespace proust;
using bench::Cli;
using bench::Record;
using bench::Report;
using bench::RunConfig;
using bench::TimedRuns;

namespace {

struct Scratch {
  std::string path;
  explicit Scratch(const std::string& tag)
      : path("bench_wal_" + tag + "_" + std::to_string(::getpid())) {
    std::error_code ec;
    std::filesystem::create_directory(path, ec);
  }
  ~Scratch() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string sub(const std::string& name) const { return path + "/" + name; }
};

struct SweepCtx {
  long ops = 0;
  int warmup = 0;
  int runs = 1;
  Report* report = nullptr;
};

/// A record of this driver's `workload` in durability `mode`.
Record wal_record(const std::string& workload, const std::string& mode,
                  int threads) {
  Record r;
  r.bench = "wal";
  r.family = "wal";
  r.impl = r.workload = workload;
  r.mode = mode;
  r.threads = threads;
  return r;
}

/// One sweep cell: `threads` workers, each transaction writes its thread's
/// var and (when `wal` is attached) logs a 64-byte record.
void run_cell(SweepCtx& ctx, const std::string& durability, long fsync_n,
              int threads, stm::Wal* wal) {
  stm::StmOptions opts;
  opts.durability = wal;
  stm::Stm s(stm::Mode::Lazy, opts);
  std::vector<stm::Var<long>> vars(static_cast<std::size_t>(threads));
  std::uint8_t payload[64] = {};
  const long iters = (ctx.ops + threads - 1) / threads;
  const TimedRuns t = bench::run_ops_timed(
      threads, iters, ctx.warmup, ctx.runs, /*seed=*/131, /*pin_plan=*/{},
      [&](int w, Xoshiro256& rng) {
        const long v = static_cast<long>(rng());
        s.atomically([&](stm::Txn& tx) {
          vars[static_cast<std::size_t>(w)].write(tx, v);
          if (wal != nullptr) {
            std::memcpy(payload, &v, sizeof v);
            tx.wal_log(/*stream=*/1, payload, sizeof payload);
          }
        });
      },
      [&] { s.stats().reset(); });
  if (wal != nullptr) wal->flush();

  Record r = wal_record("group_commit", durability, threads);
  r.extra = fsync_n > 0 ? fsync_n : -1;
  ctx.report->add(std::move(
      r.with_times(t, iters * threads).with_stats(s.stats().snapshot())));
}

int run_sweep(const Cli& cli, Report& report) {
  const bool smoke = cli.has("smoke");
  Scratch scratch("sweep");
  SweepCtx ctx;
  ctx.ops = cli.get_long("ops", smoke ? 2000 : 40000);
  ctx.warmup = static_cast<int>(cli.get_long("warmup", smoke ? 0 : 1));
  ctx.runs = static_cast<int>(cli.get_long("runs", smoke ? 1 : 5));
  ctx.report = &report;
  const auto thread_counts = cli.get_longs(
      "threads", smoke ? std::vector<long>{1, 2} : std::vector<long>{1, 2, 4});
  const auto fsync_ns = cli.get_longs("fsync-n", std::vector<long>{1, 8, 64});

  std::printf("# wal sweep: ops=%ld runs=%d %s\n", ctx.ops, ctx.runs,
              smoke ? "(smoke)" : "");
  report.table({"mode", "extra", "threads", "min_ms", "ops_per_sec",
                "ack_us"});
  int cell = 0;
  for (long t : thread_counts) {
    run_cell(ctx, "off", 0, static_cast<int>(t), nullptr);
    for (const char* dur : {"relaxed", "strict"}) {
      for (long n : fsync_ns) {
        stm::WalOptions wopts;
        wopts.dir = scratch.sub("c" + std::to_string(cell++));
        wopts.fsync_every_n = static_cast<std::uint32_t>(n);
        wopts.durability = std::string(dur) == "strict"
                               ? stm::WalDurability::Strict
                               : stm::WalDurability::Relaxed;
        stm::Wal wal(wopts);
        run_cell(ctx, dur, n, static_cast<int>(t), &wal);
      }
    }
  }
  return 0;
}

/// Cold recovery time vs history length, checkpointer off vs periodic cuts.
/// Live state is fixed (kVars registered vars); history is `mult × base`
/// updates over them. With cuts every `base` records the replayed tail is
/// bounded by `base` however long the history grows.
int run_recovery(const Cli& cli, Report& report) {
  const bool smoke = cli.has("smoke");
  constexpr int kVars = 32;
  const long base = cli.get_long("ops", smoke ? 1500 : 6000);
  const int runs = static_cast<int>(cli.get_long("runs", smoke ? 2 : 5));
  const auto mults = cli.get_longs(
      "mult", smoke ? std::vector<long>{1, 4} : std::vector<long>{1, 4, 16});

  Scratch scratch("recovery");
  std::printf("# wal recovery: base=%ld ops, %d timed recoveries (min) %s\n",
              base, runs, smoke ? "(smoke)" : "");
  report.table({"mode", "extra", "total_ops", "wal_segments", "wal_replayed",
                "min_ms", "ops_per_sec"});
  int cell = 0;
  for (const bool ckpt_on : {false, true}) {
    for (long mult : mults) {
      const std::string dir = scratch.sub("r" + std::to_string(cell++));
      const long history = base * mult;
      {
        std::vector<stm::Var<long>> vars(kVars);
        stm::WalOptions wopts;
        wopts.dir = dir;
        wopts.segment_bytes = 16 * 1024;  // rotations every few hundred recs
        wopts.fsync_every_n = 64;
        stm::Wal wal(wopts);
        for (int i = 0; i < kVars; ++i) {
          wal.register_var(static_cast<std::uint64_t>(i + 1),
                           vars[static_cast<std::size_t>(i)]);
        }
        stm::StmOptions opts;
        opts.durability = &wal;
        stm::Stm s(stm::Mode::Lazy, opts);
        stm::CheckpointOptions copts;  // both triggers 0: manual cuts only,
        stm::Checkpointer cp(wal, copts);  // so the tail is deterministic
        for (long j = 1; j <= history; ++j) {
          s.atomically([&](stm::Txn& tx) {
            vars[static_cast<std::size_t>(j % kVars)].write(tx, j);
          });
          // Periodic cuts, but never right at the end — recovery always
          // has a non-empty tail to replay atop the newest checkpoint. The
          // flush first drains the committer so the covered history sits in
          // *sealed* segments, which is what retirement can unlink.
          if (ckpt_on && j % base == 0 && j != history) {
            wal.flush();
            (void)cp.checkpoint_now();
          }
        }
        wal.flush();
      }
      // Cold restart: recover the directory into a fold, timed.
      double min_ms = 0;
      long sink = 0;
      stm::WalRecoveryInfo info;
      for (int r = 0; r < runs; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        info = stm::Wal::recover(dir, [&](const stm::WalRecordView& v) {
          sink += static_cast<long>(v.epoch) + static_cast<long>(v.size);
        });
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        if (r == 0 || ms < min_ms) min_ms = ms;
      }
      if (sink == 42) std::printf("#");  // keep the fold from being elided
      // History ops covered per second of restart: with cuts this grows
      // with the multiplier (bounded replay), without it stays flat.
      Record r = wal_record("recovery", ckpt_on ? "ckpt" : "no-ckpt", 1);
      r.extra = mult;
      r.wal_segments = static_cast<long>(info.segments);
      r.wal_replayed = static_cast<long>(info.records);
      report.add(std::move(r.with_times(TimedRuns{min_ms, 0, min_ms}, history)));
    }
  }
  return 0;
}

int run_neutrality_ab(const Cli& cli, Report& report) {
  RunConfig cfg;
  cfg.total_ops = cli.get_long("ops", 200000);
  cfg.key_range = cli.get_long("key-range", 1024);
  cfg.ops_per_txn = static_cast<int>(cli.get_long("o", 4));
  cfg.warmup_runs = static_cast<int>(cli.get_long("warmup", 2));
  cfg.timed_runs = static_cast<int>(cli.get_long("runs", 7));
  const stm::Mode mode = bench::parse_mode(cli.get("mode", "lazy"));
  const bool with_ckpt = cli.has("ckpt");
  const char* b_name = with_ckpt ? "ab-ckpt-idle" : "ab-wal-idle";

  Scratch scratch("ab");
  stm::WalOptions wopts;
  wopts.dir = scratch.sub("idle");
  stm::Wal wal(wopts);
  // --ckpt: park a live background Checkpointer on the attached log (no
  // triggers; its thread sleeps between polls). No var is registered and
  // nothing is ever logged, so B prices exactly what PR 10 added for
  // commits that do not log: the wal_fenced predicate on the commit path
  // plus the checkpointer's existence. The fence bracket itself is only
  // taken by logging commits — its cost is part of the durability feature
  // and shows up in the group-commit sweep, not here.
  std::unique_ptr<stm::Checkpointer> cp;
  if (with_ckpt) {
    cp = std::make_unique<stm::Checkpointer>(wal, stm::CheckpointOptions{});
  }
  stm::StmOptions with;
  with.durability = &wal;  // attached, never logged to

  std::printf("# neutrality A/B: defaults vs %s, "
              "paired-interleaved, %d runs (min)\n", b_name, cfg.timed_runs);
  report.table({"workload", "write_fraction", "threads", "min_ms",
                "abort_ratio"});
  for (double u : cli.get_doubles("u", std::vector<double>{0, 0.5})) {
    for (long t : cli.get_longs("threads", std::vector<long>{1, 2})) {
      cfg.write_fraction = u;
      cfg.threads = static_cast<int>(t);
      bench::PureStmAdapter off(mode, cfg.key_range, stm::StmOptions{});
      bench::PureStmAdapter on(mode, cfg.key_range, with);
      bench::prefill_half(off, cfg.key_range);
      bench::prefill_half(on, cfg.key_range);
      const auto rs = bench::run_map_throughput(
          std::vector<bench::PureStmAdapter*>{&off, &on}, cfg);
      for (std::size_t i = 0; i < rs.size(); ++i) {
        Record r = wal_record(i == 0 ? "ab-defaults" : b_name,
                              stm::to_string(mode), static_cast<int>(t));
        r.ops_per_txn = cfg.ops_per_txn;
        r.write_fraction = u;
        report.add(std::move(
            r.with_times(rs[i], cfg.total_ops).with_stats(rs[i].stats)));
      }
      std::printf("# wal/off min-time ratio: %.3f\n",
                  rs[1].min_ms / rs[0].min_ms);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  Report report(cli.get("label", "wal"));
  const int rc = cli.has("ab")         ? run_neutrality_ab(cli, report)
                 : cli.has("recovery") ? run_recovery(cli, report)
                                       : run_sweep(cli, report);
  if (rc != 0) return rc;
  return report.write(cli.get("csv", ""), cli.get("json", "")) ? 0 : 1;
}
