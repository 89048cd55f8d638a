// Microbenchmarks of the raw STM engine: per-operation costs of reads,
// writes, commits and conflict-abstraction accesses in each mode. These
// quantify the constant factors under the Figure 4 curves.
//
// Two entry points:
//   default          — the google-benchmark suite below.
//   --json=<path>    — a deterministic fixed-iteration "trajectory" run with
//                      machine-readable output; BENCH_STM.json at the repo
//                      top level records these across PRs. --label=<str>
//                      tags the run (defaults to "current"). Two sections:
//                      the canonical single-thread workloads (read_only,
//                      write_heavy, read_modify_write, write_large) in every
//                      mode, and a multi-thread sweep (1/2/4/8/16 threads,
//                      override with --mt-threads=) of write workloads and a
//                      read-mostly base/MVCC sweep, which is what captures
//                      commit-path scaling rather than just constant factors.
//                      Every commit draws its write version from the one
//                      global clock (TL2 GV1); the former clock-scheme loop
//                      and its `mvcc_lazybump` config are gone.
//                      Multi-thread cells report the fastest of three
//                      per-worker-clocked runs after a warm-up run
//                      (bench::run_ops_timed).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/record.hpp"
#include "core/lap.hpp"
#include "stm/chaos.hpp"
#include "stm/stm.hpp"

using namespace proust;

static void BM_ReadOnlyTxn(benchmark::State& state) {
  stm::Stm stm(static_cast<stm::Mode>(state.range(0)));
  stm::Var<long> v(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stm.atomically([&](stm::Txn& tx) { return tx.read(v); }));
  }
}
BENCHMARK(BM_ReadOnlyTxn)->Arg(0)->Arg(1)->Arg(2);

static void BM_WriteTxn(benchmark::State& state) {
  stm::Stm stm(static_cast<stm::Mode>(state.range(0)));
  stm::Var<long> v(0);
  long i = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) { tx.write(v, ++i); });
  }
}
BENCHMARK(BM_WriteTxn)->Arg(0)->Arg(1)->Arg(2);

static void BM_ReadModifyWriteTxn(benchmark::State& state) {
  stm::Stm stm(static_cast<stm::Mode>(state.range(0)));
  stm::Var<long> v(0);
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) { tx.write(v, tx.read(v) + 1); });
  }
}
BENCHMARK(BM_ReadModifyWriteTxn)->Arg(0)->Arg(1)->Arg(2);

static void BM_TxnWithNVars(benchmark::State& state) {
  stm::Stm stm(stm::Mode::Lazy);
  std::vector<stm::Var<long>> vars(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      for (auto& v : vars) tx.write(v, tx.read(v) + 1);
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TxnWithNVars)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

static void BM_ConflictAbstractionAcquire(benchmark::State& state) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 1024);
  long k = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      lap.acquire(tx, ++k & 1023, /*write=*/true);
    });
  }
}
BENCHMARK(BM_ConflictAbstractionAcquire);

static void BM_PessimisticAbstractLockAcquire(benchmark::State& state) {
  stm::Stm stm(stm::Mode::Lazy);
  core::PessimisticLap<long> lap(stm, 1024);
  long k = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      lap.acquire(tx, ++k & 1023, /*write=*/true);
    });
  }
}
BENCHMARK(BM_PessimisticAbstractLockAcquire);

static void BM_TxnLocalCreation(benchmark::State& state) {
  stm::Stm stm(stm::Mode::Lazy);
  int key = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      benchmark::DoNotOptimize(tx.local<long>(&key, [] { return 1L; }));
    });
  }
}
BENCHMARK(BM_TxnLocalCreation);

// --- Deterministic trajectory run (--json) ---------------------------------

namespace {

/// Run `txns` transactions of `body`, each counting as `ops_per_txn`
/// accesses, and return accesses per second.
template <class Body>
double timed_txns(long txns, int ops_per_txn, Body&& body) {
  const auto start = std::chrono::steady_clock::now();
  for (long i = 0; i < txns; ++i) body(i);
  const auto stop = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(stop - start).count();
  return sec <= 0 ? 0.0
                  : static_cast<double>(txns) * ops_per_txn / sec;
}

struct Cell {
  const char* workload;
  int ops_per_txn;
  double write_fraction;
  double ops_per_sec;
};

Cell run_cell(stm::Stm& stm, const char* workload, long txns) {
  using stm::Txn;
  Cell cell{workload, 1, 0, 0};
  const long warmup = txns / 10 + 1;

  auto measure = [&](int ops_per_txn, double u, auto&& body) {
    for (long i = 0; i < warmup; ++i) body(i);
    stm.stats().reset();
    cell.ops_per_txn = ops_per_txn;
    cell.write_fraction = u;
    cell.ops_per_sec = timed_txns(txns, ops_per_txn, body);
  };

  if (std::string_view(workload) == "read_only") {
    stm::Var<long> v(7);
    long sink = 0;
    measure(1, 0.0, [&](long) {
      sink += stm.atomically([&](Txn& tx) { return tx.read(v); });
    });
    if (sink == 42) std::printf("#");  // defeat dead-code elimination
  } else if (std::string_view(workload) == "write_heavy") {
    std::vector<stm::Var<long>> vars(8);
    measure(8, 1.0, [&](long i) {
      stm.atomically([&](Txn& tx) {
        for (auto& v : vars) tx.write(v, i);
      });
    });
  } else if (std::string_view(workload) == "read_modify_write") {
    stm::Var<long> v(0);
    measure(2, 0.5, [&](long) {
      stm.atomically([&](Txn& tx) { tx.write(v, tx.read(v) + 1); });
    });
  } else {  // write_large: 64 distinct vars, exercising the flat-table tier
    std::vector<stm::Var<long>> vars(64);
    measure(64, 1.0, [&](long i) {
      stm.atomically([&](Txn& tx) {
        for (auto& v : vars) tx.write(v, i);
      });
    });
  }
  return cell;
}

// --- Multi-thread sweep ------------------------------------------------------

/// Runs `body(t, rng)` as one transaction on each of `threads` workers,
/// `total_txns` split evenly, through the shared per-worker-clocked harness:
/// one warm-up run, then the STM stats are reset and three timed runs
/// follow. Returns a record whose ops_per_sec counts accesses per second of
/// the fastest timed run.
template <class Body>
bench::Record mt_record(stm::Stm& stm, int threads, long total_txns,
                        int ops_per_txn, std::uint64_t seed, Body&& body) {
  const long iters = std::max(1L, total_txns / threads);
  const bench::TimedRuns runs = bench::run_ops_timed(
      threads, iters, /*warmup_runs=*/1, /*timed_runs=*/3, seed, {}, body,
      [&] { stm.stats().reset(); });
  bench::Record rec;
  rec.family = "stm";
  rec.threads = threads;
  rec.ops_per_txn = ops_per_txn;
  rec.with_times(runs, iters * threads * ops_per_txn)
      .with_stats(stm.stats().snapshot());
  return rec;
}

struct MtSpec {
  const char* workload;
  stm::Mode mode;
  int ops_per_txn;
  long total_txns;
};

/// One (workload, mode, threads) cell of the multi-thread sweep. Workloads
/// are write-shaped on purpose: writing commits are the only transactions
/// that touch the global clock, so they are where commit-path scaling shows
/// up.
///   mt_write_heavy    — every txn writes the same 8 shared vars (w/w
///                       contention plus clock traffic)
///   mt_disjoint_write — each thread writes its own 8 vars (the clock is the
///                       only shared word: isolates commit-path overhead)
///   mt_counter        — single shared read-modify-write counter (maximum
///                       data contention; clock traffic is second-order)
bench::Record run_mt_cell(const MtSpec& spec, int threads,
                          stm::ChaosPolicy* chaos) {
  stm::StmOptions opts;
  opts.chaos = chaos;
  stm::Stm stm(spec.mode, opts);

  std::vector<stm::Var<long>> shared(8);
  std::vector<std::vector<stm::Var<long>>> mine(threads);
  for (auto& v : mine) v = std::vector<stm::Var<long>>(8);
  stm::Var<long> counter(0);

  auto body = [&](int t, Xoshiro256& rng) {
    const long i = static_cast<long>(rng());
    if (std::string_view(spec.workload) == "mt_write_heavy") {
      stm.atomically([&](stm::Txn& tx) {
        for (auto& v : shared) tx.write(v, i);
      });
    } else if (std::string_view(spec.workload) == "mt_disjoint_write") {
      stm.atomically([&](stm::Txn& tx) {
        for (auto& v : mine[t]) tx.write(v, i);
      });
    } else {  // mt_counter
      stm.atomically(
          [&](stm::Txn& tx) { tx.write(counter, tx.read(counter) + 1); });
    }
  };

  bench::Record rec = mt_record(stm, threads, spec.total_txns,
                                spec.ops_per_txn, /*seed=*/1, body);
  rec.bench = "micro_stm_mt";
  rec.impl = rec.workload = spec.workload;
  rec.mode = stm::to_string(spec.mode);
  rec.write_fraction =
      std::string_view(spec.workload) == "mt_counter" ? 0.5 : 1.0;
  return rec;
}

// --- Read-mostly sweep (MVCC snapshot reads vs. base) -----------------------

/// One (config, update-ratio, threads) cell of the read-mostly sweep. Each
/// transaction touches 8 of 64 shared vars; an `update_pct`% fraction are
/// read-modify-write transactions, the rest are pure reads. Under mvcc the
/// readers go through atomically_ro (snapshot reads: no read set, no
/// validation, no aborts); the base config runs the same workload through
/// plain TL2 reads. Stats are always attached so the abort-reason breakdown
/// (and the mvcc ro_commits/pushed/reclaimed counters) land in the JSON.
bench::Record run_ro_cell(const char* cfg_name, bool mvcc, int update_pct,
                          int threads, long total_txns,
                          stm::ChaosPolicy* chaos) {
  stm::StmOptions opts;
  opts.chaos = chaos;
  opts.mvcc = mvcc;
  stm::Stm stm(stm::Mode::Lazy, opts);

  constexpr int kVars = 64;
  constexpr int kTouched = 8;
  std::vector<stm::Var<long>> vars(kVars);
  std::vector<long> sinks(static_cast<std::size_t>(threads), 0);

  auto body = [&](int t, Xoshiro256& rng) {
    if (static_cast<int>(rng.below(100)) < update_pct) {
      stm.atomically([&](stm::Txn& tx) {
        for (int j = 0; j < kTouched; ++j) {
          auto& v = vars[rng.below(kVars)];
          tx.write(v, tx.read(v) + 1);
        }
      });
      return;
    }
    auto reader = [&](stm::Txn& tx) {
      long s = 0;
      for (int j = 0; j < kTouched; ++j) s += tx.read(vars[rng.below(kVars)]);
      return s;
    };
    sinks[static_cast<std::size_t>(t)] +=
        mvcc ? stm.atomically_ro(reader) : stm.atomically(reader);
  };

  bench::Record rec =
      mt_record(stm, threads, total_txns, kTouched,
                /*seed=*/static_cast<std::uint64_t>(update_pct) + 1, body);
  if (sinks[0] == 0x5EED) std::printf("#");  // defeat dead-code elimination
  rec.bench = "micro_stm_ro";
  rec.impl = cfg_name;
  rec.workload = std::string("mt_read_mostly_") + cfg_name;
  rec.mode = stm::to_string(stm::Mode::Lazy);
  rec.write_fraction = static_cast<double>(update_pct) / 100.0;
  rec.extra = update_pct;
  return rec;
}

int run_trajectory(const bench::Cli& cli) {
  const std::string path = cli.get("json", "BENCH_STM.json");
  const std::string label = cli.get("label", "current");
  const long scale = cli.get_long("scale", 1);

  // --chaos-seed=N runs the whole trajectory under deterministic fault
  // injection (stm/chaos.hpp) and attaches the per-point injected counters
  // to every record ("injected": {...}). Not for the tracked BENCH_STM.json
  // numbers — for measuring the overhead envelope of a chaos config and for
  // sanity-checking that injection counts reproduce for a given seed.
  std::unique_ptr<stm::ChaosPolicy> chaos;
  if (cli.has("chaos-seed")) {
    chaos = std::make_unique<stm::ChaosPolicy>(stm::ChaosConfig::standard(
        static_cast<std::uint64_t>(cli.get_long("chaos-seed", 1))));
    chaos->install_lock_hook();
  }
  stm::StmOptions base_opts;
  base_opts.chaos = chaos.get();

  struct Spec {
    const char* workload;
    long txns;
  };
  const Spec specs[] = {
      {"read_only", 2000000 * scale},
      {"write_heavy", 400000 * scale},
      {"read_modify_write", 1000000 * scale},
      {"write_large", 50000 * scale},
  };
  const stm::Mode modes[] = {stm::Mode::Lazy, stm::Mode::EagerWrite,
                             stm::Mode::EagerAll};

  bench::Report report(label);
  report.table({"workload", "mode", "ops_per_txn", "ops_per_sec",
                "abort_ratio"});
  for (const Spec& spec : specs) {
    for (stm::Mode mode : modes) {
      stm::Stm stm(mode, base_opts);
      const Cell cell = run_cell(stm, spec.workload, spec.txns);
      bench::Record rec;
      rec.bench = "micro_stm";
      rec.family = "stm";
      rec.impl = rec.workload = cell.workload;
      rec.mode = stm::to_string(mode);
      rec.ops_per_txn = cell.ops_per_txn;
      rec.write_fraction = cell.write_fraction;
      rec.with_stats(stm.stats().snapshot());
      rec.ops_per_sec = cell.ops_per_sec;
      report.add(std::move(rec));
    }
  }

  // Thread sweep over write-shaped workloads.
  const auto mt_threads =
      cli.get_longs("mt-threads", std::vector<long>{1, 2, 4, 8, 16});
  const MtSpec mt_specs[] = {
      {"mt_write_heavy", stm::Mode::Lazy, 8, 120000 * scale},
      {"mt_write_heavy", stm::Mode::EagerWrite, 8, 120000 * scale},
      {"mt_disjoint_write", stm::Mode::Lazy, 8, 120000 * scale},
      {"mt_disjoint_write", stm::Mode::EagerWrite, 8, 120000 * scale},
      {"mt_counter", stm::Mode::Lazy, 2, 120000 * scale},
  };
  report.table({"workload", "mode", "threads", "ops_per_sec",
                "abort_ratio"});
  for (const MtSpec& spec : mt_specs) {
    for (long t : mt_threads) {
      report.add(run_mt_cell(spec, static_cast<int>(t), chaos.get()));
    }
  }

  // Read-mostly sweep: update ratio x threads x {base TL2, mvcc snapshot
  // reads}. This is the headline MVCC cell: at low update ratios the
  // snapshot config should show a near-zero abort ratio with writers still
  // running.
  struct RoCfg {
    const char* name;
    bool mvcc;
  };
  const RoCfg ro_cfgs[] = {{"base", false}, {"mvcc", true}};
  const int update_pcts[] = {0, 2, 10, 50};
  report.table({"impl", "write_fraction", "threads", "ops_per_sec",
                "abort_ratio", "ro_commits"});
  for (const RoCfg& cfg : ro_cfgs) {
    for (int u : update_pcts) {
      for (long t : mt_threads) {
        report.add(run_ro_cell(cfg.name, cfg.mvcc, u, static_cast<int>(t),
                               120000 * scale, chaos.get()));
      }
    }
  }

  if (!report.write("", path)) return 1;
  std::printf("label: %s\n", label.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv);
  if (cli.has("json")) return run_trajectory(cli);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
