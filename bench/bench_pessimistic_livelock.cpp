// §7's methodological note, reproduced: with only a weak coupling between
// abstract locks and the STM's contention manager, pessimistic Proust is
// prone to livelock as transactions grow (o > 1) under high contention —
// the reason the paper shows pessimistic results only at o = 1. Our runtime
// breaks cycles by timeout-abort, so instead of hanging we measure the
// timeout-abort rate exploding with o.
#include <cstdio>

#include "bench_util/adapters.hpp"
#include "bench_util/cli.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/table.hpp"

using namespace proust;
using namespace proust::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  RunConfig base;
  base.total_ops = cli.get_long("ops", 60000);
  base.key_range = cli.get_long("key-range", 16);  // high contention
  base.write_fraction = cli.get_double("u", 0.75);
  base.warmup_runs = 0;
  base.timed_runs = 1;

  const auto thread_counts =
      cli.get_longs("threads", std::vector<long>{2, 4, 8});
  const auto txn_sizes = cli.get_longs("o", std::vector<long>{1, 4, 16, 64});

  std::printf("# Pessimistic livelock study (§7 note): timeout-aborts vs o, "
              "u=%.2f, key range %ld\n",
              base.write_fraction, base.key_range);
  Table table({"impl", "o", "threads", "ms", "timeout-aborts", "per-txn"});

  for (long o : txn_sizes) {
    for (long t : thread_counts) {
      RunConfig cfg = base;
      cfg.ops_per_txn = static_cast<int>(o);
      cfg.threads = static_cast<int>(t);
      PessimisticAdapter a(stm::Mode::Lazy, 1024);
      prefill_half(a, cfg.key_range);
      const RunResult r = run_map_throughput(a, cfg);
      const std::uint64_t aborts = r.stats.total_aborts();
      const double per_txn =
          r.stats.commits ? static_cast<double>(aborts) /
                                static_cast<double>(r.stats.commits)
                          : 0;
      table.row({"proust-pess", std::to_string(o), std::to_string(t),
                 Table::fmt(r.mean_ms, 1), std::to_string(aborts),
                 Table::fmt(per_txn, 2)});
    }
    std::printf("\n");
  }

  std::printf("# For contrast: the optimistic LAP at the same settings\n");
  Table table2({"impl", "o", "threads", "ms", "aborts", "per-txn"});
  for (long o : txn_sizes) {
    for (long t : thread_counts) {
      RunConfig cfg = base;
      cfg.ops_per_txn = static_cast<int>(o);
      cfg.threads = static_cast<int>(t);
      EagerOptAdapter a(stm::Mode::Lazy, 1024);
      prefill_half(a, cfg.key_range);
      const RunResult r = run_map_throughput(a, cfg);
      const std::uint64_t aborts = r.stats.total_aborts();
      const double per_txn =
          r.stats.commits ? static_cast<double>(aborts) /
                                static_cast<double>(r.stats.commits)
                          : 0;
      table2.row({"proust-eager", std::to_string(o), std::to_string(t),
                  Table::fmt(r.mean_ms, 1), std::to_string(aborts),
                  Table::fmt(per_txn, 2)});
    }
  }
  return 0;
}
