// Figure 4 (bottom block): the log-combining optimization for memoizing
// shadow copies — replay one synthetic update per touched abstract-state
// element instead of the whole operation sequence. The win grows with o
// (more repeated writes per key) exactly as §7 predicts.
#include <cstdio>

#include "bench_util/adapters.hpp"
#include "bench_util/cli.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/table.hpp"

using namespace proust;
using namespace proust::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.has("full");

  RunConfig base;
  base.total_ops = cli.get_long("ops", full ? 1000000 : 30000);
  base.key_range = cli.get_long("key-range", 1024);
  base.warmup_runs = static_cast<int>(cli.get_long("warmup", full ? 10 : 1));
  base.timed_runs = static_cast<int>(cli.get_long("runs", full ? 10 : 2));
  const stm::Mode mode = cli.get_mode("mode", stm::Mode::Lazy);
  const std::size_t ca_slots =
      static_cast<std::size_t>(cli.get_long("ca-slots", 1024));

  const auto thread_counts = cli.get_longs(
      "threads",
      full ? std::vector<long>{1, 2, 4, 8, 16, 32} : std::vector<long>{1, 2, 4});
  // Combining matters for long transactions; small key ranges concentrate
  // repeated writes per key.
  const auto txn_sizes = cli.get_longs(
      "o", full ? std::vector<long>{16, 64, 256} : std::vector<long>{16, 256});
  const auto write_fracs =
      cli.get_doubles("u", full ? std::vector<double>{0.25, 0.5, 0.75, 1}
                                : std::vector<double>{0.5, 1});
  const long key_range_small = cli.get_long("combine-key-range", 64);

  std::printf("# Figure 4 (bottom): memoizing shadow copies, log combining "
              "on/off, %ld ops, STM mode %s\n",
              base.total_ops, stm::to_string(mode));
  Table table({"impl", "u", "o", "threads", "key-range", "ms", "sd",
               "abort%"});

  for (double u : write_fracs) {
    for (long o : txn_sizes) {
      for (long t : thread_counts) {
        for (long kr : {base.key_range, key_range_small}) {
          RunConfig cfg = base;
          cfg.write_fraction = u;
          cfg.ops_per_txn = static_cast<int>(o);
          cfg.threads = static_cast<int>(t);
          cfg.key_range = kr;
          for (bool combine : {false, true}) {
            LazyMemoAdapter a(mode, ca_slots, combine);
            prefill_half(a, cfg.key_range);
            const RunResult r = run_map_throughput(a, cfg);
            const double abort_pct = 100.0 * r.stats.abort_ratio();
            table.row({a.name(), Table::fmt(u, 2), std::to_string(o),
                       std::to_string(t), std::to_string(kr),
                       Table::fmt(r.mean_ms, 1), Table::fmt(r.sd_ms, 1),
                       Table::fmt(abort_pct, 1)});
          }
        }
      }
      std::printf("\n");
    }
  }
  return 0;
}
