// Ablation over the full Figure 1 design space: every (wrapper strategy ×
// LAP × STM conflict-detection mode) combination that makes sense, on one
// fixed workload. This is the "mix and match" capability the paper claims
// over Boosting/Predication/OTB, measured.
#include <cstdio>

#include "bench_util/adapters.hpp"
#include "bench_util/cli.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/table.hpp"

using namespace proust;
using namespace proust::bench;

namespace {
template <class Adapter>
void run_row(Table& table, const std::string& impl, stm::Mode mode,
             Adapter& a, RunConfig cfg) {
  prefill_half(a, cfg.key_range);
  const RunResult r = run_map_throughput(a, cfg);
  const double abort_pct = 100.0 * r.stats.abort_ratio();
  table.row({impl, stm::to_string(mode), Table::fmt(r.mean_ms, 1),
             Table::fmt(r.sd_ms, 1), Table::fmt(abort_pct, 1)});
}
}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  RunConfig cfg;
  cfg.total_ops = cli.get_long("ops", 20000);
  cfg.key_range = cli.get_long("key-range", 1024);
  cfg.write_fraction = cli.get_double("u", 0.5);
  cfg.threads = static_cast<int>(cli.get_long("threads", 4));
  cfg.ops_per_txn = static_cast<int>(cli.get_long("o", 8));
  cfg.warmup_runs = 1;
  cfg.timed_runs = 2;
  const std::size_t ca = 1024;

  std::printf("# Design-space ablation (Fig. 1): strategy x LAP x STM mode "
              "(u=%.2f, o=%d, t=%d)\n",
              cfg.write_fraction, cfg.ops_per_txn, cfg.threads);
  std::printf("# note: eager/optimistic rows on Lazy/EagerWrite are the "
              "non-opaque combination (footnote 3) — shown for the same "
              "reason the paper benchmarked them anyway\n");
  Table table({"impl", "stm-mode", "ms", "sd", "abort%"});

  const stm::Mode modes[] = {stm::Mode::Lazy, stm::Mode::EagerWrite,
                             stm::Mode::EagerAll};

  for (stm::Mode mode : modes) {
    {
      EagerOptAdapter a(mode, ca);
      run_row(table, "eager/optimistic", mode, a, cfg);
    }
    {
      LazySnapshotAdapter a(mode, ca);
      run_row(table, "lazy-snap/optimistic", mode, a, cfg);
    }
    {
      LazyMemoAdapter a(mode, ca, false);
      run_row(table, "lazy-memo/optimistic", mode, a, cfg);
    }
    {
      LazyMemoAdapter a(mode, ca, true);
      run_row(table, "lazy-memo+c/optimistic", mode, a, cfg);
    }
    {
      PureStmAdapter a(mode, cfg.key_range);
      run_row(table, "pure-stm", mode, a, cfg);
    }
    {
      PredicationAdapter a(mode);
      run_row(table, "predication", mode, a, cfg);
    }
    std::printf("\n");
  }
  // Pessimistic rows (the STM mode only affects the reified size ref, so one
  // row suffices; o is kept small to avoid the livelock regime).
  {
    RunConfig pess_cfg = cfg;
    pess_cfg.ops_per_txn = 1;
    PessimisticAdapter a(stm::Mode::Lazy, ca);
    run_row(table, "eager/pessimistic(o=1)", stm::Mode::Lazy, a, pess_cfg);
  }
  return 0;
}
