// Ablation: the full log-combining family — §7's memoized-replay combining
// (Figure 4 bottom) plus §9's future-work extensions to snapshot replays and
// undo logs, all implemented and measured here. Replay/undo cost is
// proportional to operations without combining and to distinct touched keys
// with it, so the win grows with o and shrinks with key range.
#include <cstdio>

#include "bench_util/adapters.hpp"
#include "bench_util/cli.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/table.hpp"
#include "core/lazy_trie_map.hpp"
#include "core/txn_hash_map.hpp"

using namespace proust;
using namespace proust::bench;

namespace {

/// Adapter for the snapshot map with the combining switch.
class LazySnapCombiningAdapter
    : public StmAdapterBase<
          LazySnapCombiningAdapter,
          core::LazyTrieMap<long, long, core::OptimisticLap<long>>> {
  using Lap = core::OptimisticLap<long>;
  using Map = core::LazyTrieMap<long, long, Lap>;

 public:
  LazySnapCombiningAdapter(stm::Mode mode, std::size_t ca, bool combine)
      : StmAdapterBase(mode), lap_(stm_, ca), map_(lap_, combine),
        combine_(combine) {}
  std::string name() const {
    return combine_ ? "lazy-snap+c" : "lazy-snap";
  }
  Map& map() noexcept { return map_; }
  void prefill(long k, long v) { map_.unsafe_put(k, v); }

 private:
  Lap lap_;
  Map map_;
  bool combine_;
};

/// Adapter for the eager map with undo-log combining.
class EagerUndoCombiningAdapter
    : public StmAdapterBase<
          EagerUndoCombiningAdapter,
          core::TxnHashMap<long, long, core::OptimisticLap<long>>> {
  using Lap = core::OptimisticLap<long>;
  using Map = core::TxnHashMap<long, long, Lap>;

 public:
  EagerUndoCombiningAdapter(stm::Mode mode, std::size_t ca, bool combine)
      : StmAdapterBase(mode), lap_(stm_, ca), map_(lap_, 64, combine),
        combine_(combine) {}
  std::string name() const {
    return combine_ ? "eager-undo+c" : "eager-undo";
  }
  Map& map() noexcept { return map_; }
  void prefill(long k, long v) { map_.unsafe_put(k, v); }

 private:
  Lap lap_;
  Map map_;
  bool combine_;
};

template <class A>
void run_row(Table& table, A& a, RunConfig cfg) {
  prefill_half(a, cfg.key_range);
  const RunResult r = run_map_throughput(a, cfg);
  const double abort_pct = 100.0 * r.stats.abort_ratio();
  table.row({a.name(), std::to_string(cfg.ops_per_txn),
             std::to_string(cfg.key_range), Table::fmt(r.mean_ms, 1),
             Table::fmt(r.sd_ms, 1), Table::fmt(abort_pct, 1)});
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  RunConfig base;
  base.total_ops = cli.get_long("ops", 30000);
  base.write_fraction = cli.get_double("u", 1.0);  // updates stress the logs
  base.threads = static_cast<int>(cli.get_long("threads", 2));
  base.warmup_runs = 1;
  base.timed_runs = 2;
  const std::size_t ca = 1024;

  const auto txn_sizes = cli.get_longs("o", std::vector<long>{16, 64, 256});
  const auto key_ranges =
      cli.get_longs("key-range", std::vector<long>{32, 1024});

  std::printf("# Log-combining ablation (Fig. 4 bottom + Sec. 9 extensions): "
              "u=%.2f, t=%d, %ld ops\n",
              base.write_fraction, base.threads, base.total_ops);
  Table table({"impl", "o", "key-range", "ms", "sd", "abort%"});

  for (long o : txn_sizes) {
    for (long kr : key_ranges) {
      RunConfig cfg = base;
      cfg.ops_per_txn = static_cast<int>(o);
      cfg.key_range = kr;
      for (bool combine : {false, true}) {
        LazyMemoAdapter memo(stm::Mode::Lazy, ca, combine);
        run_row(table, memo, cfg);
      }
      for (bool combine : {false, true}) {
        LazySnapCombiningAdapter snap(stm::Mode::Lazy, ca, combine);
        run_row(table, snap, cfg);
      }
      for (bool combine : {false, true}) {
        EagerUndoCombiningAdapter undo(stm::Mode::EagerAll, ca, combine);
        run_row(table, undo, cfg);
      }
      std::printf("\n");
    }
  }
  return 0;
}
