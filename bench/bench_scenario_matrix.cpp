// The one bench driver for the paper's evaluation space: a Synchrobench-style
// sweep over implementation × update ratio × key range × Zipfian skew ×
// transaction length × range-scan mix × CA size M × log combining × CM
// policy × read path × operation mix × thread count × pinning policy, in
// five workload families:
//
//   map     — the §7 hash-map comparison (every adapters.hpp config) on the
//             per-worker-timed map harness;
//   ordered — TxnOrderedMap interval CA vs coarse (M=1) vs pure-STM treap
//             vs global-lock std::map, with range scans in the mix (§1);
//   pqueue  — the §6 priority queue (abstract-state CA, group-lock
//             pessimistic, boosting's 1-RW-lock approximation, lazy COW);
//   counter — the §3 counter CA vs a one-Var pure-STM counter;
//   overlap — the §1 false-conflict claim: two threads run lock-step
//             transactions that meet inside the transaction before
//             committing, over disjoint (commuting: every abort is a false
//             conflict) or identical key sets.
//
// Each paper table is a named --preset: a data row listing the families,
// impls, axis values and the record fields its text table shows (see
// kPresets; --preset=list prints the names). Axis flags (--threads, --u,
// --o, --key-range, --zipf, --scan-frac, --scan-width, --ca-slots, --mode,
// --pin, --families) override a preset's values. Every cell emits one
// bench::Record: a text row, and with --csv/--json a CSV row and a JSON
// object carrying min/mean/sd of the timed runs plus the STM stats.
//
// --smoke shrinks a preset to CI scale (few ops, one timed run, the first
// two thread counts) while still visiting every impl and every axis value.
// An axis an impl or family ignores (e.g. M for pure-stm, combining for a
// pessimistic map) is not swept for it: it runs once, and its record field
// reads as not applicable.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/adapters.hpp"
#include "bench_util/cli.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/record.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "core/lap.hpp"
#include "core/lazy_pqueue.hpp"
#include "core/txn_counter.hpp"
#include "core/txn_ordered_map.hpp"
#include "core/txn_pqueue.hpp"
#include "stm/stm.hpp"

using namespace proust;
using bench::Cli;
using bench::Record;
using bench::Report;
using bench::RunConfig;
using bench::TimedRuns;

namespace {

// ---------------------------------------------------------------------------
// Axes, families and presets.
// ---------------------------------------------------------------------------

enum Axis : unsigned {
  kMode = 1u << 0,
  kCm = 1u << 1,
  kReadPath = 1u << 2,
  kCa = 1u << 3,
  kCombine = 1u << 4,
  kU = 1u << 5,
  kKeys = 1u << 6,
  kZipf = 1u << 7,
  kO = 1u << 8,
  kScan = 1u << 9,  // scan fraction and width
  kMix = 1u << 10,
  kThreads = 1u << 11,
};

/// Axis values; an empty axis takes its default (resolve_axes).
struct Axes {
  std::vector<std::string> families{}, impls{}, modes{}, pins{};
  std::vector<long> threads{};
  std::vector<double> us{};
  std::vector<long> key_ranges{};
  std::vector<double> zipfs{};
  std::vector<long> os{}, ca_slots{}, combines{};
  std::vector<std::string> cms{}, read_paths{};
  std::vector<double> scan_fracs{};
  std::vector<long> scan_widths{};
  std::vector<std::string> mixes{};
};

struct Preset {
  const char* name;
  const char* bench;     // Record::bench, the trajectory's record set
  const char* title;
  const char* workload;  // Record::workload pattern (Record::format)
  std::vector<std::string> columns;  // record fields of the text table
  Axes axes;
  long ops;  // per timed run (overlap: lock-step trials)
  int warmup;
  int runs;
  bool pess_o1 = false;  // pessimistic-LAP maps only at o = 1 (§7)
  bool prefill_all = false;  // map family: every key present, not half
  Axes smoke = {};       // axis values replaced under --smoke
};

const Preset kPresets[] = {
    {.name = "matrix",
     .bench = "scenario_matrix",
     .title = "scenario matrix: map/ordered/pqueue x u x keys x zipf x o x "
              "scans x threads x pinning",
     .workload = "{family}/{impl}",
     .columns = {"family", "impl", "threads", "write_fraction", "pin",
                 "min_ms", "abort_ratio"},
     .axes = {.families = {"map", "ordered", "pqueue"},
              .pins = {"none", "compact", "scatter"},
              .threads = {1, 2, 4, 8},
              .us = {0, 0.25, 0.5, 0.75, 1},
              .key_ranges = {256, 4096},
              .zipfs = {0, 0.9},
              .os = {1, 4, 64},
              .combines = {0, 1},
              .scan_fracs = {0.1, 0.3},
              .scan_widths = {64, 512}},
     .ops = 100000,
     .warmup = 2,
     .runs = 5,
     .smoke = {.pins = {"none", "compact"},
               .us = {0, 0.5, 1},
               .key_ranges = {128},
               .os = {1, 4},
               .scan_fracs = {0.2},
               .scan_widths = {32}}},
    {.name = "fig4",
     .bench = "fig4_map_throughput",
     .title = "Figure 4 (top): map throughput vs threads per (u, o); "
              "pessimistic only at o=1 as in §7",
     .workload = "{impl}",
     .columns = {"impl", "write_fraction", "ops_per_txn", "threads",
                 "mean_ms", "sd_ms", "min_ms", "abort_ratio"},
     .axes = {.families = {"map"},
              .impls = {"pure-stm", "predication", "proust-eager",
                        "proust-lazy-snap", "proust-lazy-memo", "proust-pess",
                        "global-lock"},
              .threads = {1, 2, 4, 8, 16},
              .us = {0, 0.5, 1},
              .os = {1, 16, 256}},
     .ops = 30000,
     .warmup = 1,
     .runs = 2,
     .pess_o1 = true},
    {.name = "fig4-full",
     .bench = "fig4_map_throughput",
     .title = "Figure 4 (top), the paper's grid: 1M ops, t in 1..32",
     .workload = "{impl}",
     .columns = {"impl", "write_fraction", "ops_per_txn", "threads",
                 "mean_ms", "sd_ms", "min_ms", "abort_ratio"},
     .axes = {.families = {"map"},
              .impls = {"pure-stm", "predication", "proust-eager",
                        "proust-lazy-snap", "proust-lazy-memo", "proust-pess",
                        "global-lock"},
              .threads = {1, 2, 4, 8, 16, 32},
              .us = {0, 0.25, 0.5, 0.75, 1},
              .os = {1, 2, 16, 256}},
     .ops = 1000000,
     .warmup = 10,
     .runs = 10,
     .pess_o1 = true},
    {.name = "fig4-memo",
     .bench = "fig4_memoizing",
     .title = "Figure 4 (bottom): memoizing shadow copies, log combining "
              "on/off",
     .workload = "{impl}",
     .columns = {"impl", "write_fraction", "ops_per_txn", "threads",
                 "key_range", "mean_ms", "sd_ms", "abort_ratio"},
     .axes = {.families = {"map"},
              .impls = {"proust-lazy-memo"},
              .threads = {1, 2, 4},
              .us = {0.5, 1},
              .key_ranges = {1024, 64},
              .os = {16, 256},
              .combines = {0, 1}},
     .ops = 30000,
     .warmup = 1,
     .runs = 2},
    {.name = "pess-sweep",
     .bench = "pess_sweep",
     .title = "pessimistic-LAP thread sweep: eager inverses vs lazy memo "
              "replay over the abstract locks, o=1",
     .workload = "{impl}",
     .columns = {"impl", "write_fraction", "ops_per_txn", "threads",
                 "mean_ms", "sd_ms", "abort_ratio"},
     .axes = {.families = {"map"},
              .impls = {"proust-pess", "proust-pess-lazy"},
              .threads = {1, 2, 4, 8, 16},
              .us = {0.5, 1},
              .os = {1}},
     .ops = 30000,
     .warmup = 1,
     .runs = 3},
    {.name = "read-sweep",
     .bench = "read_sweep",
     .title = "read-path sweep: locked vs optimistic wrapper reads, "
              "paired-interleaved runs",
     .workload = "{impl}[{read_path}]",
     .columns = {"workload", "write_fraction", "ops_per_txn", "threads",
                 "mean_ms", "sd_ms", "min_ms", "abort_ratio"},
     .axes = {.families = {"map"},
              .impls = {"proust-pess"},
              .threads = {1, 2, 4},
              .us = {0, 0.1, 0.2},
              .os = {8},
              .read_paths = {"locked", "optimistic"}},
     .ops = 30000,
     .warmup = 1,
     .runs = 3},
    {.name = "read-sweep-hit",
     .bench = "read_sweep",
     .title = "read-path sweep with every key present, so lookups always "
              "hit (the YCSB-C shape)",
     .workload = "{impl}[{read_path}]",
     .columns = {"workload", "write_fraction", "ops_per_txn", "threads",
                 "mean_ms", "sd_ms", "min_ms", "abort_ratio"},
     .axes = {.families = {"map"},
              .impls = {"proust-pess"},
              .threads = {1, 2, 4},
              .us = {0, 0.1, 0.2},
              .os = {8},
              .read_paths = {"locked", "optimistic"}},
     .ops = 30000,
     .warmup = 1,
     .runs = 3,
     .prefill_all = true},
    {.name = "design-space",
     .bench = "design_space",
     .title = "Figure 1 design space: strategy x LAP x STM mode; eager "
              "optimistic rows on Lazy/EagerWrite are the non-opaque "
              "combination (footnote 3)",
     .workload = "{impl}",
     .columns = {"impl", "mode", "ops_per_txn", "mean_ms", "sd_ms",
                 "abort_ratio"},
     .axes = {.families = {"map"},
              .impls = {"proust-eager", "proust-lazy-snap", "proust-lazy-memo",
                        "pure-stm", "predication", "proust-pess"},
              .modes = {"lazy", "eagerwrite", "eagerall"},
              .threads = {4},
              .us = {0.5},
              .os = {8, 1},
              .combines = {0, 1}},
     .ops = 20000,
     .warmup = 1,
     .runs = 2,
     .pess_o1 = true},
    {.name = "combining",
     .bench = "ablation_combining",
     .title = "log-combining family: memo (Fig. 4 bottom) plus the §9 "
              "snapshot and undo-log extensions",
     .workload = "{impl}",
     .columns = {"impl", "mode", "ops_per_txn", "key_range", "mean_ms",
                 "sd_ms", "abort_ratio"},
     .axes = {.families = {"map"},
              .impls = {"proust-lazy-memo", "proust-lazy-snap",
                        "proust-eager"},
              .modes = {"lazy", "eagerall"},
              .threads = {2},
              .us = {1},
              .key_ranges = {32, 1024},
              .os = {16, 64, 256},
              .combines = {0, 1}},
     .ops = 30000,
     .warmup = 1,
     .runs = 2},
    {.name = "striping",
     .bench = "ablation_striping",
     .title = "CA striping size M (§3); the bounded-model false-conflict "
              "counts are in example_verify_ca",
     .workload = "{impl}",
     .columns = {"impl", "ca_slots", "threads", "mean_ms", "abort_ratio"},
     .axes = {.families = {"map"},
              .impls = {"proust-eager"},
              .threads = {4},
              .us = {0.5},
              .os = {4},
              .ca_slots = {4, 16, 64, 256, 1024, 4096}},
     .ops = 20000,
     .warmup = 1,
     .runs = 2},
    {.name = "striping-pess",
     .bench = "ablation_striping_pess",
     .title = "pessimistic LAP: abstract-lock stripes x threads",
     .workload = "{impl}",
     .columns = {"impl", "ca_slots", "threads", "mean_ms", "abort_ratio"},
     .axes = {.families = {"map"},
              .impls = {"proust-pess", "proust-pess-lazy"},
              .threads = {1, 2, 4, 8, 16},
              .us = {0.5},
              .os = {4},
              .ca_slots = {64, 1024}},
     .ops = 20000,
     .warmup = 1,
     .runs = 2},
    {.name = "livelock",
     .bench = "pessimistic_livelock",
     .title = "§7 note: pessimistic timeout-aborts vs o on 16 hot keys, "
              "optimistic LAP for contrast",
     .workload = "{impl}",
     .columns = {"impl", "ops_per_txn", "threads", "mean_ms", "aborts_total",
                 "aborts_per_txn"},
     .axes = {.families = {"map"},
              .impls = {"proust-pess", "proust-eager"},
              .threads = {2, 4, 8},
              .us = {0.75},
              .key_ranges = {16},
              .os = {1, 4, 16, 64}},
     .ops = 60000,
     .warmup = 0,
     .runs = 1},
    {.name = "cm",
     .bench = "contention_mgmt",
     .title = "contention management under saturation: policy x threads, "
              "every op writes a hot key",
     .workload = "{cm}",
     .columns = {"cm", "threads", "min_ms", "ops_per_sec", "abort_ratio",
                 "attempts_p50", "attempts_p99", "attempts_max", "cm_killed"},
     .axes = {.families = {"map"},
              .impls = {"proust-eager"},
              .threads = {1, 2, 4, 8, 16},
              .us = {1},
              .key_ranges = {32},
              .os = {8},
              .cms = {"backoff", "aging"}},
     .ops = 40000,
     .warmup = 1,
     .runs = 2},
    {.name = "counter",
     .bench = "counter",
     .title = "§3 counter: Proust CA vs pure STM; high = far above the "
              "threshold, low = decrement-biased walk near 0",
     .workload = "{impl}",
     .columns = {"impl", "mix", "threads", "mean_ms", "min_ms",
                 "aborts_total", "stm_accesses"},
     .axes = {.families = {"counter"},
              .threads = {1, 2, 4, 8},
              .mixes = {"high", "low"}},
     .ops = 80000,
     .warmup = 1,
     .runs = 3},
    {.name = "pqueue",
     .bench = "pqueue",
     .title = "§6 priority queue: abstract-state CA vs single-RW-lock "
              "boosting approximation",
     .workload = "{impl}",
     .columns = {"impl", "mix", "threads", "mean_ms", "sd_ms", "min_ms",
                 "abort_ratio"},
     .axes = {.families = {"pqueue"},
              .threads = {1, 2, 4, 8},
              .mixes = {"insert-heavy", "balanced", "observer-heavy"}},
     .ops = 16000,
     .warmup = 1,
     .runs = 3},
    {.name = "range",
     .bench = "range_map",
     .title = "§1 range commutativity: windowed updates + range scans, "
              "interval CA vs coarse",
     .workload = "{impl}",
     .columns = {"impl", "scan_width", "mean_ms", "sd_ms", "min_ms",
                 "abort_ratio"},
     .axes = {.families = {"ordered"},
              .threads = {4},
              .us = {1},
              .key_ranges = {4096},
              .scan_fracs = {0.2},
              .scan_widths = {64, 512, 4096}},
     .ops = 12000,
     .warmup = 1,
     .runs = 3},
    {.name = "false-conflicts",
     .bench = "false_conflicts",
     .title = "§1 false conflicts under forced overlap: every abort on "
              "disjoint key sets is a false conflict",
     .workload = "{impl}",
     .columns = {"impl", "mode", "ca_slots", "mix", "aborts_total",
                 "aborts_per_txn"},
     .axes = {.families = {"overlap"},
              .modes = {"eagerall"},
              .os = {8},
              .ca_slots = {1024, 64, 8, 1},
              .mixes = {"disjoint", "identical"}},
     .ops = 300,
     .warmup = 0,
     .runs = 1},
};

struct Family {
  const char* name;
  unsigned axes;  // the axes this family sweeps
  std::vector<std::string> impls;  // default impl list
  std::vector<std::string> mixes;  // default mix list
};

const Family kFamilies[] = {
    {"map", kMode | kCm | kReadPath | kCa | kCombine | kU | kKeys | kZipf | kO |
                kThreads,
     {"pure-stm", "predication", "proust-eager", "proust-pess",
      "proust-pess-lazy", "proust-lazy-snap", "proust-lazy-memo",
      "global-lock"},
     {}},
    {"ordered", kCm | kU | kKeys | kScan | kThreads,
     {"proust-interval", "proust-coarse", "pure-stm-tree", "global-lock"},
     {}},
    {"pqueue", kCm | kU | kMix | kThreads,
     {"eager-opt", "pess-group", "boosting-1rw", "lazy-snap"},
     {"by-u"}},
    {"counter", kCm | kMix | kThreads,
     {"proust-counter", "pure-stm-counter"},
     {"high", "low"}},
    // Two lock-step threads; the key range only sizes the maps.
    {"overlap", kMode | kCm | kCa | kCombine | kKeys | kO | kMix,
     {"pure-stm", "pure-stm-tree", "predication", "proust-eager",
      "proust-lazy-memo", "proust-lazy-snap"},
     {"disjoint", "identical"}},
};

/// Axes a map impl does not use: it runs once, at the axis's first value.
unsigned ignored_axes(const std::string& impl) {
  if (impl == "global-lock") return kMode | kCm | kReadPath | kCa | kCombine;
  if (impl.rfind("proust-", 0) != 0) return kReadPath | kCa | kCombine;
  if (impl.rfind("proust-pess", 0) == 0) return kCombine;
  return 0;
}

/// One measured configuration: every axis value plus the impl.
struct Cell {
  std::string family, impl, mode, pin, cm, read_path, mix;
  int threads = 1;
  int o = 1;
  double u = -1;
  long keys = 0;
  double zipf = 0;
  long ca = 0;
  bool combine = false;
  double scan_frac = 0;
  long scan_width = 0;
};

stm::CmPolicy parse_cm(const std::string& s) {
  for (stm::CmPolicy p :
       {stm::CmPolicy::ExponentialBackoff, stm::CmPolicy::TimestampAging}) {
    if (stm::to_string(p) == s) return p;
  }
  throw std::invalid_argument("unknown cm policy '" + s + "'");
}

struct Ctx {
  const Preset* preset = nullptr;
  Report* report = nullptr;
  long ops = 0;
  int warmup = 0;
  int runs = 1;
  topo::NumaPlacement placement = topo::NumaPlacement::Off;
  std::size_t stripes = 64;  // ordered family's interval-CA size
  long prefill = 0;          // pqueue prefill
  std::vector<int> pin_plan;
};

stm::StmOptions options(const Ctx& ctx, const Cell& c) {
  stm::StmOptions opts;
  if (!topo::parse_pin_policy(c.pin, opts.pinning)) {
    throw std::invalid_argument("unknown pin policy '" + c.pin + "'");
  }
  opts.numa_placement = ctx.placement;
  if (!c.cm.empty()) opts.cm_policy = parse_cm(c.cm);
  if (!c.read_path.empty() && c.read_path != "locked" &&
      c.read_path != "optimistic") {
    throw std::invalid_argument("unknown read path '" + c.read_path + "'");
  }
  opts.optimistic_reads = c.read_path == "optimistic";
  return opts;
}

void emit(Ctx& ctx, const Cell& c, const TimedRuns& t,
          const stm::StatsSnapshot& stats, long total_ops) {
  Record r;
  r.bench = ctx.preset->bench;
  r.family = c.family;
  r.impl = c.impl;
  r.mode = c.mode;
  r.cm = c.cm;
  r.read_path = c.read_path;
  r.pin = c.pin;
  r.mix = c.mix;
  r.threads = c.threads;
  r.ops_per_txn = c.o;
  r.write_fraction = c.u;
  r.key_range = c.keys;
  r.zipf = c.zipf;
  r.scan_frac = c.scan_frac;
  r.scan_width = c.scan_width;
  r.ca_slots = c.ca;
  r.combine = c.combine ? 1 : 0;
  r.extra = c.ca > 0 ? c.ca : -1;  // M, as ablation_striping records it
  r.with_times(t, total_ops).with_stats(stats);
  r.workload = r.format(ctx.preset->workload);
  ctx.report->add(std::move(r));
}

// ---------------------------------------------------------------------------
// map family — every adapters.hpp config over the shared map harness.
// ---------------------------------------------------------------------------

/// Calls `fn(make)` where `make(cell)` builds the adapter for `impl`.
template <class Fn>
void with_map_adapter(const Ctx& ctx, const std::string& impl, Fn&& fn) {
  using namespace bench;
  const auto m = [](const Cell& c) { return parse_mode(c.mode); };
  const auto ca = [](const Cell& c) { return static_cast<std::size_t>(c.ca); };
  const auto o = [&ctx](const Cell& c) { return options(ctx, c); };
  if (impl == "pure-stm") {
    fn([&](const Cell& c) {
      return std::make_unique<PureStmAdapter>(m(c), c.keys, o(c));
    });
  } else if (impl == "pure-stm-tree") {
    fn([&](const Cell& c) {
      return std::make_unique<PureStmTreeAdapter>(m(c), o(c));
    });
  } else if (impl == "predication") {
    fn([&](const Cell& c) {
      return std::make_unique<PredicationAdapter>(m(c), o(c));
    });
  } else if (impl == "proust-eager") {
    fn([&](const Cell& c) {
      return std::make_unique<EagerOptAdapter>(m(c), ca(c), c.combine, o(c));
    });
  } else if (impl == "proust-pess") {
    fn([&](const Cell& c) {
      return std::make_unique<PessimisticAdapter>(m(c), ca(c), o(c));
    });
  } else if (impl == "proust-pess-lazy") {
    fn([&](const Cell& c) {
      return std::make_unique<LazyMemoPessAdapter>(m(c), ca(c), o(c));
    });
  } else if (impl == "proust-lazy-snap") {
    fn([&](const Cell& c) {
      return std::make_unique<LazySnapshotAdapter>(m(c), ca(c), c.combine,
                                                   o(c));
    });
  } else if (impl == "proust-lazy-memo") {
    fn([&](const Cell& c) {
      return std::make_unique<LazyMemoAdapter>(m(c), ca(c), c.combine, o(c));
    });
  } else if (impl == "global-lock") {
    fn([](const Cell&) { return std::make_unique<GlobalLockAdapter>(); });
  } else {
    throw std::invalid_argument("unknown map impl '" + impl + "'");
  }
}

/// `variants` differ only in read path; their runs interleave so the
/// locked:optimistic ratio compares like with like.
void run_map(Ctx& ctx, const std::vector<Cell>& variants) {
  const Cell& c = variants.front();
  RunConfig cfg;
  cfg.threads = c.threads;
  cfg.ops_per_txn = c.o;
  cfg.write_fraction = c.u;
  cfg.key_range = c.keys;
  cfg.total_ops = ctx.ops;
  cfg.warmup_runs = ctx.warmup;
  cfg.timed_runs = ctx.runs;
  cfg.zipf_theta = c.zipf;
  cfg.pin_plan = ctx.pin_plan;
  with_map_adapter(ctx, c.impl, [&](auto make) {
    std::vector<decltype(make(c))> owned;
    std::vector<typename decltype(make(c))::element_type*> adapters;
    for (const Cell& v : variants) {
      owned.push_back(make(v));
      adapters.push_back(owned.back().get());
      for (long k = 0; k < c.keys; k += ctx.preset->prefill_all ? 1 : 2) {
        adapters.back()->prefill(k, k);
      }
    }
    const auto results = bench::run_map_throughput(adapters, cfg);
    for (std::size_t i = 0; i < variants.size(); ++i) {
      Cell v = variants[i];
      v.impl = adapters[i]->name();
      emit(ctx, v, results[i], results[i].stats, ctx.ops);
    }
  });
}

// ---------------------------------------------------------------------------
// overlap family — the lock-step false-conflict protocol over map adapters.
// ---------------------------------------------------------------------------

/// Two threads, `trials` lock-step rounds; thread t's keys start at
/// t*stride (stride = o: disjoint; 0: identical). On its first attempt each
/// thread performs its operations, announces readiness, then spin-waits
/// (bounded) for the peer before returning from the transaction body. The
/// bound keeps the handshake abort-tolerant: if the peer's first attempt
/// aborted before announcing, the thread proceeds after the deadline, and
/// retries skip the handshake (the overlap already happened).
template <class Adapter>
double lock_step(Adapter& adapter, long trials, int ops, long stride) {
  const auto start = std::chrono::steady_clock::now();
  for (long trial = 0; trial < trials; ++trial) {
    std::atomic<int> ready{0};
    std::thread peers[2];
    for (int t = 0; t < 2; ++t) {
      peers[t] = std::thread([&, t] {
        bool first_attempt = true;
        adapter.txn([&](auto& view) {
          for (int i = 0; i < ops; ++i) {
            // Alternate insert/remove so each trial flips presence (size
            // changes every committed op — the representational stressor).
            if (trial % 2 == 0) {
              view.put(t * stride + i, trial);
            } else {
              view.remove(t * stride + i);
            }
          }
          if (first_attempt) {
            first_attempt = false;
            ready.fetch_add(1, std::memory_order_acq_rel);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
            while (ready.load(std::memory_order_acquire) < 2 &&
                   std::chrono::steady_clock::now() < deadline) {
              std::this_thread::yield();
            }
          }
        });
      });
    }
    peers[0].join();
    peers[1].join();
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void run_overlap(Ctx& ctx, Cell c) {
  c.threads = 2;
  const long stride = c.mix == "disjoint" ? c.o : 0;
  with_map_adapter(ctx, c.impl, [&](auto make) {
    auto a = make(c);
    // Seed enough structure that treap rotations happen away from leaves.
    if (c.impl == "pure-stm-tree") {
      for (long k = 100; k < 400; ++k) a->prefill(k, k);
    }
    for (int i = 0; i < ctx.warmup; ++i) lock_step(*a, ctx.ops, c.o, stride);
    a->reset_stats();
    std::vector<double> times;
    for (int i = 0; i < ctx.runs; ++i) {
      times.push_back(lock_step(*a, ctx.ops, c.o, stride));
    }
    c.impl = a->name();
    emit(ctx, c, bench::detail::reduce_times(times), a->stats(), ctx.ops);
  });
}

// ---------------------------------------------------------------------------
// ordered family — interval CA vs coarse vs pure-STM treap vs global lock.
// ---------------------------------------------------------------------------

using OrderedLap = core::OptimisticLap<std::size_t, core::StripeHasher>;

/// Per-thread update windows (the range-commutativity shape): updates
/// commute across windows, scans of `scan_width` keys roam everywhere.
template <class ScanOp, class PointOp>
void ordered_cell(Ctx& ctx, const Cell& c, ScanOp&& scan, PointOp&& point,
                  stm::Stm* stm) {
  const long iters = (ctx.ops + c.threads - 1) / c.threads;
  const long window = std::max(1L, c.keys / c.threads);
  const TimedRuns t = bench::run_ops_timed(
      c.threads, iters, ctx.warmup, ctx.runs, /*seed=*/97, ctx.pin_plan,
      [&](int th, Xoshiro256& rng) {
        if (rng.uniform() < c.scan_frac) {
          const long lo =
              static_cast<long>(rng.below(c.keys - c.scan_width + 1));
          scan(lo, lo + c.scan_width - 1);
        } else {
          point(th * window + static_cast<long>(rng.below(window)),
                rng.uniform() < c.u);
        }
      },
      [stm] {
        if (stm != nullptr) stm->stats().reset();
      });
  emit(ctx, c, t, stm != nullptr ? stm->stats().snapshot() : stm::StatsSnapshot{},
       iters * c.threads);
}

/// Runs ordered_cell over any map with range_sum/put/get on a Txn.
template <class Map>
void stm_ordered_cell(Ctx& ctx, const Cell& c, stm::Stm& stm, Map& map) {
  for (long k = 0; k < c.keys; k += 2) map.unsafe_put(k, 1);
  ordered_cell(
      ctx, c,
      [&](long lo, long hi) {
        stm.atomically([&](stm::Txn& tx) { (void)map.range_sum(tx, lo, hi); });
      },
      [&](long k, bool write) {
        stm.atomically([&](stm::Txn& tx) {
          if (write) {
            map.put(tx, k, 1);
          } else {
            (void)map.get(tx, k);
          }
        });
      },
      &stm);
}

void run_ordered(Ctx& ctx, Cell c) {
  if (c.impl == "global-lock") {
    std::mutex mu;
    std::map<long, long> map;
    for (long k = 0; k < c.keys; k += 2) map[k] = 1;
    ordered_cell(
        ctx, c,
        [&](long lo, long hi) {
          std::lock_guard<std::mutex> g(mu);
          long sum = 0;
          for (auto it = map.lower_bound(lo); it != map.end() && it->first <= hi;
               ++it) {
            sum += it->second;
          }
          (void)sum;
        },
        [&](long k, bool write) {
          std::lock_guard<std::mutex> g(mu);
          if (write) {
            map[k] = 1;
          } else {
            (void)map.count(k);
          }
        },
        nullptr);
    return;
  }
  c.mode = stm::to_string(stm::Mode::Lazy);
  stm::Stm stm(stm::Mode::Lazy, options(ctx, c));
  if (c.impl == "pure-stm-tree") {
    baselines::PureStmTreeMap<long, long> map(stm, 8192);
    stm_ordered_cell(ctx, c, stm, map);
  } else if (c.impl == "proust-interval" || c.impl == "proust-coarse") {
    c.ca = c.impl == "proust-coarse" ? 1 : static_cast<long>(ctx.stripes);
    const auto m = static_cast<std::size_t>(c.ca);
    OrderedLap lap(stm, m);
    core::TxnOrderedMap<long, OrderedLap> map(lap, 0, c.keys - 1, m);
    stm_ordered_cell(ctx, c, stm, map);
  } else {
    throw std::invalid_argument("unknown ordered impl '" + c.impl + "'");
  }
}

// ---------------------------------------------------------------------------
// pqueue family — the §6 configurations under a named operation mix.
// ---------------------------------------------------------------------------

struct PqMix {
  const char* name;
  double insert, remove_min, min;  // fractions; the rest is contains
};

const PqMix kPqMixes[] = {
    {"insert-heavy", 0.80, 0.10, 0.05},
    {"balanced", 0.40, 0.40, 0.10},
    {"observer-heavy", 0.20, 0.10, 0.60},
};

/// "by-u": u split evenly between insert and remove_min; the rest is 20%
/// min, 80% contains.
PqMix pq_mix(const Cell& c) {
  if (c.mix == "by-u") return {"by-u", c.u / 2, c.u / 2, 0.2 * (1 - c.u)};
  for (const PqMix& m : kPqMixes) {
    if (c.mix == m.name) return m;
  }
  throw std::invalid_argument("unknown pqueue mix '" + c.mix + "'");
}

template <class PQ>
void pqueue_cell(Ctx& ctx, Cell c, stm::Mode mode, stm::Stm& stm, PQ& pq) {
  for (long i = 0; i < ctx.prefill; ++i) {
    pq.unsafe_insert(static_cast<long>(i * 37 % 100000));
  }
  const PqMix mix = pq_mix(c);
  c.mode = stm::to_string(mode);
  c.u = mix.insert + mix.remove_min;
  const long iters = (ctx.ops + c.threads - 1) / c.threads;
  const TimedRuns t = bench::run_ops_timed(
      c.threads, iters, ctx.warmup, ctx.runs, /*seed=*/53, ctx.pin_plan,
      [&](int, Xoshiro256& rng) {
        const double r = rng.uniform();
        const long v = static_cast<long>(rng.below(100000));
        if (r < mix.insert) {
          stm.atomically([&](stm::Txn& tx) { pq.insert(tx, v); });
        } else if (r < mix.insert + mix.remove_min) {
          stm.atomically([&](stm::Txn& tx) { (void)pq.remove_min(tx); });
        } else if (r < mix.insert + mix.remove_min + mix.min) {
          stm.atomically([&](stm::Txn& tx) { (void)pq.min(tx); });
        } else {
          stm.atomically([&](stm::Txn& tx) { (void)pq.contains(tx, v); });
        }
      },
      [&stm] { stm.stats().reset(); });
  emit(ctx, c, t, stm.stats().snapshot(), iters * c.threads);
}

void run_pqueue(Ctx& ctx, const Cell& c) {
  using core::PQueueState;
  using core::PQueueStateHasher;
  const stm::StmOptions opts = options(ctx, c);
  if (c.impl == "eager-opt") {
    // Eager Proust, optimistic CA on the two abstract-state elements.
    stm::Stm stm(stm::Mode::EagerAll, opts);
    core::OptimisticLap<PQueueState, PQueueStateHasher> lap(stm, 2);
    core::TxnPriorityQueue<long, decltype(lap)> pq(lap);
    pqueue_cell(ctx, c, stm::Mode::EagerAll, stm, pq);
  } else if (c.impl == "pess-group") {
    // Per-element disciplines: MultiSet = group lock, so commuting inserts
    // do not serialize.
    stm::Stm stm(stm::Mode::Lazy, opts);
    core::PessimisticLap<PQueueState, PQueueStateHasher> lap(
        stm, 2, core::pqueue_lock_kind, std::chrono::milliseconds(2));
    core::TxnPriorityQueue<long, decltype(lap)> pq(lap);
    pqueue_cell(ctx, c, stm::Mode::Lazy, stm, pq);
  } else if (c.impl == "boosting-1rw") {
    // Boosting's published approximation: ONE reader-writer stripe for the
    // whole queue (every insert/removeMin takes the write lock).
    stm::Stm stm(stm::Mode::Lazy, opts);
    core::PessimisticLap<PQueueState, PQueueStateHasher> lap(
        stm, 1, std::chrono::milliseconds(2));
    core::TxnPriorityQueue<long, decltype(lap)> pq(lap);
    pqueue_cell(ctx, c, stm::Mode::Lazy, stm, pq);
  } else if (c.impl == "lazy-snap") {
    // Lazy Proust over the COW heap (snapshot shadow copies).
    stm::Stm stm(stm::Mode::Lazy, opts);
    core::OptimisticLap<PQueueState, PQueueStateHasher> lap(stm, 2);
    core::LazyPriorityQueue<long, decltype(lap)> pq(lap);
    pqueue_cell(ctx, c, stm::Mode::Lazy, stm, pq);
  } else {
    throw std::invalid_argument("unknown pqueue impl '" + c.impl + "'");
  }
}

// ---------------------------------------------------------------------------
// counter family — §3's non-negative counter. "high" starts far above the
// CA threshold (incr/decr touch no STM location: the paper's case 1);
// "low" starts at 1 with decrements in the majority, so the walk stays
// near 0 where decrs write ℓ0 and incrs read it (case 3).
// ---------------------------------------------------------------------------

void run_counter(Ctx& ctx, Cell c) {
  if (c.mix != "high" && c.mix != "low") {
    throw std::invalid_argument("unknown counter mix '" + c.mix + "'");
  }
  const bool high = c.mix == "high";
  const long initial = high ? 100000 : 1;
  c.u = high ? 0.5 : 0.6;  // decrement share
  c.mode = stm::to_string(stm::Mode::EagerAll);
  stm::Stm stm(stm::Mode::EagerAll, options(ctx, c));
  core::OptimisticLap<core::CounterState, core::CounterStateHasher> lap(stm, 1);
  core::TxnCounter<decltype(lap)> counter(lap, initial);
  stm::Var<long> value(initial);
  const bool proust = c.impl == "proust-counter";
  if (!proust && c.impl != "pure-stm-counter") {
    throw std::invalid_argument("unknown counter impl '" + c.impl + "'");
  }
  const long iters = (ctx.ops + c.threads - 1) / c.threads;
  const TimedRuns t = bench::run_ops_timed(
      c.threads, iters, ctx.warmup, ctx.runs, /*seed=*/71, ctx.pin_plan,
      [&](int, Xoshiro256& rng) {
        const bool decr = rng.uniform() < c.u;
        stm.atomically([&](stm::Txn& tx) {
          if (proust) {
            if (decr) {
              (void)counter.decr(tx);
            } else {
              counter.incr(tx);
            }
          } else {
            const long v = tx.read(value);
            if (!decr) {
              tx.write(value, v + 1);
            } else if (v > 0) {
              tx.write(value, v - 1);
            }
          }
        });
      },
      [&stm] { stm.stats().reset(); });
  emit(ctx, c, t, stm.stats().snapshot(), iters * c.threads);
}

// ---------------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------------

/// One axis of the sweep: its bit, value count and setter.
struct Dim {
  unsigned axis;
  std::size_t n;
  std::function<void(Cell&, std::size_t)> set;
};

void run_family(Ctx& ctx, const Family& fam, const Axes& a) {
  const std::vector<std::string>& impls = a.impls.empty() ? fam.impls : a.impls;
  const std::vector<std::string> mixes =
      !a.mixes.empty()     ? a.mixes
      : !fam.mixes.empty() ? fam.mixes
                           : std::vector<std::string>{""};
  // Outermost first; impl and combining vary fastest.
  const std::vector<Dim> dims = {
      {0, a.pins.size(), [&](Cell& c, std::size_t i) { c.pin = a.pins[i]; }},
      {kMode, a.modes.size(),
       [&](Cell& c, std::size_t i) { c.mode = a.modes[i]; }},
      {kU, a.us.size(), [&](Cell& c, std::size_t i) { c.u = a.us[i]; }},
      {kKeys, a.key_ranges.size(),
       [&](Cell& c, std::size_t i) { c.keys = a.key_ranges[i]; }},
      {kZipf, a.zipfs.size(),
       [&](Cell& c, std::size_t i) { c.zipf = a.zipfs[i]; }},
      {kO, a.os.size(),
       [&](Cell& c, std::size_t i) { c.o = static_cast<int>(a.os[i]); }},
      {kScan, a.scan_fracs.size(),
       [&](Cell& c, std::size_t i) { c.scan_frac = a.scan_fracs[i]; }},
      {kScan, a.scan_widths.size(),
       [&](Cell& c, std::size_t i) { c.scan_width = a.scan_widths[i]; }},
      {kMix, mixes.size(), [&](Cell& c, std::size_t i) { c.mix = mixes[i]; }},
      {kCa, a.ca_slots.size(),
       [&](Cell& c, std::size_t i) { c.ca = a.ca_slots[i]; }},
      {kThreads, a.threads.size(),
       [&](Cell& c, std::size_t i) {
         c.threads = static_cast<int>(a.threads[i]);
       }},
      {kCm, a.cms.size(), [&](Cell& c, std::size_t i) { c.cm = a.cms[i]; }},
      {0, impls.size(), [&](Cell& c, std::size_t i) { c.impl = impls[i]; }},
      {kCombine, a.combines.size(),
       [&](Cell& c, std::size_t i) { c.combine = a.combines[i] != 0; }},
  };
  std::vector<std::size_t> idx(dims.size(), 0);
  while (true) {
    Cell c;
    c.family = fam.name;
    for (std::size_t d = 0; d < dims.size(); ++d) dims[d].set(c, idx[d]);
    const unsigned used = fam.axes & ~ignored_axes(c.impl);
    bool skip = ctx.preset->pess_o1 && c.o != 1 &&
                c.impl.rfind("proust-pess", 0) == 0;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      skip = skip || (idx[d] > 0 && dims[d].axis != 0 &&
                      (used & dims[d].axis) == 0);
    }
    if (c.family == "ordered" && c.scan_width > c.keys) skip = true;
    if (!skip) {
      // Unused axes read as not applicable.
      if (!(used & kMode)) c.mode.clear();
      if (!(used & kCm)) c.cm.clear();
      if (!(used & kU)) c.u = -1;
      if (!(used & kKeys)) c.keys = 0;
      if (!(used & kZipf)) c.zipf = 0;
      if (!(used & kO)) c.o = 1;
      if (!(used & kScan)) c.scan_frac = 0, c.scan_width = 0;
      if (!(used & kMix)) c.mix.clear();
      if (!(used & kCa)) c.ca = 0;
      if (!(used & kCombine)) c.combine = false;
      if (!c.mode.empty()) c.mode = stm::to_string(bench::parse_mode(c.mode));
      ctx.pin_plan = topo::Topology::system().pin_plan(
          options(ctx, c).pinning);
      if (c.family == "map") {
        std::vector<Cell> variants;
        for (const std::string& rp : a.read_paths) {
          variants.push_back(c);
          variants.back().read_path = (used & kReadPath) ? rp : "";
          if (!(used & kReadPath)) break;
        }
        run_map(ctx, variants);
      } else if (c.family == "ordered") {
        run_ordered(ctx, c);
      } else if (c.family == "pqueue") {
        run_pqueue(ctx, c);
      } else if (c.family == "counter") {
        run_counter(ctx, c);
      } else {
        run_overlap(ctx, c);
      }
    }
    std::size_t d = dims.size();
    while (d > 0 && ++idx[d - 1] == dims[d - 1].n) idx[--d] = 0;
    if (d == 0) return;
  }
}

/// The preset's axes with --smoke and the axis flags applied and every
/// remaining empty axis defaulted.
Axes resolve_axes(const Preset& p, const Cli& cli, bool smoke) {
  Axes a = p.axes;
  if (smoke) {
    const Axes& s = p.smoke;
    const auto over = [](auto& dst, const auto& src) {
      if (!src.empty()) dst = src;
    };
    over(a.pins, s.pins);
    over(a.us, s.us);
    over(a.key_ranges, s.key_ranges);
    over(a.os, s.os);
    over(a.scan_fracs, s.scan_fracs);
    over(a.scan_widths, s.scan_widths);
    if (a.threads.size() > 2) a.threads.resize(2);
  }
  a.families = cli.get_strings("families", a.families);
  a.pins = cli.get_strings("pin", a.pins);
  a.modes = cli.get_strings("mode", a.modes);
  a.threads = cli.get_longs("threads", a.threads);
  a.us = cli.get_doubles("u", a.us);
  a.key_ranges = cli.get_longs("key-range", a.key_ranges);
  a.zipfs = cli.get_doubles("zipf", a.zipfs);
  a.os = cli.get_longs("o", a.os);
  a.ca_slots = cli.get_longs("ca-slots", a.ca_slots);
  a.scan_fracs = cli.get_doubles("scan-frac", a.scan_fracs);
  a.scan_widths = cli.get_longs("scan-width", a.scan_widths);
  const auto fill = [](auto& v, auto def) {
    if (v.empty()) v = def;
  };
  fill(a.families, std::vector<std::string>{"map"});
  fill(a.pins, std::vector<std::string>{"none"});
  fill(a.modes, std::vector<std::string>{"lazy"});
  fill(a.threads, std::vector<long>{1});
  fill(a.us, std::vector<double>{0.5});
  fill(a.key_ranges, std::vector<long>{1024});
  fill(a.zipfs, std::vector<double>{0});
  fill(a.os, std::vector<long>{1});
  fill(a.ca_slots, std::vector<long>{1024});
  fill(a.combines, std::vector<long>{0});
  fill(a.cms, std::vector<std::string>{"backoff"});
  fill(a.read_paths, std::vector<std::string>{"locked"});
  fill(a.scan_fracs, std::vector<double>{0.2});
  fill(a.scan_widths, std::vector<long>{64});
  return a;
}

// ---------------------------------------------------------------------------
// --ab: the default-neutrality check. A = stock StmOptions (pinning=none,
// numa_placement=off — the configuration every pre-topology bench ran), B =
// the topology-enabled options under test, paired-interleaved so both
// sides sample the same noise phases. The acceptance bar is a min-time
// ratio within noise of 1.0: the opt-in machinery costs nothing when off.
// ---------------------------------------------------------------------------

int run_neutrality_ab(const Cli& cli) {
  RunConfig cfg;
  cfg.total_ops = cli.get_long("ops", 200000);
  cfg.key_range = cli.get_long("key-range", 1024);
  cfg.ops_per_txn = static_cast<int>(cli.get_long("o", 4));
  cfg.warmup_runs = static_cast<int>(cli.get_long("warmup", 2));
  cfg.timed_runs = static_cast<int>(cli.get_long("runs", 7));
  const stm::Mode mode = bench::parse_mode(cli.get("mode", "lazy"));

  stm::StmOptions on;
  topo::parse_pin_policy(cli.get("pin", "compact"), on.pinning);
  on.numa_placement = cli.get_placement("placement",
                                        topo::NumaPlacement::Interleave);
  const std::string b_name = std::string("ab-pin-") +
                             topo::to_string(on.pinning) + "-numa-" +
                             topo::to_string(on.numa_placement);

  std::printf("# neutrality A/B: defaults (pin=none, numa=off) vs %s, "
              "paired-interleaved, %d runs\n",
              b_name.c_str(), cfg.timed_runs);
  Report report(cli.get("label", "neutrality-ab"));
  report.table({"workload", "write_fraction", "threads", "min_ms",
                "abort_ratio"});
  for (double u : cli.get_doubles("u", std::vector<double>{0, 0.5})) {
    for (long t : cli.get_longs("threads", std::vector<long>{1, 2})) {
      cfg.write_fraction = u;
      cfg.threads = static_cast<int>(t);
      bench::PureStmAdapter off(mode, cfg.key_range, stm::StmOptions{});
      bench::PureStmAdapter with(mode, cfg.key_range, on);
      bench::prefill_half(off, cfg.key_range);
      bench::prefill_half(with, cfg.key_range);
      const auto rs = bench::run_map_throughput(
          std::vector<bench::PureStmAdapter*>{&off, &with}, cfg);
      for (std::size_t i = 0; i < rs.size(); ++i) {
        Record r;
        r.bench = "scenario_matrix_ab";
        r.family = "map";
        r.impl = bench::PureStmAdapter::name();
        r.workload = i == 0 ? "ab-defaults" : b_name;
        r.mode = stm::to_string(mode);
        r.threads = cfg.threads;
        r.ops_per_txn = cfg.ops_per_txn;
        r.write_fraction = u;
        r.key_range = cfg.key_range;
        r.with_times(rs[i], cfg.total_ops).with_stats(rs[i].stats);
        report.add(std::move(r));
      }
      std::printf("# on/off min-time ratio: %.3f\n",
                  rs[1].min_ms / rs[0].min_ms);
    }
  }
  return report.write(cli.get("csv", ""), cli.get("json", "")) ? 0 : 1;
}

int run(const Cli& cli) {
  if (cli.has("ab")) return run_neutrality_ab(cli);
  const std::string name = cli.get("preset", "matrix");
  if (name == "list") {
    for (const Preset& p : kPresets) std::printf("%s\n", p.name);
    return 0;
  }
  const Preset* preset = nullptr;
  for (const Preset& p : kPresets) {
    if (name == p.name) preset = &p;
  }
  if (preset == nullptr) {
    throw std::invalid_argument("unknown preset '" + name +
                                "' (--preset=list names them)");
  }
  const bool smoke = cli.has("smoke");
  const Axes axes = resolve_axes(*preset, cli, smoke);

  Report report(cli.get("label", preset->name));
  Ctx ctx;
  ctx.preset = preset;
  ctx.report = &report;
  ctx.ops = cli.get_long("ops", smoke ? std::min(preset->ops, 2000L)
                                      : preset->ops);
  ctx.warmup = static_cast<int>(cli.get_long("warmup", smoke ? 0 : preset->warmup));
  ctx.runs = static_cast<int>(cli.get_long("runs", smoke ? 1 : preset->runs));
  ctx.placement = cli.get_placement("placement", topo::NumaPlacement::Off);
  ctx.stripes = static_cast<std::size_t>(cli.get_long("stripes", 64));
  ctx.prefill = cli.get_long("prefill", smoke ? 1000 : 10000);

  const topo::Topology& host = topo::Topology::system();
  std::printf("# preset=%s: %s\n# host cpus=%u nodes=%u smt=%d | ops=%ld "
              "warmup=%d runs=%d%s\n",
              preset->name, preset->title, host.cpu_count(), host.node_count,
              host.smt ? 1 : 0, ctx.ops, ctx.warmup, ctx.runs,
              smoke ? " (smoke)" : "");
  report.table(preset->columns);
  for (const std::string& f : axes.families) {
    const Family* fam = nullptr;
    for (const Family& cand : kFamilies) {
      if (f == cand.name) fam = &cand;
    }
    if (fam == nullptr) throw std::invalid_argument("unknown family '" + f + "'");
    run_family(ctx, *fam, axes);
  }
  return report.write(cli.get("csv", ""), cli.get("json", "")) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Cli(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_scenario_matrix: %s\n", e.what());
    return 1;
  }
}
