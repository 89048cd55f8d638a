// The §7 measurement harness: perform `total_ops` randomly selected
// operations on a shared map, split across `threads` threads, `ops_per_txn`
// operations per transaction; warm up, then time several executions and
// report mean and standard deviation — the paper's methodology with the JVM
// warm-up replaced by harness warm-up runs.
#pragma once

#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_util/workload.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "stm/stats.hpp"

namespace proust::bench {

struct RunConfig {
  int threads = 1;
  int ops_per_txn = 1;
  double write_fraction = 0.5;
  long key_range = 1024;
  long total_ops = 100000;
  int warmup_runs = 1;
  int timed_runs = 3;
  std::uint64_t seed = 42;
  double zipf_theta = 0.0;  // 0 = uniform (the paper's setup)
  /// Harness-level worker pinning: worker t binds to pin_plan[t % size]
  /// before the start barrier. Empty (default) = no affinity calls. This
  /// complements StmOptions::pinning (which binds by registry slot) and
  /// also covers non-STM baselines like the global-lock map.
  std::vector<int> pin_plan;
};

/// Durations of the timed runs of one cell.
struct TimedRuns {
  double mean_ms = 0;
  double sd_ms = 0;
  double min_ms = 0;  // fastest timed run — robust to CPU-steal noise
};

/// Timed runs of one adapter plus its STM counters over those runs.
struct RunResult : TimedRuns {
  stm::StatsSnapshot stats;
};

namespace detail {
template <class Adapter>
double one_run(Adapter& adapter, const RunConfig& cfg, std::uint64_t seed) {
  const long total_txns =
      (cfg.total_ops + cfg.ops_per_txn - 1) / cfg.ops_per_txn;
  std::barrier sync(cfg.threads + 1);
  // Each worker clocks its own span; the run is min(start) .. max(stop).
  // Timing from the coordinating thread undercounts badly on an
  // oversubscribed box: if it blocks on the start barrier and is scheduled
  // late, the workers can run to completion before it ever reads the
  // "start" clock.
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> starts(cfg.threads), stops(cfg.threads);
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  for (int t = 0; t < cfg.threads; ++t) {
    const long my_txns =
        total_txns / cfg.threads + (t < total_txns % cfg.threads ? 1 : 0);
    workers.emplace_back([&, t, my_txns] {
      if (!cfg.pin_plan.empty()) {
        topo::pin_self_to(
            cfg.pin_plan[static_cast<std::size_t>(t) % cfg.pin_plan.size()]);
      }
      // Pre-generate the thread's whole operation stream outside the timed
      // region: the RNG draws (and the Zipf inversion) are harness cost,
      // not structure-under-test cost, and drawing inside the transaction
      // body would make a retried transaction replay *different* ops.
      MapWorkload wl(cfg.write_fraction, cfg.key_range,
                     seed * 0x9E3779B97F4A7C15ULL + t, cfg.zipf_theta);
      std::vector<Op> ops;
      ops.reserve(static_cast<std::size_t>(my_txns) * cfg.ops_per_txn);
      for (long i = 0; i < my_txns * cfg.ops_per_txn; ++i) {
        ops.push_back(wl.next());
      }
      sync.arrive_and_wait();
      starts[t] = Clock::now();
      std::size_t at = 0;
      for (long i = 0; i < my_txns; ++i) {
        adapter.txn([&](auto& view) {
          for (int op = 0; op < cfg.ops_per_txn; ++op) {
            const Op& o = ops[at + static_cast<std::size_t>(op)];
            switch (o.kind) {
              case OpKind::Get: view.get(o.key); break;
              case OpKind::Put: view.put(o.key, o.value); break;
              case OpKind::Remove: view.remove(o.key); break;
            }
          }
        });
        at += static_cast<std::size_t>(cfg.ops_per_txn);
      }
      stops[t] = Clock::now();
      sync.arrive_and_wait();
    });
  }
  sync.arrive_and_wait();
  sync.arrive_and_wait();
  for (auto& w : workers) w.join();
  Clock::time_point first = starts[0];
  Clock::time_point last = stops[0];
  for (int t = 1; t < cfg.threads; ++t) {
    if (starts[t] < first) first = starts[t];
    if (stops[t] > last) last = stops[t];
  }
  return std::chrono::duration<double, std::milli>(last - first).count();
}
}  // namespace detail

/// Prefill half the key range so gets hit ~50% (steady-state occupancy of
/// the put/remove balance).
template <class Adapter>
void prefill_half(Adapter& adapter, long key_range) {
  for (long k = 0; k < key_range; k += 2) adapter.prefill(k, k);
}

namespace detail {
inline TimedRuns reduce_times(const std::vector<double>& times) {
  TimedRuns r;
  double sum = 0;
  r.min_ms = times.front();
  for (double t : times) {
    sum += t;
    if (t < r.min_ms) r.min_ms = t;
  }
  r.mean_ms = sum / static_cast<double>(times.size());
  double var = 0;
  for (double t : times) var += (t - r.mean_ms) * (t - r.mean_ms);
  r.sd_ms = times.size() > 1
                ? std::sqrt(var / static_cast<double>(times.size() - 1))
                : 0.0;
  return r;
}

/// Per-worker-clocked single run of an arbitrary operation stream: worker t
/// calls `op(t, rng)` `iters` times; the run spans min(start)..max(stop)
/// (see one_run for why coordinator clocks undercount). The generic runner
/// behind the pqueue / ordered-map scenario families.
template <class OpFn>
double one_ops_run(int threads, long iters, std::uint64_t seed,
                   const std::vector<int>& pin_plan, OpFn&& op) {
  std::barrier sync(threads + 1);
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> starts(threads), stops(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      if (!pin_plan.empty()) {
        topo::pin_self_to(
            pin_plan[static_cast<std::size_t>(t) % pin_plan.size()]);
      }
      Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL +
                     static_cast<std::uint64_t>(t) * 1297 + 11);
      sync.arrive_and_wait();
      starts[t] = Clock::now();
      for (long i = 0; i < iters; ++i) op(t, rng);
      stops[t] = Clock::now();
      sync.arrive_and_wait();
    });
  }
  sync.arrive_and_wait();
  sync.arrive_and_wait();
  for (auto& w : workers) w.join();
  Clock::time_point first = starts[0];
  Clock::time_point last = stops[0];
  for (int t = 1; t < threads; ++t) {
    if (starts[t] < first) first = starts[t];
    if (stops[t] > last) last = stops[t];
  }
  return std::chrono::duration<double, std::milli>(last - first).count();
}
}  // namespace detail

/// Warm up, then time `timed_runs` executions of `iters` ops on each of
/// `threads` workers (per-worker clocks). `op(t, rng)` performs one
/// operation; reseeded per run so repeats draw identical streams.
/// `after_warmup` (when non-null) runs between the warm-up and the timed
/// runs — the place to reset STM stats so abort ratios cover only what was
/// measured.
template <class OpFn, class AfterWarmup = void (*)()>
TimedRuns run_ops_timed(
    int threads, long iters, int warmup_runs, int timed_runs,
    std::uint64_t seed, const std::vector<int>& pin_plan, OpFn&& op,
    AfterWarmup after_warmup = [] {}) {
  for (int i = 0; i < warmup_runs; ++i) {
    detail::one_ops_run(threads, iters, seed + 1000 + i, pin_plan, op);
  }
  after_warmup();
  std::vector<double> times;
  times.reserve(timed_runs);
  for (int i = 0; i < timed_runs; ++i) {
    times.push_back(
        detail::one_ops_run(threads, iters, seed + i, pin_plan, op));
  }
  return detail::reduce_times(times);
}

/// Warm up, then time `timed_runs` executions of the map workload on each
/// adapter. Several adapters interleave their runs so all of them sample
/// the same noise phases (CPU steal, frequency drift): back-to-back blocks
/// — all of A's runs, then all of B's — can land in different phases and
/// skew the A:B ratio by more than the effect under test; adjacent runs
/// keep the ratio meaningful even when absolute times wander.
template <class Adapter>
std::vector<RunResult> run_map_throughput(
    const std::vector<Adapter*>& adapters, const RunConfig& cfg) {
  for (int i = 0; i < cfg.warmup_runs; ++i) {
    for (Adapter* a : adapters) detail::one_run(*a, cfg, cfg.seed + 1000 + i);
  }
  for (Adapter* a : adapters) a->reset_stats();
  std::vector<std::vector<double>> times(adapters.size());
  for (int i = 0; i < cfg.timed_runs; ++i) {
    for (std::size_t k = 0; k < adapters.size(); ++k) {
      times[k].push_back(detail::one_run(*adapters[k], cfg, cfg.seed + i));
    }
  }
  std::vector<RunResult> out;
  for (std::size_t k = 0; k < adapters.size(); ++k) {
    out.push_back({detail::reduce_times(times[k]), adapters[k]->stats()});
  }
  return out;
}

}  // namespace proust::bench
