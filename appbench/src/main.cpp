// appbench: closed-loop, application-shaped benchmark of the Proust runtime.
//
//   appbench --workload ledger|orderbook|jobs_wal --seed N --seconds S
//            --trace 0|1 --scratch DIR [--stm-mode lazy] [--trace-out FILE]
//            [--drop-span body|commit|lap|op]
//
// Prints a human-readable summary on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics from an untraced window of the
// plain workload variant; --trace 1 reports the per-layer metrics: layer
// counters from such a window, then spans from a window of the traced
// variant, set up afresh. --drop-span (self-test) stops the tracer
// recording that span kind, which the coverage check must reject. See
// NOTES.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace appbench {

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(int index, const Schedule& sched, std::size_t trace_capacity,
               unsigned sample_every)
    : index_(index), sched_(sched), tracer_(trace_capacity),
      sample_every_(sample_every) {
  for (auto& c : committed_) c.assign(static_cast<std::size_t>(sched.seconds), 0);
}

void Client::file(TxnClass cls, std::uint64_t t0, std::uint64_t t1) {
  if (t1 < sched_.untraced_t0) return;  // warm-up
  std::uint64_t rel = t1 - sched_.untraced_t0;
  if (rel < sched_.window_ns()) {
    lat_[static_cast<int>(cls)].record(t1 - t0);
    ++committed_[0][rel / Schedule::kSecondNs];
    return;
  }
  if (sched_.traced_t0 == 0 || t1 < sched_.traced_t0) return;
  tracing_ = true;
  rel = t1 - sched_.traced_t0;
  if (rel < sched_.window_ns()) ++committed_[1][rel / Schedule::kSecondNs];
}

double LatencyHistogram::percentile(double p) const noexcept {
  if (total_ == 0) return 0.0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total_))), 1,
      total_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    if (below + counts_[i] >= rank) {
      double low = static_cast<double>(i);
      double width = 1.0;
      if (i >= 256) {
        const std::size_t shift = (i - 256) / 128 + 1;
        width = static_cast<double>(std::uint64_t{1} << shift);
        low = static_cast<double>((i - 256) % 128 + 128) * width;
      }
      const double within = (static_cast<double>(rank - below) - 0.5) /
                            static_cast<double>(counts_[i]);
      return low + width * within;
    }
    below += counts_[i];
  }
  return 0.0;
}

namespace {

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Resident set size of the process now, in MB (0 if unreadable).
double rss_mb_now() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void sleep_until_ns(std::uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(static_cast<std::int64_t>(t))));
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

/// Client threads. The host has 4 vCPUs: three clients leave one core for
/// the WAL group committer and the harness.
constexpr int kClients = 3;
/// Set-ups per run; `setup_s` is their median.
constexpr int kSetupReps = 25;
/// Untimed run before each measured window, so lazily grown state and
/// caches settle first.
constexpr std::uint64_t kWarmupNs = 2'000'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string scratch;
  bool lazy_stm = false;
  std::string trace_out;
  std::uint32_t drop_spans = 0;  // Tracer::drop_kinds mask
};

/// --drop-span value -> mask of span kinds.
std::uint32_t drop_mask(const std::string& name) {
  const auto bit = [](SpanKind k) {
    return std::uint32_t{1} << static_cast<unsigned>(k);
  };
  if (name == "body") return bit(SpanKind::Body);
  if (name == "commit") return bit(SpanKind::Commit);
  if (name == "lap") return bit(SpanKind::LapAcquire) | bit(SpanKind::LapPostOp);
  if (name == "op") {
    return ((std::uint32_t{1} << static_cast<unsigned>(Op::kCount)) - 1)
           << static_cast<unsigned>(SpanKind::OpBase);
  }
  throw std::invalid_argument("--drop-span must be body, commit, lap or op");
}

const WorkloadSpec& spec_of(const std::string& name) {
  for (const WorkloadSpec* s : {&kLedger, &kOrderbook, &kJobsWal}) {
    if (name == s->name) return *s;
  }
  throw std::invalid_argument("--workload must be ledger, orderbook or jobs_wal");
}

long parse_long(const std::string& flag, const char* s, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) {
    throw std::invalid_argument("bad value for " + flag + ": " + s);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(parse_long(flag, v, 0, 1L << 62));
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(parse_long(flag, v, 1, 3600));
    } else if (flag == "--trace") {
      a.trace = parse_long(flag, v, 0, 1) == 1;
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--stm-mode") {
      if (std::string(v) != "lazy") {
        throw std::invalid_argument("--stm-mode only accepts lazy");
      }
      a.lazy_stm = true;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--drop-span") {
      a.drop_spans = drop_mask(v);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  spec_of(a.workload);
  if (a.scratch.empty()) throw std::invalid_argument("--scratch is required");
  if (a.lazy_stm && a.workload != "ledger") {
    throw std::invalid_argument("--stm-mode lazy applies to ledger only");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Metrics output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// One run: set-up repetitions, then the measured windows
// ---------------------------------------------------------------------------

/// A constructed workload and its client threads, parked at a start gate
/// until start(). Destruction releases parked threads to quit, stops
/// running ones and joins them all.
class Running {
 public:
  Running(std::unique_ptr<Workload> workload, const WorkloadConfig& cfg,
          std::vector<std::unique_ptr<Client>>& clients)
      : workload_(std::move(workload)), ready_(cfg.clients) {
    try {
      for (int c = 0; c < cfg.clients; ++c) {
        threads_.emplace_back(&Running::client_main, this,
                              std::ref(*clients[static_cast<std::size_t>(c)]));
      }
    } catch (...) {
      stop_and_join();
      throw;
    }
    ready_.wait();
  }
  ~Running() { stop_and_join(); }
  Running(const Running&) = delete;
  Running& operator=(const Running&) = delete;

  Workload& workload() noexcept { return *workload_; }

  void start() { release(kRun); }

  void stop_and_join() {
    stop_.store(true, std::memory_order_relaxed);
    release(kQuit);  // no-op for threads already running
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  static constexpr int kWait = 0, kRun = 1, kQuit = 2;

  void release(int phase) {
    int expected = kWait;
    phase_.compare_exchange_strong(expected, phase, std::memory_order_release);
    phase_.notify_all();
  }

  void client_main(Client& c) {
    ready_.count_down();
    phase_.wait(kWait, std::memory_order_acquire);
    if (phase_.load(std::memory_order_acquire) != kRun) return;
    while (!stop_.load(std::memory_order_relaxed)) workload_->step(c);
  }

  std::unique_ptr<Workload> workload_;
  std::latch ready_;
  std::atomic<int> phase_{kWait};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: joined before the rest goes
};

struct Counters {
  proust::stm::StatsSnapshot stm;
  proust::stm::WalStats wal;
};

Counters take_counters(Workload& w) {
  Counters c;
  c.stm = w.stm().stats().snapshot();
  if (proust::stm::Wal* wal = w.wal()) c.wal = wal->stats();
  return c;
}

/// Committed transactions per second of a window, second by second.
std::vector<double> per_second(const std::vector<std::unique_ptr<Client>>& clients,
                               const Schedule& sched, bool traced_window) {
  std::vector<double> v(static_cast<std::size_t>(sched.seconds), 0.0);
  for (int s = 0; s < sched.seconds; ++s) {
    for (const auto& c : clients) {
      v[static_cast<std::size_t>(s)] +=
          static_cast<double>(c->committed(traced_window, s));
    }
  }
  return v;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Span coverage. A traced transaction is covered when
///  - Body + Commit + Wasted add up to its Call span to within
///    kCoverageAbsNs + kCoverageRel of Call (what they leave out is the
///    call's entry: Txn set-up and the first begin, ~80 ns at the median
///    and under 500 ns at the 99th percentile);
///  - every Op span lies inside its attempt's span (Body, or the attempt's
///    Wasted span), and the committing attempt holds at least one;
///  - every LAP span lies inside an Op span, and every Op of a method that
///    always takes an abstract lock (kOpLocks) holds a LapAcquire.
/// The containment checks are exact: all spans are read off one clock.
constexpr double kCoverageAbsNs = 500.0;
constexpr double kCoverageRel = 0.05;
/// The share of traced transactions that must be covered.
constexpr double kCoverageRequired = 0.99;

struct TraceFigures {
  std::vector<Metric> metrics;
  /// Figures for the stderr summary only: per-wrapper-method spans and the
  /// LAP read-back, which read 0 on a workload that never calls them.
  std::vector<Metric> details;
  double coverage = 0.0;
  std::uint64_t txns = 0;
};

bool inside(const Span& in, const Span& out) {
  return in.start_ns >= out.start_ns &&
         in.start_ns + in.dur_ns <= out.start_ns + out.dur_ns;
}

TraceFigures trace_figures(const std::vector<std::unique_ptr<Client>>& clients,
                           const std::string& trace_out) {
  constexpr auto kinds = static_cast<std::size_t>(SpanKind::OpBase) +
                         static_cast<std::size_t>(Op::kCount);
  std::vector<LatencyHistogram> by_kind(kinds);
  LatencyHistogram op_self;
  LatencyHistogram ops[2];  // [0] reads, [1] writes
  double wasted_total = 0.0;
  double lap_total = 0.0;
  std::uint64_t txns = 0;
  std::uint64_t covered = 0;
  std::FILE* out = trace_out.empty() ? nullptr : std::fopen(trace_out.c_str(), "w");
  if (out != nullptr) std::fprintf(out, "client,txn,attempt,kind,start_ns,dur_ns\n");

  std::vector<Span> laps;  // LAP spans since the last Op span closed
  std::vector<Span> opened;  // Op spans since the last attempt span closed
  for (const auto& c : clients) {
    const Tracer& t = c->tracer();
    const Span* spans = t.spans();
    double txn_parts = 0.0;  // body + commit + wasted of the open txn
    bool nested = true;      // the open txn's spans nest as they should
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Span& s = spans[i];
      if (out != nullptr) {
        std::fprintf(out, "%d,%u,%u,%u,%llu,%u\n", c->index(), s.txn, s.attempt,
                     s.kind, static_cast<unsigned long long>(s.start_ns), s.dur_ns);
      }
      by_kind[s.kind].record(s.dur_ns);
      const auto kind = static_cast<SpanKind>(
          std::min<std::uint16_t>(s.kind, static_cast<std::uint16_t>(SpanKind::OpBase)));
      if (kind != SpanKind::LapAcquire && kind != SpanKind::LapPostOp &&
          kind != SpanKind::OpBase && !laps.empty()) {
        nested = false;  // LAP spans outside any Op
        laps.clear();
      }
      switch (kind) {
        case SpanKind::LapAcquire:
        case SpanKind::LapPostOp:
          laps.push_back(s);
          lap_total += s.dur_ns;
          break;
        case SpanKind::OpBase: {
          const std::size_t o = s.kind - op_kind(Op{});
          std::uint64_t lap_ns = 0;
          bool acquired = false;
          for (const Span& l : laps) {
            nested = nested && inside(l, s);
            lap_ns += l.dur_ns;
            acquired = acquired || l.kind == static_cast<std::uint16_t>(SpanKind::LapAcquire);
          }
          nested = nested && (acquired || !kOpLocks[o]);
          laps.clear();
          op_self.record(s.dur_ns > lap_ns ? s.dur_ns - lap_ns : 0);
          ops[kOpWrites[o] ? 1 : 0].record(s.dur_ns);
          opened.push_back(s);
          break;
        }
        case SpanKind::Wasted:
        case SpanKind::Body:
          for (const Span& o : opened) nested = nested && inside(o, s);
          if (kind == SpanKind::Body) nested = nested && !opened.empty();
          if (kind == SpanKind::Wasted) wasted_total += s.dur_ns;
          opened.clear();
          txn_parts += s.dur_ns;
          break;
        case SpanKind::Commit:
          txn_parts += s.dur_ns;
          break;
        case SpanKind::Call: {  // the last span of every kept transaction
          const double call = s.dur_ns;
          const double gap = std::abs(call - txn_parts);
          if (nested && opened.empty() &&
              gap <= kCoverageAbsNs + kCoverageRel * call) {
            ++covered;
          }
          ++txns;
          txn_parts = 0.0;
          nested = true;
          opened.clear();
          break;
        }
      }
    }
    laps.clear();
    opened.clear();
  }
  if (out != nullptr) std::fclose(out);

  TraceFigures f;
  f.txns = txns;
  f.coverage = ratio(static_cast<double>(covered), static_cast<double>(txns));
  const auto pct = [&](SpanKind k, double p) {
    return by_kind[static_cast<std::size_t>(k)].percentile(p);
  };
  const double n = static_cast<double>(txns);
  auto& m = f.metrics;
  m.push_back({"stm.call_p50_ns", pct(SpanKind::Call, 0.50), "ns"});
  m.push_back({"stm.call_p99_ns", pct(SpanKind::Call, 0.99), "ns"});
  m.push_back({"stm.body_p50_ns", pct(SpanKind::Body, 0.50), "ns"});
  m.push_back({"stm.commit_p50_ns", pct(SpanKind::Commit, 0.50), "ns"});
  m.push_back({"stm.commit_p99_ns", pct(SpanKind::Commit, 0.99), "ns"});
  m.push_back({"stm.wasted_ns_per_txn", ratio(wasted_total, n), "ns"});
  const double acquires = static_cast<double>(
      by_kind[static_cast<std::size_t>(SpanKind::LapAcquire)].count());
  m.push_back({"core.lap.acquire_p50_ns", pct(SpanKind::LapAcquire, 0.50), "ns"});
  m.push_back({"core.lap.acquire_p99_ns", pct(SpanKind::LapAcquire, 0.99), "ns"});
  m.push_back({"core.lap.acquires_per_txn", ratio(acquires, n), "count"});
  m.push_back({"core.lap.ns_per_txn", ratio(lap_total, n), "ns"});
  m.push_back({"core.read_op_p50_ns", ops[0].percentile(0.50), "ns"});
  m.push_back({"core.read_op_p99_ns", ops[0].percentile(0.99), "ns"});
  m.push_back({"core.write_op_p50_ns", ops[1].percentile(0.50), "ns"});
  m.push_back({"core.write_op_p99_ns", ops[1].percentile(0.99), "ns"});
  m.push_back({"core.op_self_p50_ns", op_self.percentile(0.50), "ns"});
  auto& d = f.details;
  d.push_back({"core.lap.post_op_p50_ns", pct(SpanKind::LapPostOp, 0.50), "ns"});
  for (std::size_t o = 0; o < static_cast<std::size_t>(Op::kCount); ++o) {
    const LatencyHistogram& h = by_kind[op_kind(static_cast<Op>(o))];
    if (h.count() == 0) continue;
    const std::string stem = std::string("core.") + kOpNames[o];
    d.push_back({stem + "_p50_ns", h.percentile(0.50), "ns"});
    d.push_back({stem + "_p99_ns", h.percentile(0.99), "ns"});
  }
  return f;
}

std::vector<Metric> counter_metrics(const Counters& a, const Counters& b,
                                    double window_s) {
  using proust::stm::AbortReason;
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double commits = d(a.stm.commits, b.stm.commits);
  const double starts = d(a.stm.starts, b.stm.starts);
  const double aborts = d(a.stm.total_aborts(), b.stm.total_aborts());
  const auto abort_of = [&](AbortReason r) {
    const auto i = static_cast<std::size_t>(r);
    return ratio(d(a.stm.aborts[i], b.stm.aborts[i]), commits);
  };
  std::vector<Metric> m;
  m.push_back({"stm.attempts_per_txn", ratio(starts, commits), "count"});
  m.push_back({"stm.abort_ratio", ratio(aborts, starts), "ratio"});
  m.push_back({"stm.aborts.read_locked", abort_of(AbortReason::ReadLocked), "1/txn"});
  m.push_back({"stm.aborts.read_version", abort_of(AbortReason::ReadVersion), "1/txn"});
  m.push_back({"stm.aborts.validation", abort_of(AbortReason::ValidationFailed), "1/txn"});
  m.push_back({"stm.aborts.write_locked", abort_of(AbortReason::WriteLocked), "1/txn"});
  m.push_back({"stm.aborts.visible_reader", abort_of(AbortReason::VisibleReader), "1/txn"});
  m.push_back({"stm.aborts.lock_timeout", abort_of(AbortReason::AbstractLockTimeout), "1/txn"});
  m.push_back({"stm.reads_per_txn", ratio(d(a.stm.reads, b.stm.reads), commits), "count"});
  m.push_back({"stm.writes_per_txn", ratio(d(a.stm.writes, b.stm.writes), commits), "count"});
  m.push_back({"stm.extensions_per_txn",
               ratio(d(a.stm.extensions, b.stm.extensions), commits), "count"});
  m.push_back({"stm.backoff_us_per_txn",
               ratio(d(a.stm.backoff_ns, b.stm.backoff_ns) / 1e3, commits), "us"});
  const double fsyncs = d(a.wal.fsyncs, b.wal.fsyncs);
  m.push_back({"wal.records_per_fsync", ratio(d(a.wal.records, b.wal.records), fsyncs),
               "count"});
  m.push_back({"wal.fsyncs_per_s", ratio(fsyncs, window_s), "1/s"});
  m.push_back({"wal.bytes_per_txn", ratio(d(a.wal.bytes, b.wal.bytes), commits), "B"});
  return m;
}

/// Drain the log of a stopped workload, then run its quiescent checks.
/// Returns the drain's time in ms (negative without a log).
double finish(Workload& w, std::vector<std::string>& failures) {
  double flush_ms = -1.0;
  if (proust::stm::Wal* wal = w.wal()) {
    const std::uint64_t t0 = now_ns();
    try {
      wal->flush();
    } catch (const proust::stm::WalUnavailable& e) {
      failures.push_back(std::string("final flush: ") + e.what());
    }
    flush_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  }
  w.final_checks(failures);
  return flush_ms;
}

int run(const Args& a) {
  const std::filesystem::path scratch =
      std::filesystem::absolute(a.scratch) / ("run-" + std::to_string(::getpid()));
  std::filesystem::create_directories(scratch);
  const ScratchDir remove_at_exit(scratch.string());

  // A traced run splits its time between the counter window (plain
  // variant) and the traced window (traced variant).
  Schedule sched;
  sched.seconds = a.trace ? std::max(1, a.seconds / 2) : a.seconds;
  const WorkloadSpec& spec = spec_of(a.workload);

  // Trace buffers are the harness's, allocated before anything is timed.
  constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(
        c, sched, a.trace ? kTraceCapacity : 1, spec.sample_every));
    clients.back()->tracer().drop_kinds(a.drop_spans);
  }

  // Construct the workload several times back to back; the last one is
  // run. `setup_s` times the construction (Stm, LAPs, wrappers, prefill)
  // less its Wal open; the Wal open and the client threads' start are
  // timed apart (see NOTES.md, Steadiness). Starting and joining threads
  // between constructions slowed the next one by a quarter and made it
  // vary with the host, so the threads start once, for the last.
  WorkloadConfig cfg;
  cfg.seed = a.seed;
  cfg.clients = kClients;
  cfg.lazy_ledger = a.lazy_stm;
  std::vector<double> setup_s;
  std::vector<double> wal_open_ms;
  std::unique_ptr<Workload> made;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    made.reset();
    cfg.scratch_dir = (scratch / ("wal-" + std::to_string(rep))).string();
    const std::uint64_t t0 = now_ns();
    made = spec.make(cfg);
    const std::uint64_t open_ns = made->wal_open_ns();
    setup_s.push_back(static_cast<double>(now_ns() - t0 - open_ns) * 1e-9);
    wal_open_ms.push_back(static_cast<double>(open_ns) * 1e-6);
  }
  const std::uint64_t threads_t0 = now_ns();
  auto r = std::make_unique<Running>(std::move(made), cfg, clients);
  const double threads_ms = static_cast<double>(now_ns() - threads_t0) * 1e-6;
  Workload& w = r->workload();
  w.make_streams(cfg);

  sched.untraced_t0 = now_ns() + kWarmupNs;
  r->start();
  sleep_until_ns(sched.untraced_t0);
  const Counters c0 = take_counters(w);
  const double cpu0 = cpu_seconds();
  std::vector<double> rss;  // sampled once a second through the window
  for (int s = 1; s <= sched.seconds; ++s) {
    sleep_until_ns(sched.untraced_t0 + static_cast<std::uint64_t>(s) * Schedule::kSecondNs);
    rss.push_back(rss_mb_now());
  }
  const double cpu_s = cpu_seconds() - cpu0;
  const Counters c1 = take_counters(w);
  r->stop_and_join();
  std::vector<std::string> failures;
  double flush_ms = finish(w, failures);

  if (a.trace) {
    // The traced variant, set up afresh and warmed up like the plain one.
    r.reset();
    cfg.traced = true;
    cfg.scratch_dir = (scratch / "wal-traced").string();
    r = std::make_unique<Running>(spec.make(cfg), cfg, clients);
    r->workload().make_streams(cfg);
    sched.traced_t0 = now_ns() + kWarmupNs;
    r->start();
    sleep_until_ns(sched.traced_t0 + sched.window_ns());
    r->stop_and_join();
    flush_ms = finish(r->workload(), failures);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& c : clients) {
    attempted += c->attempted();
    failed += c->failed();
  }

  LatencyHistogram upd;
  LatencyHistogram rd;
  for (const auto& c : clients) {
    upd.merge(c->latencies(TxnClass::Update));
    rd.merge(c->latencies(TxnClass::Read));
  }
  const std::vector<double> untraced_tps = per_second(clients, sched, false);
  const double txn_per_s = mean(untraced_tps);
  std::fprintf(stderr, "txn/s by second:");
  for (double v : untraced_tps) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\n");
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  if (!a.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"txn_per_s", txn_per_s, "1/s"},
        {"update_p50_us", upd.percentile(0.50) / 1e3, "us"},
        {"update_p99_us", upd.percentile(0.99) / 1e3, "us"},
        {"read_p50_us", rd.percentile(0.50) / 1e3, "us"},
        {"cpu_us_per_txn",
         ratio(cpu_s * 1e6, txn_per_s * static_cast<double>(sched.seconds)), "us"},
    };
  } else {
    metrics = {
        {"read_p99_us", rd.percentile(0.99) / 1e3, "us"},
        {"rss_mb", median(rss), "MB"},
        {"setup.wal_open_ms", median(wal_open_ms), "ms"},
        {"setup.threads_ms", threads_ms, "ms"},
    };
    const std::vector<Metric> counters =
        counter_metrics(c0, c1, static_cast<double>(sched.seconds));
    metrics.insert(metrics.end(), counters.begin(), counters.end());
    const TraceFigures t = trace_figures(clients, a.trace_out);
    metrics.insert(metrics.end(), t.metrics.begin(), t.metrics.end());
    details = t.details;
    if (flush_ms >= 0.0) details.push_back({"wal.flush_ms", flush_ms, "ms"});
    const double traced = mean(per_second(clients, sched, true));
    metrics.push_back({"trace.overhead", ratio(txn_per_s - traced, txn_per_s), "ratio"});
    metrics.push_back({"trace.coverage", t.coverage, "ratio"});
    if (t.txns == 0) {
      failures.push_back("the traced window recorded no transaction");
    } else if (t.coverage < kCoverageRequired) {
      failures.push_back("span coverage " + json_number(t.coverage) + " below " +
                         json_number(kCoverageRequired));
    }
    int full = 0;
    for (const auto& c : clients) full += c->tracer().full() ? 1 : 0;
    std::fprintf(stderr,
                 "trace: %llu txns, coverage %.4f, untraced %.0f vs traced %.0f "
                 "txn/s, %d of %d span buffers filled\n",
                 static_cast<unsigned long long>(t.txns), t.coverage, txn_per_s,
                 traced, full, kClients);
  }

  for (const std::string& why : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  std::fprintf(stderr, "%s seed=%llu: %llu attempted, %llu failed\n", a.workload.c_str(),
               static_cast<unsigned long long>(a.seed),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!details.empty()) std::fprintf(stderr, "details (not in the JSON result):\n");
  for (const Metric& m : details) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = failures.empty() && failed == 0 && attempted > 0;
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace appbench

int main(int argc, char** argv) {
  appbench::Args args;
  try {
    args = appbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "appbench: %s\n", e.what());
    return 2;
  }
  try {
    return appbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "appbench: %s\n", e.what());
    return 1;
  }
}
