// Closed-loop client harness shared by the three workloads. Each client
// thread replays its own pre-generated op stream, one transaction at a
// time, waiting for every Stm::atomically call to return before issuing
// the next. The run is split into a warm-up and an untraced window of the
// plain workload variant (the end-to-end metrics and the layer counters)
// and, for --trace 1, a warm-up and a traced window of the traced variant
// (the spans). A client files each committed transaction into the window
// its call returned in; per-second commit counts are kept too, for the
// run's stderr summary.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "stm/stm.hpp"
#include "stm/wal.hpp"
#include "trace.hpp"

namespace appbench {

/// SplitMix64: the benchmark's own input generator, so inputs depend only
/// on the seed and never on the runtime's sources.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) noexcept : s_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

 private:
  std::uint64_t s_;
};

/// Seed of client `c`'s stream (and of the shared prefill, c = -1).
inline std::uint64_t stream_seed(std::uint64_t seed, int c) noexcept {
  return InputRng(seed * 0x100000001B3ULL + static_cast<std::uint64_t>(c + 1))
      .next();
}

/// Owns a scratch directory: removes it, and everything in it, when it
/// goes out of scope.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string p) : path(std::move(p)) {}
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

enum class TxnClass { Update = 0, Read = 1 };

/// Log-linear latency histogram over [0, 2^32) ns: exact below 256 ns,
/// then 128 buckets per power of two (under 0.8% wide). Fixed size, so
/// recording never allocates and the harness's memory does not grow with
/// throughput.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 256 + 24 * 128;

  void record(std::uint64_t ns) noexcept {
    ++counts_[index(std::min<std::uint64_t>(ns, UINT32_MAX))];
    ++total_;
  }
  std::uint64_t count() const noexcept { return total_; }
  void merge(const LatencyHistogram& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  /// Nearest-rank percentile (p in (0,1]), interpolated inside its bucket;
  /// 0 when empty.
  double percentile(double p) const noexcept;

 private:
  static std::size_t index(std::uint64_t v) noexcept {
    const int shift = std::max(0, static_cast<int>(std::bit_width(v)) - 8);
    if (shift == 0) return static_cast<std::size_t>(v);
    return 256 + static_cast<std::size_t>(shift - 1) * 128 +
           static_cast<std::size_t>((v >> shift) - 128);
  }

  std::uint32_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

/// Run timetable, fixed before the clients start (steady-clock ns).
struct Schedule {
  static constexpr std::uint64_t kSecondNs = 1'000'000'000;
  int seconds = 1;                 // one window's length
  std::uint64_t untraced_t0 = 0;   // untraced window start
  std::uint64_t traced_t0 = 0;     // traced window start (0 = no trace)
  std::uint64_t window_ns() const noexcept {
    return static_cast<std::uint64_t>(seconds) * kSecondNs;
  }
};

class Client {
 public:
  /// `sample_every`: in the traced window, trace one stream period in this
  /// many.
  Client(int index, const Schedule& sched, std::size_t trace_capacity,
         unsigned sample_every);

  int index() const noexcept { return index_; }

  /// Workloads call this at the start of every stream period (the
  /// fixed-ratio block of transactions their stream repeats).
  void begin_period() noexcept {
    trace_period_ = tracing_ && !tracer_.full() &&
                    period_ % sample_every_ == 0;
    ++period_;
  }

  /// Run one client transaction. Returns the body's result, or nullopt
  /// when the call failed (WalUnavailable); failures count against
  /// attempted.
  template <class Body>
  auto txn(proust::stm::Stm& stm, TxnClass cls, Body&& body)
      -> std::optional<std::invoke_result_t<Body&, proust::stm::Txn&>> {
    using R = std::invoke_result_t<Body&, proust::stm::Txn&>;
    static_assert(!std::is_void_v<R>, "client bodies return their result");
    const std::uint64_t t0 = now_ns();
    const bool traced = trace_period_;
    if (traced) {
      tracer_.begin_txn(seq_);
      tls_tracer = &tracer_;
    }
    ++seq_;
    ++attempted_;
    std::optional<R> r;
    try {
      if (traced) {
        r = stm.atomically([&](proust::stm::Txn& tx) {
          tracer_.attempt_begin(tx.attempt(), now_ns());
          R v = body(tx);
          tracer_.body_end(now_ns());
          return v;
        });
      } else {
        r = stm.atomically(body);
      }
    } catch (const proust::stm::WalUnavailable&) {
      ++failed_;
    }
    const std::uint64_t t1 = now_ns();
    if (traced) {
      tls_tracer = nullptr;
      if (r) {
        tracer_.end_txn(t0, t1);
      } else {
        tracer_.abandon_txn();
      }
    }
    if (r) file(cls, t0, t1);
    return r;
  }

  /// A committed transaction whose observed result failed its check.
  void fail() noexcept { ++failed_; }

  // --- Results, read after the client thread has been joined -------------
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const Tracer& tracer() const noexcept { return tracer_; }
  Tracer& tracer() noexcept { return tracer_; }
  /// Latencies of class `cls` committed in the untraced window.
  const LatencyHistogram& latencies(TxnClass cls) const {
    return lat_[static_cast<int>(cls)];
  }
  /// Transactions committed in second `s` of the (un)traced window.
  std::uint64_t committed(bool traced_window, int s) const {
    return committed_[traced_window ? 1 : 0][static_cast<std::size_t>(s)];
  }

 private:
  void file(TxnClass cls, std::uint64_t t0, std::uint64_t t1);

  int index_;
  const Schedule& sched_;
  Tracer tracer_;
  unsigned sample_every_;
  bool tracing_ = false;
  bool trace_period_ = false;
  std::uint64_t period_ = 0;
  std::uint32_t seq_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  LatencyHistogram lat_[2];
  std::vector<std::uint64_t> committed_[2];
};

struct WorkloadConfig {
  std::uint64_t seed = 0;
  int clients = 0;
  /// Scratch directory for the log (jobs_wal); created and removed by the
  /// workload.
  std::string scratch_dir;
  /// Ledger only: run under Mode::Lazy (the non-opaque negative control).
  bool lazy_ledger = false;
  /// Build the traced variant (TimedLap, Op spans) instead of the plain one.
  bool traced = false;
};

/// One workload: the structures under test, the client streams, and the
/// output checks. Constructed (prefill, Wal open) during the timed set-up;
/// `step` runs on the client threads.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual proust::stm::Stm& stm() = 0;
  /// The attached log, or null.
  virtual proust::stm::Wal* wal() { return nullptr; }
  /// How long constructing the workload spent opening its log.
  virtual std::uint64_t wal_open_ns() const { return 0; }
  /// Generate every client's op stream from cfg.seed. Runs after the
  /// timed set-up, before the clients start: the streams are the
  /// benchmark's inputs, not the program's set-up work.
  virtual void make_streams(const WorkloadConfig& cfg) = 0;
  /// Run the client's next stream transaction.
  virtual void step(Client& c) = 0;
  /// Quiescent checks after the clients stopped: structure invariants and
  /// (with a log) recovery. Appends a reason per failed check.
  virtual void final_checks(std::vector<std::string>& failures) = 0;
};

struct WorkloadSpec {
  const char* name;
  /// In the traced window, one stream period in this many is traced: the
  /// rate keeps a window's spans inside the preallocated buffers.
  unsigned sample_every;
  std::unique_ptr<Workload> (*make)(const WorkloadConfig&);
};

/// WorkloadSpec::make for a workload class template W<kTraced>.
template <template <bool> class W>
std::unique_ptr<Workload> make_variant(const WorkloadConfig& cfg) {
  if (cfg.traced) return std::make_unique<W<true>>(cfg);
  return std::make_unique<W<false>>(cfg);
}

extern const WorkloadSpec kLedger;
extern const WorkloadSpec kOrderbook;
extern const WorkloadSpec kJobsWal;

}  // namespace appbench
