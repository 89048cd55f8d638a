// Per-STM statistics: padded per-thread-slot counters, aggregated on demand.
// The benchmark harness reports commit/abort/false-conflict rates from these.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "stm/fwd.hpp"
#include "stm/thread_registry.hpp"

namespace proust::stm {

/// Buckets of the per-call attempt histogram: exact for 1..16 attempts
/// (buckets 0..15), then power-of-two ranges (bucket 16 = 17..32,
/// 17 = 33..64, ...) up to a catch-all tail. Retry distributions are
/// heavy-tailed, so the exact low buckets carry the p50 and the log tail
/// carries the p99/max story.
inline constexpr std::size_t kAttemptBuckets = 32;

constexpr std::size_t attempt_bucket(std::uint64_t attempts) noexcept {
  if (attempts == 0) attempts = 1;
  if (attempts <= 16) return attempts - 1;
  const std::size_t b = 16 + std::bit_width(attempts - 1) - 5;
  return b < kAttemptBuckets ? b : kAttemptBuckets - 1;
}

/// Inclusive upper bound of a histogram bucket (for percentile reporting).
constexpr std::uint64_t attempt_bucket_bound(std::size_t bucket) noexcept {
  return bucket < 16 ? bucket + 1 : std::uint64_t{32} << (bucket - 16);
}

/// How a counter combines across thread slots in Stats::snapshot().
enum class StatAgg : std::uint8_t { Sum, Max };

// Output groups, in to_string()/to_json() order: G(group, text name, JSON
// name). Unnamed groups print their fields bare. A named group prints as
// `name{key=value ...}` in text, only when one of its fields is nonzero,
// and as a nested object in JSON, always.
#define PROUST_STM_STAT_GROUPS(G)       \
  G(Txn, "", "")                        \
  G(Access, "", "")                     \
  G(Attempts, "attempts", "attempts")   \
  G(Wait, "wait", "wait_ns")            \
  G(Mvcc, "mvcc", "mvcc")               \
  G(FastPath, "fastpath", "fastpath")   \
  G(Wal, "wal", "wal")

#define PROUST_STATS_ENUM(name, ...) name,
enum class StatGroup : std::uint8_t {
  PROUST_STM_STAT_GROUPS(PROUST_STATS_ENUM)
};

// The field table: every STM counter, declared once.
//   S(member, aggregation, group, key, unit) — a scalar counter. `key` names
//     it inside its group in to_string() and JSON; `unit` suffixes its text.
//   A(member, size) — an enum-indexed array, summed entry by entry.
// The per-slot cells, the StatsSnapshot members, snapshot(), reset(),
// to_string() and to_json() are all generated from it: a new counter is one
// row here plus its increment site.
#define PROUST_STM_STATS(S, A)                                                \
  S(starts, Sum, Txn, "starts", "")   /* transaction attempts begun */       \
  S(commits, Sum, Txn, "commits", "") /* attempts committed */               \
  A(aborts, kNumAbortReasons)         /* aborted attempts, by reason */      \
  S(reads, Sum, Access, "reads", "")  /* transactional reads */              \
  S(writes, Sum, Access, "writes", "") /* transactional writes */            \
  S(extensions, Sum, Access, "extensions", "") /* timestamp extensions */    \
  /* Chaos faults injected at transaction-level points (stm/chaos.hpp).  */  \
  /* Sync-layer LockTransition injections have no transaction context    */  \
  /* and are counted by the ChaosPolicy itself; that entry stays zero.   */  \
  A(injected, kNumChaosPoints)                                               \
  /* Attempts-per-atomically()-call histogram (one entry per call, see   */  \
  /* attempt_bucket) and the exact worst case.                           */  \
  A(attempts_hist, kAttemptBuckets)                                          \
  S(max_attempts, Max, Attempts, "max", "")                                  \
  /* Wait time: inter-attempt backoff pauses, and bounded contention-    */  \
  /* manager waits at conflicts (incl. elder deference).                 */  \
  S(backoff_ns, Sum, Wait, "backoff", "ns")                                  \
  S(cm_wait_ns, Sum, Wait, "cm", "ns")                                       \
  /* MVCC: commits that took the snapshot read-only path (no read set,   */  \
  /* cannot abort), version-chain entries pushed by writers, entries     */  \
  /* reclaimed through EBR, and the longest chain a pushing writer left. */  \
  S(ro_commits, Sum, Mvcc, "ro_commits", "")                                 \
  S(mvcc_pushed, Sum, Mvcc, "pushed", "")                                    \
  S(mvcc_reclaimed, Sum, Mvcc, "reclaimed", "")                              \
  S(mvcc_chain_max, Max, Mvcc, "chain_max", "")                              \
  /* Optimistic read fast path (DESIGN.md §12): unlocked reads admitted  */  \
  /* without the abstract lock, and eligible attempts that fell back to  */  \
  /* the locked slow path (unstable word, frozen snapshot, chaos).       */  \
  S(fastpath_hits, Sum, FastPath, "hits", "")                                \
  S(fastpath_fallbacks, Sum, FastPath, "fallbacks", "")                      \
  /* Durability (DESIGN.md §14): commits that published redo records,    */  \
  /* records and bytes staged (incl. per-record framing), strict commits */  \
  /* that blocked on the fsync ack and their wait, and commits refused   */  \
  /* because the log had failed (StmOptions::wal_fail_mode).             */  \
  S(wal_publishes, Sum, Wal, "publishes", "")                                \
  S(wal_records, Sum, Wal, "records", "")                                    \
  S(wal_bytes, Sum, Wal, "bytes", "")                                        \
  S(wal_strict_waits, Sum, Wal, "strict_waits", "")                          \
  S(wal_wait_ns, Sum, Wal, "wait", "ns")                                     \
  S(wal_refused, Sum, Wal, "refused", "")

#define PROUST_STATS_SKIP(...)
#define PROUST_STATS_SCALAR_MEMBER(name, ...) std::uint64_t name = 0;
#define PROUST_STATS_ARRAY_MEMBER(name, n) std::array<std::uint64_t, n> name{};

struct StatsSnapshot {
  PROUST_STM_STATS(PROUST_STATS_SCALAR_MEMBER, PROUST_STATS_ARRAY_MEMBER)

  std::uint64_t total_aborts() const noexcept;
  std::uint64_t total_injected() const noexcept;
  double abort_ratio() const noexcept;  // aborts / starts
  std::uint64_t total_calls() const noexcept;  // histogram mass
  /// Upper bound of the bucket holding percentile `p` (0..1) of the
  /// attempts-per-call distribution (exact below 17 attempts; the top
  /// bucket reports max_attempts). 0 when no calls were recorded.
  std::uint64_t attempts_percentile(double p) const noexcept;
  std::string to_string() const;
  /// The same groups as JSON object members (`"starts": 1, ...`, no
  /// enclosing braces), for embedding in a benchmark record. Every group is
  /// present, zero or not, so records share one schema.
  std::string to_json() const;
};

/// Names a scalar counter of the field table (Stats::Counters::add/raise).
enum class Stat : std::uint8_t {
  PROUST_STM_STATS(PROUST_STATS_ENUM, PROUST_STATS_SKIP)
};

/// One scalar row of the field table, indexed by its Stat.
struct StatField {
  std::uint64_t StatsSnapshot::*member;
  StatAgg agg;
  StatGroup group;
  const char* key;
  const char* unit;
};

#define PROUST_STATS_FIELD(name, agg, group, key, unit) \
  {&StatsSnapshot::name, StatAgg::agg, StatGroup::group, key, unit},
inline constexpr StatField kStatFields[] = {
    PROUST_STM_STATS(PROUST_STATS_FIELD, PROUST_STATS_SKIP)};
#undef PROUST_STATS_FIELD
#undef PROUST_STATS_ENUM
#undef PROUST_STATS_ARRAY_MEMBER
#undef PROUST_STATS_SCALAR_MEMBER

class Stats {
  // A slot's cell has the snapshot's layout, padded to its own cache lines.
  struct alignas(kCacheLine) Cell : StatsSnapshot {};

  // Each cell has exactly one writer (its owning slot's thread), but the
  // watchdog aggregates snapshot() while workers are still running. Relaxed
  // atomic_ref load/store pairs keep the single-writer increments tear-free
  // for a concurrent reader without an RMW: both sides compile to plain
  // moves on x86-64, so the hot-path cost is unchanged.
  static std::uint64_t ld(const std::uint64_t& v) noexcept {
    return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(v))
        .load(std::memory_order_relaxed);
  }
  static void st(std::uint64_t& v, std::uint64_t x) noexcept {
    std::atomic_ref<std::uint64_t>(v).store(x, std::memory_order_relaxed);
  }
  static void bump(std::uint64_t& v, std::uint64_t d = 1) noexcept {
    st(v, ld(v) + d);
  }

 public:
  /// A resolved pointer to one thread slot's padded counter cell. Txn caches
  /// one at construction so per-read/per-write accounting is a single
  /// increment instead of a ThreadRegistry::slot() TLS lookup per event.
  class Counters {
   public:
    /// Adds `d` to a Sum counter.
    template <Stat F>
    void add(std::uint64_t d = 1) noexcept {
      constexpr StatField f = kStatFields[static_cast<std::size_t>(F)];
      static_assert(f.agg == StatAgg::Sum, "raise() a Max counter");
      bump(c_->*f.member, d);
    }
    /// Raises a Max counter to at least `v`.
    template <Stat F>
    void raise(std::uint64_t v) noexcept {
      constexpr StatField f = kStatFields[static_cast<std::size_t>(F)];
      static_assert(f.agg == StatAgg::Max, "add() to a Sum counter");
      if (v > ld(c_->*f.member)) st(c_->*f.member, v);
    }
    /// One aborted attempt, or one injected fault, by its enum index.
    void add(AbortReason r) noexcept {
      bump(c_->aborts[static_cast<std::size_t>(r)]);
    }
    void add(ChaosPoint p) noexcept {
      bump(c_->injected[static_cast<std::size_t>(p)]);
    }
    /// One finished atomically() call that needed `attempts` attempts.
    void count_call(std::uint64_t attempts) noexcept {
      bump(c_->attempts_hist[attempt_bucket(attempts)]);
      raise<Stat::max_attempts>(attempts);
    }

   private:
    friend class Stats;
    explicit Counters(Cell* c) noexcept : c_(c) {}
    Cell* c_;
  };

  /// Counter handle for a specific registry slot (must be the caller's own).
  Counters counters(unsigned slot) noexcept { return Counters(&cells_[slot]); }

  StatsSnapshot snapshot() const;
  void reset();

 private:
  std::array<Cell, ThreadRegistry::kMaxSlots> cells_{};
};

}  // namespace proust::stm
