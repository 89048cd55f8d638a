// Span tracing for the traced run. Every span is taken from outside the
// runtime, around a call into one layer's public functions:
//
//   stm   — Stm::atomically (Call), the committing attempt's body (Body),
//           body return .. atomically return (Commit), and each aborted
//           attempt from its begin to the next attempt's begin (Wasted);
//   core  — each wrapper method a workload calls (Op spans, one kind per
//           wrapper method) and the LAP's acquire/post_op, seen through the
//           TimedLap decorator.
//
// Spans carry the client transaction's sequence number and attempt number
// and go into a per-client buffer preallocated before the run; nothing is
// analysed or written until the run ends.
//
// Each workload is compiled twice, through Tracing<false> and
// Tracing<true>. Only the traced variant wraps its LAPs in TimedLap and its
// wrapper calls in Op spans; the untraced variant, which the end-to-end
// metrics are measured on, calls core::OptimisticLap / PessimisticLap and
// the wrappers directly.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "stm/stm.hpp"

namespace appbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The wrapper methods the workloads call, one Op span kind each.
enum class Op : std::uint16_t {
  HashMapGet,
  HashMapPut,
  HashMapRemove,
  QueueEnq,
  PQueueInsert,
  PQueueMin,
  PQueueRemoveMin,
  LazyPQueueInsert,
  LazyPQueueMin,
  LazyPQueueRemoveMin,
  TrieMapGet,
  TrieMapPut,
  CounterIncr,
  CounterDecr,
  kCount,
};

/// Metric-name stem of each Op ("core.<stem>_p50_ns").
inline constexpr const char* kOpNames[] = {
    "TxnHashMap.get",        "TxnHashMap.put",
    "TxnHashMap.remove",     "TxnQueue.enq",
    "TxnPriorityQueue.insert", "TxnPriorityQueue.min",
    "TxnPriorityQueue.remove_min", "LazyPriorityQueue.insert",
    "LazyPriorityQueue.min", "LazyPriorityQueue.remove_min",
    "LazyTrieMap.get",       "LazyTrieMap.put",
    "TxnCounter.incr",       "TxnCounter.decr",
};
static_assert(sizeof(kOpNames) / sizeof(kOpNames[0]) ==
              static_cast<std::size_t>(Op::kCount));

/// Whether each Op changes its structure (else it only reads it).
inline constexpr bool kOpWrites[] = {
    false, true,  true,  true,  true,  false, true,
    true,  false, true,  false, true,  true,  true,
};
static_assert(sizeof(kOpWrites) / sizeof(kOpWrites[0]) ==
              static_cast<std::size_t>(Op::kCount));

/// Whether each Op always goes through its LAP. TxnCounter takes no
/// abstract lock while the counter is at 2 or more.
inline constexpr bool kOpLocks[] = {
    true, true, true, true, true, true,  true,
    true, true, true, true, true, false, false,
};
static_assert(sizeof(kOpLocks) / sizeof(kOpLocks[0]) ==
              static_cast<std::size_t>(Op::kCount));

enum class SpanKind : std::uint16_t {
  Call,
  Body,
  Commit,
  Wasted,
  LapAcquire,
  LapPostOp,
  OpBase,  // OpBase + Op
};

constexpr std::uint16_t op_kind(Op op) noexcept {
  return static_cast<std::uint16_t>(SpanKind::OpBase) +
         static_cast<std::uint16_t>(op);
}

struct Span {
  std::uint64_t start_ns;
  std::uint32_t dur_ns;
  std::uint32_t txn;      // client transaction sequence number
  std::uint16_t kind;     // SpanKind, or op_kind(Op)
  std::uint16_t attempt;  // Txn::attempt() the span belongs to
};

/// One client's span buffer and the bookkeeping of the transaction being
/// traced. Single-threaded: only its client thread touches it until the
/// run ends.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity)
      : buf_(std::make_unique_for_overwrite<Span[]>(capacity)),
        cap_(capacity) {}

  bool full() const noexcept { return full_; }
  std::size_t size() const noexcept { return n_; }
  const Span* spans() const noexcept { return buf_.get(); }

  /// Self-test hook: never record spans of the kinds whose bit is set in
  /// `mask` (bit k = kind k), so the coverage check must reject the run.
  void drop_kinds(std::uint32_t mask) noexcept { drop_mask_ = mask; }

  void record(std::uint16_t kind, std::uint64_t t0, std::uint64_t t1) noexcept {
    if ((drop_mask_ >> kind & 1U) != 0) return;
    if (n_ == cap_) {
      full_ = true;
      return;
    }
    buf_[n_++] = Span{t0, static_cast<std::uint32_t>(t1 - t0), txn_, kind,
                      attempt_};
  }

  void begin_txn(std::uint32_t txn) noexcept {
    txn_ = txn;
    mark_ = n_;
    attempt_ = 0;
    last_begin_ = body_end_ = 0;
  }

  /// Called first thing in every attempt's body. The previous attempt (if
  /// any) aborted: its time up to now — body, rollback, backoff — is waste.
  void attempt_begin(unsigned attempt, std::uint64_t t) noexcept {
    if (last_begin_ != 0) {
      record(static_cast<std::uint16_t>(SpanKind::Wasted), last_begin_, t);
    }
    last_begin_ = t;
    body_end_ = 0;
    attempt_ = static_cast<std::uint16_t>(attempt);
  }

  void body_end(std::uint64_t t) noexcept { body_end_ = t; }

  /// Close a committed transaction. A transaction whose spans did not all
  /// fit is dropped whole, so every kept transaction is complete.
  void end_txn(std::uint64_t call_t0, std::uint64_t call_t1) noexcept {
    record(static_cast<std::uint16_t>(SpanKind::Body), last_begin_, body_end_);
    record(static_cast<std::uint16_t>(SpanKind::Commit), body_end_, call_t1);
    record(static_cast<std::uint16_t>(SpanKind::Call), call_t0, call_t1);
    if (full_) n_ = mark_;
  }

  /// Drop the spans of a transaction that did not commit.
  void abandon_txn() noexcept { n_ = mark_; }

 private:
  std::unique_ptr<Span[]> buf_;
  std::size_t cap_;
  std::size_t n_ = 0;
  std::size_t mark_ = 0;
  bool full_ = false;
  std::uint32_t drop_mask_ = 0;
  std::uint32_t txn_ = 0;
  std::uint16_t attempt_ = 0;
  std::uint64_t last_begin_ = 0;
  std::uint64_t body_end_ = 0;
};

/// The calling client's tracer while it runs a sampled transaction, else
/// null. In the traced variant, unsampled transactions pay one
/// thread-local load and branch per span site.
inline thread_local Tracer* tls_tracer = nullptr;

class SpanScope {
 public:
  explicit SpanScope(std::uint16_t kind) noexcept
      : t_(tls_tracer), kind_(kind), t0_(t_ != nullptr ? now_ns() : 0) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->record(kind_, t0_, now_ns());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  std::uint16_t kind_;
  std::uint64_t t0_;
};

/// LockAllocatorPolicy decorator: forwards to the wrapped LAP and times
/// acquire and post_op. Holds the LAP by value (LAPs are not movable), so
/// it is constructed with the wrapped LAP's own constructor arguments.
template <class Inner, class Key>
class TimedLap {
 public:
  template <class... A>
  explicit TimedLap(A&&... args) : inner_(std::forward<A>(args)...) {}
  TimedLap(const TimedLap&) = delete;
  TimedLap& operator=(const TimedLap&) = delete;

  void acquire(proust::stm::Txn& tx, const Key& key, bool write) {
    SpanScope s(static_cast<std::uint16_t>(SpanKind::LapAcquire));
    inner_.acquire(tx, key, write);
  }
  void post_op(proust::stm::Txn& tx, const Key& key, bool write) {
    SpanScope s(static_cast<std::uint16_t>(SpanKind::LapPostOp));
    inner_.post_op(tx, key, write);
  }
  proust::stm::Stm& stm() noexcept { return inner_.stm(); }

 private:
  Inner inner_;
};

/// How a workload variant reaches the layers: `Lap<Inner, Key>` is the LAP
/// type it instantiates its wrappers with, `op` runs one wrapper method
/// call.
template <bool kTraced>
struct Tracing {
  template <class Inner, class Key>
  using Lap = Inner;
  template <class F>
  static decltype(auto) op(Op, F&& f) {
    return std::forward<F>(f)();
  }
};

template <>
struct Tracing<true> {
  template <class Inner, class Key>
  using Lap = TimedLap<Inner, Key>;
  /// Run the call under its Op span.
  template <class F>
  static decltype(auto) op(Op which, F&& f) {
    SpanScope s(op_kind(which));
    return std::forward<F>(f)();
  }
};

}  // namespace appbench
