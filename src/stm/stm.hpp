// The STM runtime: a global version clock (TL2 GV1),
// a block-allocating stamp source, a conflict detection mode and statistics,
// plus the `atomically` retry loop.
//
// Multiple independent Stm instances may coexist (tests do this), but a
// given transaction touches vars through exactly one Stm, and nested
// `atomically` calls on the same thread must use the same Stm (flat
// nesting).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/backoff.hpp"
#include "common/topology.hpp"
#include "stm/commit_fence.hpp"
#include "stm/contention.hpp"
#include "stm/fwd.hpp"
#include "stm/mvcc.hpp"
#include "stm/options.hpp"
#include "stm/stats.hpp"
#include "stm/thread_registry.hpp"
#include "stm/txn.hpp"

namespace proust::stm {

class Stm {
 public:
  explicit Stm(Mode mode = Mode::Lazy, StmOptions options = {})
      : mode_(mode), options_(options), id_(next_id()) {
    if (options_.mvcc) {
      mvcc_ = std::make_unique<MvccState>(ThreadRegistry::kMaxSlots,
                                          options_.numa_placement);
    }
    if (options_.pinning != topo::PinPolicy::None) {
      pin_plan_ = topo::Topology::system().pin_plan(options_.pinning,
                                                    options_.pin_cpus);
    }
  }
  Stm(const Stm&) = delete;
  Stm& operator=(const Stm&) = delete;

  ~Stm() {
    for (std::atomic<StampCell*>& cell : numa_stamp_cells_) {
      if (StampCell* p = cell.load(std::memory_order_acquire)) {
        p->~StampCell();
        topo::free_onnode(p, sizeof(StampCell));
      }
    }
  }

  Mode mode() const noexcept { return mode_; }
  const StmOptions& options() const noexcept { return options_; }
  Stats& stats() noexcept { return stats_; }

  /// The contention-management table (stm/contention.hpp): per-slot
  /// priorities, the elder word, and the abstract-lock wait arbiter. Only
  /// TimestampAging calls publish into it.
  CmState& cm_state() noexcept { return cm_state_; }

  /// Multi-version snapshot state, or nullptr when StmOptions::mvcc is off
  /// (the Txn hot paths branch on this pointer exactly once).
  MvccState* mvcc_state() noexcept { return mvcc_.get(); }

  Version clock_now() const noexcept {
    return clock_.load(std::memory_order_acquire);
  }

  /// Produce this commit's write version: one `fetch_add` on the global
  /// clock (TL2 GV1). Must be called *after* the committing transaction
  /// holds all of its write locks, which yields two invariants:
  ///  - `wv` postdates lock acquisition: a reader whose `rv >= wv` began
  ///    after this committer's locks were visible, so it can never have
  ///    copied a pre-commit value of ours; and `rv + 1 == wv` proves no
  ///    other writer committed since the reader's snapshot;
  ///  - `wv` exceeds every version the locks displaced (each was released
  ///    by a commit that ticked the clock to it before we could lock), so a
  ///    committed orec's version strictly increases and the exact-version
  ///    compares in read-set validation cannot mistake two committed states
  ///    of one var for each other.
  Version generate_wv() noexcept {
    return clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// A process-unique stamp for `slot` (the calling thread's registry slot).
  /// Threads draw blocks of kStampBlock stamps with a single shared
  /// `fetch_add` and then hand them out from a slot-private cell, so the
  /// per-stamp cost is one private increment. Stamps are globally unique
  /// and strictly increasing per slot — a recycled slot resumes the previous
  /// holder's partially-used block, never reissuing a value.
  std::uint64_t next_stamp(unsigned slot) noexcept {
    StampCell& c = options_.numa_placement == topo::NumaPlacement::Off
                       ? stamp_cells_[slot]
                       : numa_stamp_cell(slot);
    if (c.next == c.end) {
      c.next = stamps_.fetch_add(kStampBlock, std::memory_order_relaxed);
      c.end = c.next + kStampBlock;
    }
    return ++c.next;
  }

  /// Run `body(Txn&)` atomically, retrying on conflict under the configured
  /// contention-management policy. Re-entrant calls on the same thread join
  /// the enclosing transaction (flat nesting). User exceptions abort the
  /// transaction (inverses/finish hooks run) and propagate.
  template <class F>
  auto atomically(F&& body) -> std::invoke_result_t<F&, Txn&> {
    return atomically_impl(std::forward<F>(body), /*declared_ro=*/false);
  }

  /// Like `atomically`, but the caller promises the body performs no writes,
  /// no validated (`read_validate`) reads, and no commit-locked hooks. Under
  /// StmOptions::mvcc every attempt runs as a snapshot reader: it pins a
  /// start timestamp, reads historical versions, and commits without taking
  /// locks or validating — such a call can never abort on conflict. A write
  /// inside the body is a contract violation and throws std::logic_error.
  /// Without mvcc this is identical to `atomically`. Nested calls join the
  /// enclosing transaction unchanged (a read-only body is safe inside any
  /// transaction; the promise only constrains this body, not the parent).
  template <class F>
  auto atomically_ro(F&& body) -> std::invoke_result_t<F&, Txn&> {
    return atomically_impl(std::forward<F>(body), /*declared_ro=*/true);
  }

 private:
  template <class F>
  auto atomically_impl(F&& body, bool declared_ro)
      -> std::invoke_result_t<F&, Txn&> {
    using R = std::invoke_result_t<F&, Txn&>;
    if (Txn* cur = Txn::current()) {
      if (&cur->stm() != this) {
        throw std::logic_error(
            "nested atomically on a different Stm instance");
      }
      return body(*cur);
    }
    Txn tx(*this);
    if (!pin_plan_.empty()) maybe_pin(tx.slot());
    if (declared_ro && mvcc_ != nullptr) tx.mvcc_declared_ = true;
    // The attempts histogram must be fed on every exit path, including a
    // propagating user exception.
    struct CallGuard {
      Stm* stm;
      Txn* tx;
      ~CallGuard() {
        stm->stats_.counters(tx->slot()).count_call(tx->attempt());
      }
    } call_guard{this, &tx};
    // Seed from the thread slot as well as the stack address: stacks are
    // allocated at stride-aligned addresses, so address bits alone give
    // sibling threads correlated backoff sequences.
    Backoff backoff(0x7265747279ULL ^
                        (reinterpret_cast<std::uintptr_t>(&tx) >> 4) ^
                        (std::uint64_t{tx.slot()} * 0x9E3779B97F4A7C15ULL));
    for (;;) {
      try {
        tx.begin();
        if constexpr (std::is_void_v<R>) {
          body(tx);
          tx.commit();
          return;
        } else {
          R result = body(tx);
          tx.commit();
          return result;
        }
      } catch (const ConflictAbort& a) {
        tx.rollback(a.reason);
        pause_between_attempts(tx.slot(), backoff);
      } catch (...) {
        tx.rollback(AbortReason::Explicit);
        throw;
      }
    }
  }

 private:
  friend class Txn;

  static std::uint64_t steady_now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Inter-attempt pause: bounded exponential backoff under both policies,
  /// timed into stats.
  void pause_between_attempts(unsigned slot, Backoff& backoff) {
    const std::uint64_t t0 = steady_now_ns();
    backoff.pause();
    stats_.counters(slot).add<Stat::backoff_ns>(steady_now_ns() - t0);
  }

  /// Stamps handed out per thread slot; padded so neighbouring slots never
  /// share a cache line. Exclusively owned by the slot's current holder
  /// (handoff is ordered by the ThreadRegistry mutex).
  struct alignas(kCacheLine) StampCell {
    std::uint64_t next = 0;
    std::uint64_t end = 0;
  };
  static constexpr std::uint64_t kStampBlock = 1024;

  static std::uint64_t next_id() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Bind the slot's thread to its planned CPU, once per (thread, Stm). The
  /// marker is the Stm's process-unique id, not its address, so a new Stm
  /// reusing a destroyed one's storage still re-pins.
  void maybe_pin(unsigned slot) noexcept {
    thread_local std::uint64_t pinned_for = 0;
    if (pinned_for == id_) return;
    pinned_for = id_;
    topo::pin_self_to(
        pin_plan_[static_cast<std::size_t>(slot) % pin_plan_.size()]);
  }

  /// Node-local stamp cell, allocated lazily by the owning slot so the
  /// first touch (and, with libnuma, the explicit placement) happens on the
  /// slot's node. Only reached when numa_placement != Off; the default
  /// config keeps the constructor-touched inline array and pays nothing.
  StampCell& numa_stamp_cell(unsigned slot) noexcept {
    StampCell* p = numa_stamp_cells_[slot].load(std::memory_order_acquire);
    if (p == nullptr) [[unlikely]] {
      p = new (topo::alloc_onnode(sizeof(StampCell), -1)) StampCell{};
      numa_stamp_cells_[slot].store(p, std::memory_order_release);
    }
    return *p;
  }

  alignas(kCacheLine) std::atomic<Version> clock_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> stamps_{0};
  std::array<StampCell, ThreadRegistry::kMaxSlots> stamp_cells_{};
  std::array<std::atomic<StampCell*>, ThreadRegistry::kMaxSlots>
      numa_stamp_cells_{};
  std::vector<int> pin_plan_;
  Mode mode_;
  StmOptions options_;
  Stats stats_;
  CmState cm_state_;
  std::unique_ptr<MvccState> mvcc_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Fast-path admission, inline. These run once per unlocked read; defining
// them here (below Stm, whose clock the cut consults) keeps the per-lookup
// cost to the loads themselves instead of a cross-TU call and its spills.
// The cold edges — extension, the own-pin / own-fence excuses, chaos — stay
// out of line in txn.cpp.
// ---------------------------------------------------------------------------

inline bool Txn::unlocked_reads_valid(bool fences_entered) const noexcept {
  // LoadLoad barrier: order the caller's preceding base-structure reads
  // (and any data reads since the last validation) before the word
  // re-loads — the seqlock reader-side recipe.
  std::atomic_thread_fence(std::memory_order_acquire);
  for (const detail::SeqReadEntry& e : arena_.seq_reads) {
    const std::uint64_t w = e.word->load(std::memory_order_acquire);
    if (w == e.observed) [[likely]] continue;
    // One past the observed (even) value with the pin being our own: this
    // attempt read the stripe and later mutated it. The eager mutation is
    // guarded by the abstract lock + undo hooks, so the admitted read stays
    // coherent with this transaction's own view.
    if (w == e.observed + 1 && holds_seq_word(e.word)) continue;
    return false;
  }
  return unlocked_fence_reads_valid(fences_entered);
}

inline bool Txn::unlocked_fence_reads_valid(
    bool fences_entered) const noexcept {
  for (const detail::FenceReadEntry& e : arena_.fence_reads) {
    const std::uint64_t w = e.fence->word();
    if (w == e.observed) [[likely]] continue;
    // At commit time this transaction has entered its own registered
    // fences; exactly one own open bracket on top of the observed
    // quiescent word is not a foreign replay.
    if (fences_entered && w == e.observed + CommitFence::kEntry &&
        owns_fence(e.fence)) {
      continue;
    }
    return false;
  }
  return true;
}

inline bool Txn::fast_read_cut() {
  // Every admitted unlocked read must still hold before the serialization
  // point can move to "now". A miss is permanent (the words are monotone),
  // so it aborts rather than falls back.
  if (!unlocked_reads_valid(/*fences_entered=*/false)) {
    throw ConflictAbort{AbortReason::ValidationFailed};
  }
  // Unlocked reads carry no version, so admitting one is only sound at a
  // cut where the *entire* read set is current. An unmoved clock proves no
  // writer committed since rv_; otherwise a non-empty STM read set forces a
  // full extension.
  if (!arena_.reads.empty() && stm_.clock_now() != rv_) [[unlikely]] {
    if (snapshot_frozen_) return false;  // cannot extend; use the slow path
    extend_or_abort();
  }
  return true;
}

inline bool Txn::admit_unlocked_read(const std::atomic<std::uint64_t>* word,
                                     std::uint64_t observed) {
  assert(active_ && !mvcc_reader_);
  if (arena_.seq_reads.size() + arena_.fence_reads.size() >=
      kMaxUnlockedReads) {
    return false;
  }
  // Inlined fast_read_cut with the dedup probe fused into the validation
  // scan — one pass over the entries instead of two. Semantics match
  // fast_read_cut exactly: a moved word without the own-pin excuse is a
  // permanent miss (the words are monotone), so it aborts.
  std::atomic_thread_fence(std::memory_order_acquire);
  bool covered = false;
  for (const detail::SeqReadEntry& e : arena_.seq_reads) {
    const std::uint64_t w = e.word->load(std::memory_order_acquire);
    if (w != e.observed) [[unlikely]] {
      if (!(w == e.observed + 1 && holds_seq_word(e.word))) {
        throw ConflictAbort{AbortReason::ValidationFailed};
      }
    }
    covered |= (e.word == word);
  }
  if (!arena_.fence_reads.empty() &&
      !unlocked_fence_reads_valid(/*fences_entered=*/false)) [[unlikely]] {
    throw ConflictAbort{AbortReason::ValidationFailed};
  }
  // See fast_read_cut: a non-empty STM read set forces proof of a current
  // cut (unmoved clock) or a full extension.
  if (!arena_.reads.empty() && stm_.clock_now() != rv_) [[unlikely]] {
    if (snapshot_frozen_) return false;  // cannot extend; use the slow path
    extend_or_abort();
  }
  // Re-check after the cut: the extension may have admitted a clock that a
  // mutator of this very stripe advanced.
  if (word->load(std::memory_order_acquire) != observed) return false;
  if (!covered) arena_.seq_reads.push_back({word, observed});
  stats_.add<Stat::fastpath_hits>();
  return true;
}

inline bool Txn::admit_unlocked_fence_read(const CommitFence* fence,
                                           std::uint64_t observed) {
  assert(active_ && !mvcc_reader_);
  assert(CommitFence::quiescent(observed));
  if (arena_.seq_reads.size() + arena_.fence_reads.size() >=
      kMaxUnlockedReads) {
    return false;
  }
  if (!fast_read_cut()) return false;
  if (fence->word() != observed) return false;
  for (const detail::FenceReadEntry& e : arena_.fence_reads) {
    if (e.fence == fence) {
      stats_.add<Stat::fastpath_hits>();
      return true;
    }
  }
  arena_.fence_reads.push_back({fence, observed});
  stats_.add<Stat::fastpath_hits>();
  return true;
}

}  // namespace proust::stm
