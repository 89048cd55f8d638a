// Contention management (§7): what a transaction does between attempts AND
// what it does the moment it detects a conflict — the coupling the paper's
// §7 laments is usually missing.
//
// Two policies (StmOptions::cm_policy):
//
//   ExponentialBackoff — the paper's baseline and the default: conflicts are
//     resolved requester-aborts and the retry sleeps a randomized, bounded
//     exponential backoff. Nothing is published; the hot path carries one
//     never-taken branch per CM gate.
//
//   TimestampAging — oldest-transaction-wins. Each call publishes its state
//     in the CmState table below; a conflicting transaction compares its
//     priority (the call's birth stamp, or 0 for the elder) against its
//     opponent's and either aborts itself, waits (bounded), or requests the
//     opponent's abort (a `doom` flag the victim polls at its next read/
//     write/commit gate — never past its commit point). A call whose
//     eligible attempt count passes StmOptions::cm_elder_after publishes
//     itself as the elder: committers defer briefly (bounded by
//     cm_elder_yield) and lock waiters shed (sync/cm_hook.hpp), giving the
//     starving transaction a clean window — the runtime's one per-
//     transaction starvation bound, and it serializes nothing.
//
// Every decision here is a pure function of published priorities — no
// randomness — so chaos runs stay deterministic (the CM consumes nothing
// from the chaos decision streams).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "stm/fwd.hpp"
#include "stm/thread_registry.hpp"
#include "sync/cm_hook.hpp"

namespace proust::stm {

/// Weakest possible priority (idle slots park here; lower = stronger).
inline constexpr std::uint64_t kCmIdlePriority = ~std::uint64_t{0};

/// An aging call's priority: its birth stamp, which totally orders every
/// pair of calls (a starving transaction eventually outranks all
/// newcomers), or 0 — the strongest key — while it is the published elder.
constexpr std::uint64_t cm_priority(std::uint64_t birth, bool elder) noexcept {
  return elder ? 0 : birth;
}

/// What the arbitration tells the transaction that detected the conflict.
enum class CmDecision : std::uint8_t {
  kAbortSelf,   // yield to the opponent (classic requester-aborts)
  kWait,        // sit out a bounded wait, retry, abort self if it persists
  kAbortOther,  // doom the opponent, then wait (bounded) for it to release
};

/// Oldest wins: the stronger (lower) key dooms the weaker. Distinct calls
/// never tie on birth, so kWait only arises against a boosted (priority 0)
/// peer.
constexpr CmDecision cm_arbitrate(std::uint64_t self_pri,
                                  std::uint64_t opp_pri) noexcept {
  if (self_pri < opp_pri) return CmDecision::kAbortOther;
  if (self_pri > opp_pri) return CmDecision::kAbortSelf;
  return CmDecision::kWait;
}

/// One registry slot's published contention state. Written by the slot's
/// running transaction at attempt boundaries (its own cache line — cheap),
/// read by opponents at conflicts and by the watchdog; `doom` is the one
/// field foreign transactions write.
struct alignas(kCacheLine) CmSlot {
  /// Unique id of the slot's current atomically() call; 0 = inactive.
  std::atomic<std::uint64_t> token{0};
  /// Priority key of the current attempt; lower = stronger.
  std::atomic<std::uint64_t> priority{kCmIdlePriority};
  /// Abort request: a stronger transaction stores the victim call's token
  /// here; the victim polls it (doom == my token → abort CmKilled) at its
  /// read/write/commit gates, never past its commit point.
  std::atomic<std::uint64_t> doom{0};
  /// First-attempt stamp of the current call (age; watchdog picks the
  /// oldest active transaction to boost by the smallest birth).
  std::atomic<std::uint64_t> birth{0};
  /// Diagnostics for the watchdog's stall report.
  std::atomic<std::uint32_t> attempts{0};
  std::atomic<std::uint32_t> stripes{0};  // abstract-lock stripes held
};

/// The per-Stm priority table plus the elder word. Also the sync-layer wait
/// arbiter, so the abstract locks' park loops can consult the elder
/// protocol (install explicitly — the hook is process-global, like the
/// chaos lock hook).
class CmState final : public sync::CmLockArbiter {
 public:
  CmState() = default;
  CmState(const CmState&) = delete;
  CmState& operator=(const CmState&) = delete;
  ~CmState() override { remove_lock_arbiter(); }

  CmSlot& slot(unsigned i) noexcept { return slots_[i]; }
  const CmSlot& slot(unsigned i) const noexcept { return slots_[i]; }

  /// Slot + 1 of the published elder, 0 = none.
  unsigned elder() const noexcept {
    return elder_.load(std::memory_order_acquire);
  }

  /// Publish `s` as the elder. An incumbent keeps the word unless the
  /// challenger's published priority is strictly stronger, so at most one
  /// starving transaction at a time is granted the recovery window.
  void publish_elder(unsigned s) noexcept {
    std::uint32_t cur = elder_.load(std::memory_order_acquire);
    const std::uint64_t mine =
        slots_[s].priority.load(std::memory_order_relaxed);
    for (;;) {
      if (cur == s + 1) return;
      if (cur != 0 &&
          slots_[cur - 1].priority.load(std::memory_order_relaxed) <= mine) {
        return;  // incumbent at least as strong
      }
      if (elder_.compare_exchange_weak(cur, s + 1, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return;
      }
    }
  }

  /// Drop the elder claim if `s` holds it (called when the call finishes,
  /// either outcome).
  void clear_elder(unsigned s) noexcept {
    std::uint32_t expect = s + 1;
    elder_.compare_exchange_strong(expect, 0, std::memory_order_acq_rel,
                                   std::memory_order_relaxed);
  }

  /// Watchdog escalation: unconditionally crown `s`. Only the watchdog uses
  /// this (a stalled epoch means nobody is committing, so racing a normal
  /// publish is harmless — commits clear the word again).
  void force_elder(unsigned s) noexcept {
    elder_.store(s + 1, std::memory_order_release);
  }

  /// Call-unique birth stamp (monotone, nonzero): doubles as the doom token
  /// and as the age key. One shared fetch_add per aging atomically() call.
  std::uint64_t next_birth() noexcept {
    return births_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Install/remove this table as the process-wide abstract-lock wait
  /// arbiter (sync/cm_hook.hpp): parked waiters shed while an elder is
  /// published so its abstract locks drain. One arbiter at a time; install
  /// before spawning workers, remove (or destroy the Stm) after joining.
  void install_lock_arbiter() noexcept {
    arbiter_installed_ = true;
    sync::set_cm_lock_arbiter(this);
  }
  void remove_lock_arbiter() noexcept {
    if (arbiter_installed_) {
      sync::set_cm_lock_arbiter(nullptr);
      arbiter_installed_ = false;
    }
  }

  sync::CmWaitVerdict on_contended_park(const void* /*lock*/, bool /*write*/,
                                        unsigned round) noexcept override {
    const unsigned e = elder();
    // No elder, or we are it (the elder itself never sheds): park as usual.
    if (e == 0 || e == ThreadRegistry::slot() + 1) {
      return sync::CmWaitVerdict::kKeepWaiting;
    }
    // A starving elder is published: shed this wait queue after one park so
    // the locks the elder needs drain instead of growing new waiters. The
    // give-up surfaces as an acquisition timeout — abort, release, retry —
    // which is exactly the recovery the elder window needs from everyone
    // else.
    return round >= 1 ? sync::CmWaitVerdict::kGiveUp
                      : sync::CmWaitVerdict::kKeepWaiting;
  }

 private:
  std::array<CmSlot, ThreadRegistry::kMaxSlots> slots_{};
  alignas(kCacheLine) std::atomic<std::uint32_t> elder_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> births_{0};
  bool arbiter_installed_ = false;
};

}  // namespace proust::stm
