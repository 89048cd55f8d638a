// Progress watchdog: an optional sentinel thread that watches one Stm for a
// commit epoch that stops advancing while transactions are still active —
// the observable signature of livelock or of a user transaction stuck inside
// its body. Detection is entirely passive (periodic stats snapshots plus
// reads of the contention-management slot table); nothing on the
// transaction hot path knows the watchdog exists.
//
// On a stall the watchdog assembles a StallReport — per-slot diagnostics
// (attempt counts, held abstract-lock stripes, call age) and the chaos seed
// when fault injection is active so the hang is replayable — and delivers
// it to StmOptions::on_stall (stderr when unset). It then escalates by
// crowning the *oldest* active transaction as the elder
// (CmState::force_elder): committers defer to it and lock waiters shed, the
// same starvation-recovery protocol TimestampAging runs, applied by force.
//
// The slot table is only populated under CmPolicy::TimestampAging. Under
// the default ExponentialBackoff the watchdog sees the counters alone: it
// detects a stall as attempt starts advancing while no commit lands (a
// livelock), reports no per-slot entries, and cannot escalate; a single
// call stuck inside its body starts nothing and goes unreported.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "stm/fwd.hpp"

namespace proust::stm {

/// What the watchdog saw when commits stopped advancing while work was
/// active. Delivered on the watchdog thread; handlers must not run
/// transactions on the watched Stm.
struct StallReport {
  struct SlotInfo {
    unsigned slot = 0;
    std::uint32_t attempts = 0;  // attempts of the slot's current call
    std::uint32_t stripes = 0;   // abstract-lock stripes currently held
    std::uint64_t birth = 0;     // call age stamp (smaller = older)
    std::uint64_t priority = 0;  // published priority (lower = stronger)
  };

  std::uint64_t stalled_ns = 0;  // stall duration so far
  std::uint64_t commits = 0;     // committed attempts at detection time
  std::uint64_t starts = 0;      // begun attempts at detection time
  std::uint64_t chaos_seed = 0;  // replay seed; 0 = no chaos policy active
  unsigned boosted_slot = ~0u;   // slot escalated to elder, or ~0u
  std::vector<SlotInfo> active;  // active slots (TimestampAging only)

  std::string to_string() const;
};

class Stm;

/// The sentinel thread. Construction starts it; destruction (or stop())
/// joins it. One watchdog per Stm; keep it alive only while worker threads
/// run (it holds a reference to the Stm).
class Watchdog {
 public:
  struct Config {
    /// Snapshot cadence.
    std::chrono::nanoseconds poll = std::chrono::milliseconds(2);
    /// How long the commit count may sit still (with work active) before a
    /// StalledEpoch report fires.
    std::chrono::nanoseconds stall_after = std::chrono::milliseconds(50);
    /// Crown the oldest active transaction as elder on a stall.
    bool escalate = true;
  };

  explicit Watchdog(Stm& stm);
  Watchdog(Stm& stm, Config cfg);
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog();

  /// Idempotent; joins the sentinel thread.
  void stop();

  std::uint64_t stalls() const noexcept {
    return stalls_.load(std::memory_order_acquire);
  }
  std::uint64_t escalations() const noexcept {
    return escalations_.load(std::memory_order_acquire);
  }

 private:
  void run();
  void deliver(const StallReport& report);

  Stm& stm_;
  Config cfg_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> escalations_{0};
  std::thread thread_;
};

}  // namespace proust::stm
