// Deterministic runtime fault injection ("chaos") for the STM and the
// Proust wrapper layers. The correctness story of the design space rests on
// its *failure* paths — inverse-log rollback, replay-log dropping,
// abstract-lock release on timeout-abort, elder starvation recovery — and
// those paths only break under adversarial contention. A ChaosPolicy
// manufactures that adversity on demand: each injection point (ChaosPoint in
// fwd.hpp) can inject a spurious abort, a bounded delay/yield, or a forced
// lock timeout, with every decision drawn from a per-thread-slot splitmix64
// stream.
//
// Determinism contract: decision N drawn from slot k's stream is a pure
// function of (config.seed, k, N). A failing run is reproduced by re-running
// with the same seed and thread structure — scheduling still interleaves the
// threads differently, but each thread meets the same decision sequence, so
// the same fault pattern is applied. Single-threaded runs replay bit-exactly
// (tests/chaos_test.cpp pins this).
//
// Disabled-mode cost is zero: the policy hangs off StmOptions::chaos as a
// non-owning pointer, every gate is `if (chaos_ != nullptr) [[unlikely]]`,
// and a null policy leaves the hot paths untouched (the zero-allocation pins
// in tests/stm_alloc_test.cpp and the BENCH_STM.json numbers are unaffected).
//
// The policy also collects what the harness shakes out: per-point injection
// counters (slot-private cells, aggregated on demand) and teardown-leak
// reports — when chaos is active, Txn verifies after every commit/abort/
// timeout path that all orecs, abstract-lock stripes and reader marks were
// released, and files a report here instead of crashing, so the suite can
// assert `leaks() == 0` and still print the reproducing seed on failure.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "stm/fwd.hpp"
#include "stm/thread_registry.hpp"
#include "sync/chaos_hook.hpp"

namespace proust::stm {

/// What an injection point decided to do this time.
enum class ChaosAction : std::uint8_t {
  None,     // pass through, no perturbation
  Abort,    // spurious abort (AbortReason::ChaosInjected)
  Timeout,  // forced lock timeout (lock-acquisition points only)
  Delay,    // bounded busy-spin + optional yield
  Crash,    // kill the process (_exit) — WAL gates only (stm/wal.cpp)
};

constexpr const char* to_string(ChaosAction a) noexcept {
  switch (a) {
    case ChaosAction::None: return "none";
    case ChaosAction::Abort: return "abort";
    case ChaosAction::Timeout: return "timeout";
    case ChaosAction::Delay: return "delay";
    case ChaosAction::Crash: return "crash";
  }
  return "?";
}

/// Per-injection-point probabilities. Points differ in which actions they
/// can honor: ReplayApply and the sync-layer kJoinCas/kPark transitions are
/// delay-only (they sit inside noexcept or lock-internal code and coerce
/// other draws to Delay); forced timeouts fire at LapAcquire and at the RW
/// lock's slow-path entry; everything else supports Abort and Delay.
struct ChaosPointConfig {
  double abort = 0;    // probability of a spurious abort
  double timeout = 0;  // probability of a forced lock timeout
  double delay = 0;    // probability of a bounded delay/yield
  double crash = 0;    // probability of a process kill (WAL gates only)

  bool enabled() const noexcept {
    return abort > 0 || timeout > 0 || delay > 0 || crash > 0;
  }
};

struct ChaosConfig {
  std::uint64_t seed = 1;
  std::array<ChaosPointConfig, kNumChaosPoints> points{};
  /// Injected-delay shape: busy spins, then (optionally) one yield.
  unsigned delay_spins = 256;
  bool delay_yield = true;

  ChaosPointConfig& at(ChaosPoint p) noexcept {
    return points[static_cast<std::size_t>(p)];
  }
  const ChaosPointConfig& at(ChaosPoint p) const noexcept {
    return points[static_cast<std::size_t>(p)];
  }

  /// Moderate faults at every injection point — the chaos suite's default.
  static ChaosConfig standard(std::uint64_t seed) noexcept;
  /// Heavier abort/timeout pressure for targeted stress runs.
  static ChaosConfig aggressive(std::uint64_t seed) noexcept;
};

class ChaosPolicy final : public sync::ChaosLockHook {
 public:
  explicit ChaosPolicy(const ChaosConfig& cfg) noexcept : cfg_(cfg) {}
  ChaosPolicy(const ChaosPolicy&) = delete;
  ChaosPolicy& operator=(const ChaosPolicy&) = delete;
  ~ChaosPolicy() { remove_lock_hook(); }

  const ChaosConfig& config() const noexcept { return cfg_; }
  std::uint64_t seed() const noexcept { return cfg_.seed; }

  /// Draw the calling thread's next decision for `p` and count it. Points
  /// with all-zero probabilities draw nothing (their streams stay aligned
  /// with a config where they are enabled elsewhere).
  ChaosAction decide(ChaosPoint p) noexcept;

  /// Execute one injected delay (bounded spin + optional yield). Decisions
  /// are deterministic; the delay's wall-clock effect of course is not.
  void inject_delay() noexcept;

  /// Install/remove this policy as the process-wide sync-layer hook so the
  /// reentrant RW lock's CAS/park/slow-path transitions inject too. Only
  /// one policy can be installed at a time; install before spawning worker
  /// threads and remove (or destroy the policy) after joining them.
  void install_lock_hook() noexcept {
    hook_installed_ = true;
    sync::set_chaos_lock_hook(this);
  }
  void remove_lock_hook() noexcept {
    if (hook_installed_) {
      sync::set_chaos_lock_hook(nullptr);
      hook_installed_ = false;
    }
  }

  bool on_lock_transition(sync::LockTransition t) noexcept override;

  /// Injection totals per point across all threads (exact when quiesced).
  std::array<std::uint64_t, kNumChaosPoints> injected_totals() const noexcept;
  std::uint64_t injected_total() const noexcept;

  /// Teardown-leak reporting (see Txn::verify_teardown): a finished attempt
  /// that still holds an orec, an abstract-lock stripe or a reader mark
  /// files a report here. The chaos suites assert `leaks() == 0`.
  void report_leak(const char* what) noexcept;
  std::uint64_t leaks() const noexcept {
    return leaks_.load(std::memory_order_acquire);
  }

 private:
  /// One slot's decision stream plus its injection counters; padded so
  /// concurrent threads never share a line.
  struct alignas(kCacheLine) Stream {
    std::uint64_t state = 0;
    bool seeded = false;
    std::array<std::uint64_t, kNumChaosPoints> injected{};
  };

  Stream& my_stream() noexcept;
  static std::uint64_t splitmix_next(std::uint64_t& s) noexcept {
    s += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  ChaosConfig cfg_;
  std::atomic<std::uint64_t> leaks_{0};
  bool hook_installed_ = false;
  std::array<Stream, ThreadRegistry::kMaxSlots> streams_{};
};

}  // namespace proust::stm
