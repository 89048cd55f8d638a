#include "stm/contention.hpp"

namespace proust::stm {

namespace {

/// Backoff / None: the trivial inter-attempt policies. They never
/// arbitrate (requester-aborts, the pre-CM behavior) and track per-slot
/// state only when the watchdog asks for it (cm_progress_tracking).
class TrivialCm final : public ContentionManager {
 public:
  TrivialCm(CmState& state, CmPolicy policy, bool tracking) noexcept
      : ContentionManager(state, tracking), policy_(policy) {}

  const char* name() const noexcept override { return to_string(policy_); }

  void pause(Backoff& backoff) override {
    if (policy_ == CmPolicy::ExponentialBackoff) backoff.pause();
    // None: retry immediately
  }

 private:
  CmPolicy policy_;
};

/// Work-weighted priority: karma is the reads + writes a call performed
/// across its aborted attempts, so the side that would waste more work by
/// aborting wins the conflict. The mapping keeps `priority` strictly below
/// kCmIdlePriority so an active zero-karma transaction is distinguishable
/// from an idle slot.
class KarmaCm final : public ContentionManager {
 public:
  explicit KarmaCm(CmState& state) noexcept
      : ContentionManager(state, /*tracking=*/true) {}

  const char* name() const noexcept override { return "karma"; }

  std::uint64_t priority(std::uint64_t /*birth*/,
                         std::uint64_t karma) const noexcept override {
    return karma >= kCmIdlePriority - 1 ? 0 : kCmIdlePriority - 1 - karma;
  }

  CmDecision arbitrate(std::uint64_t self_pri,
                       std::uint64_t opp_pri) const noexcept override {
    if (self_pri < opp_pri) return CmDecision::kAbortOther;
    if (self_pri > opp_pri) return CmDecision::kAbortSelf;
    return CmDecision::kWait;  // equal karma: bounded wait, then yield
  }

  void pause(Backoff& backoff) override { backoff.pause(); }
};

/// Oldest-transaction-wins: priority is the call's birth stamp, which
/// totally orders every pair of calls — a starving transaction eventually
/// outranks all newcomers, and two distinct calls can never tie.
class TimestampAgingCm final : public ContentionManager {
 public:
  explicit TimestampAgingCm(CmState& state) noexcept
      : ContentionManager(state, /*tracking=*/true) {}

  const char* name() const noexcept override { return "aging"; }

  std::uint64_t priority(std::uint64_t birth,
                         std::uint64_t /*karma*/) const noexcept override {
    return birth;
  }

  CmDecision arbitrate(std::uint64_t self_pri,
                       std::uint64_t opp_pri) const noexcept override {
    if (self_pri < opp_pri) return CmDecision::kAbortOther;
    if (self_pri > opp_pri) return CmDecision::kAbortSelf;
    return CmDecision::kWait;  // only vs. boosted (pri 0) peers
  }

  void pause(Backoff& backoff) override { backoff.pause(); }
};

}  // namespace

ContentionManager::~ContentionManager() { remove_lock_arbiter(); }

std::uint64_t ContentionManager::priority(std::uint64_t /*birth*/,
                                          std::uint64_t /*karma*/)
    const noexcept {
  // Non-priority policies publish the weakest active priority: they never
  // doom anyone, and everyone outranks them.
  return kCmIdlePriority - 1;
}

CmDecision ContentionManager::arbitrate(std::uint64_t /*self_pri*/,
                                        std::uint64_t /*opp_pri*/)
    const noexcept {
  return CmDecision::kAbortSelf;  // classic requester-aborts
}

sync::CmWaitVerdict ContentionManager::on_contended_park(
    const void* /*lock*/, bool /*write*/, unsigned round) noexcept {
  const unsigned elder = state_->elder();
  if (elder == 0) return sync::CmWaitVerdict::kKeepWaiting;
  if (elder == ThreadRegistry::slot() + 1) {
    return sync::CmWaitVerdict::kKeepWaiting;  // the elder itself never sheds
  }
  // A starving elder is published: shed this wait queue after one park so
  // the locks the elder needs drain instead of growing new waiters. The
  // give-up surfaces as an acquisition timeout — abort, release, retry —
  // which is exactly the recovery the elder window needs from everyone else.
  return round >= 1 ? sync::CmWaitVerdict::kGiveUp
                    : sync::CmWaitVerdict::kKeepWaiting;
}

std::unique_ptr<ContentionManager> make_contention_manager(
    const StmOptions& options, CmState& state) {
  switch (options.cm_policy) {
    case CmPolicy::Karma:
      return std::make_unique<KarmaCm>(state);
    case CmPolicy::TimestampAging:
      return std::make_unique<TimestampAgingCm>(state);
    default:
      return std::make_unique<TrivialCm>(state, options.cm_policy,
                                         options.cm_progress_tracking);
  }
}

}  // namespace proust::stm
