#include "stm/watchdog.hpp"

#include <cstdio>
#include <sstream>

#include "stm/chaos.hpp"
#include "stm/contention.hpp"
#include "stm/stm.hpp"

namespace proust::stm {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string StallReport::to_string() const {
  std::ostringstream os;
  os << "stalled-epoch stalled_ns=" << stalled_ns << " commits=" << commits
     << " starts=" << starts;
  if (chaos_seed != 0) os << " chaos_seed=" << chaos_seed;
  if (boosted_slot != ~0u) os << " boosted=" << boosted_slot;
  for (const SlotInfo& s : active) {
    os << " [slot=" << s.slot << " attempts=" << s.attempts
       << " stripes=" << s.stripes << " birth=" << s.birth
       << " pri=" << s.priority << "]";
  }
  return os.str();
}

Watchdog::Watchdog(Stm& stm) : Watchdog(stm, Config{}) {}

Watchdog::Watchdog(Stm& stm, Config cfg) : stm_(stm), cfg_(cfg) {
  thread_ = std::thread([this] { run(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
}

void Watchdog::deliver(const StallReport& report) {
  const auto& handler = stm_.options().on_stall;
  if (handler) {
    handler(report);
  } else {
    std::fprintf(stderr, "[proust watchdog] %s\n", report.to_string().c_str());
  }
}

void Watchdog::run() {
  const StatsSnapshot first = stm_.stats().snapshot();
  std::uint64_t last_commits = first.commits;
  std::uint64_t last_starts = first.starts;
  std::uint64_t stable_since = now_ns();

  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(cfg_.poll);
    const std::uint64_t now = now_ns();
    const StatsSnapshot snap = stm_.stats().snapshot();

    if (snap.commits != last_commits) {
      last_commits = snap.commits;
      last_starts = snap.starts;
      stable_since = now;
      continue;
    }

    // Epoch is flat. Is anyone actually trying? Two signals: active cells
    // in the CM slot table (TimestampAging publishes them), and attempt
    // starts advancing with zero commits landing (works for both policies).
    StallReport r;
    CmState& cm = stm_.cm_state();
    const unsigned slots = ThreadRegistry::high_water();
    unsigned oldest_slot = ~0u;
    std::uint64_t oldest_birth = ~std::uint64_t{0};
    for (unsigned i = 0; i < slots && i < ThreadRegistry::kMaxSlots; ++i) {
      const CmSlot& cell = cm.slot(i);
      if (cell.token.load(std::memory_order_acquire) == 0) continue;
      StallReport::SlotInfo info;
      info.slot = i;
      info.attempts = cell.attempts.load(std::memory_order_relaxed);
      info.stripes = cell.stripes.load(std::memory_order_relaxed);
      info.birth = cell.birth.load(std::memory_order_relaxed);
      info.priority = cell.priority.load(std::memory_order_relaxed);
      r.active.push_back(info);
      if (info.birth < oldest_birth) {
        oldest_birth = info.birth;
        oldest_slot = i;
      }
    }
    const bool working = !r.active.empty() || snap.starts != last_starts;
    last_starts = snap.starts;
    if (!working) {
      stable_since = now;  // genuinely idle, not stalled
      continue;
    }
    if (now - stable_since <
        static_cast<std::uint64_t>(cfg_.stall_after.count())) {
      continue;
    }

    stalls_.fetch_add(1, std::memory_order_acq_rel);
    r.stalled_ns = now - stable_since;
    r.commits = snap.commits;
    r.starts = snap.starts;
    if (const ChaosPolicy* c = stm_.options().chaos) r.chaos_seed = c->seed();
    // Escalate: crown the oldest active call as the elder. Committers then
    // defer to it and lock waiters shed — TimestampAging's own
    // starvation-recovery window, applied by force. Requires TimestampAging
    // (otherwise no cell carries a birth to rank by).
    if (cfg_.escalate && oldest_slot != ~0u) {
      cm.force_elder(oldest_slot);
      escalations_.fetch_add(1, std::memory_order_acq_rel);
      r.boosted_slot = oldest_slot;
    }
    deliver(r);
    stable_since = now;  // re-arm; re-fires after another stall_after
  }
}

}  // namespace proust::stm
