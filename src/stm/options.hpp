// Runtime policy knobs for the STM: the contention-management policy applied
// between retry attempts and at detected conflicts (§7 discusses how much CM
// coupling matters) together with the elder protocol that bounds each call's
// retries, and the progress-watchdog hooks.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/topology.hpp"
#include "stm/fwd.hpp"

namespace proust::stm {

/// Contention management: what a transaction does after an aborted attempt
/// and how a detected conflict is arbitrated against the opposing
/// transaction (see stm/contention.hpp and DESIGN.md §10).
enum class CmPolicy : std::uint8_t {
  /// Randomized exponential backoff (default; the paper's baseline and what
  /// the evaluation uses). Conflicts are resolved requester-aborts, as in
  /// classic TL2, and no per-slot state is published.
  ExponentialBackoff,
  /// Oldest-transaction-wins: priority is the call's first-attempt stamp, so
  /// age strictly orders every pair of transactions and a starving one
  /// eventually outranks all newcomers; the elder protocol (DESIGN.md §10)
  /// bounds each call's attempts. Also backs off between attempts.
  TimestampAging,
};

constexpr const char* to_string(CmPolicy p) noexcept {
  switch (p) {
    case CmPolicy::ExponentialBackoff: return "backoff";
    case CmPolicy::TimestampAging: return "aging";
  }
  return "?";
}

struct StmOptions {
  CmPolicy cm_policy = CmPolicy::ExponentialBackoff;

  // --- Multi-version snapshot reads (DESIGN.md §11) ------------------------
  /// Keep a short per-Var version chain at every writing commit so that
  /// read-only transactions read a consistent start-timestamp snapshot with
  /// no read set, no validation and no aborts, regardless of concurrent
  /// writers. A call is a snapshot reader when declared via
  /// Stm::atomically_ro, or — detected — from the retry after an attempt
  /// that aborted without doing anything writer-shaped (a snapshot attempt
  /// that turns out to write is demoted/retried as a writer, see
  /// AbortReason::MvccPromote). Writers pay one pool node push per
  /// overwritten var plus chain truncation against the minimum active
  /// snapshot; chains are reclaimed through epoch-based reclamation
  /// (common/ebr.hpp). Off by default — non-MVCC configs take one
  /// never-taken branch on the read path and pay nothing at commit.
  bool mvcc = false;

  // --- Lock-free optimistic read fast path (DESIGN.md §12) -----------------
  /// Let the Proust wrappers serve read-only operations (get/contains/peek)
  /// without acquiring the abstract lock: the base structure is read under
  /// its own internal synchronization (EBR guard / shard mutex) and the
  /// result is admitted against a per-stripe sequence word that mutators
  /// bump for the duration of their transaction (core/read_seq.hpp), or —
  /// for the lazy wrappers — against the wrapper's commit fence. Admission
  /// records the (word, observed) pair in the txn arena so every later
  /// admission, timestamp extension and the commit itself revalidate it;
  /// any instability or validation miss falls back to the locked slow path,
  /// which preserves opacity unconditionally. Off by default — the locked
  /// read path is then used exclusively and pays one never-taken branch.
  bool optimistic_reads = false;

  // --- Elder protocol (CmPolicy::TimestampAging) ---------------------------
  /// Eligible (non-chaos) aborted attempts after which a transaction
  /// requests starvation recovery: it publishes itself as the STM's "elder"
  /// and committers defer to it briefly (see cm_elder_yield). Bounds the
  /// attempt count of any transaction without serializing the others.
  unsigned cm_elder_after = 16;
  /// How long a committing transaction defers to a published elder before
  /// proceeding anyway. Bounded, so a wedged elder cannot stall commits.
  std::chrono::nanoseconds cm_elder_yield = std::chrono::microseconds(250);

  /// Invoked by a Watchdog (stm/watchdog.hpp) when it detects a stalled
  /// commit epoch. Called from the watchdog thread; must not run
  /// transactions on this Stm. Null = report to stderr.
  std::function<void(const StallReport&)> on_stall;

  /// Abstract-lock acquisition timeout used by pessimistic LAPs constructed
  /// without an explicit timeout. Timing out is the runtime's abstract-lock
  /// deadlock recovery: the transaction aborts, releases everything, backs
  /// off and retries. Each registry slot applies a fixed ±25% jitter to it
  /// (core/lap.hpp): symmetric deadlocks are recovered by both parties
  /// timing out, and identical timeouts would make them abort in lockstep
  /// and re-collide on the retry. LAPs constructed with an explicit timeout
  /// use it verbatim.
  std::chrono::nanoseconds lap_timeout = std::chrono::milliseconds(2);

  // --- Topology awareness (common/topology.hpp, DESIGN.md §13) -------------
  /// Pin each registry slot's thread to a CPU on its first top-level
  /// transaction against this Stm. The plan is computed once from the
  /// detected host topology; slot i binds to plan[i % plan.size()]. None
  /// (default) performs no affinity syscalls and computes no plan.
  topo::PinPolicy pinning = topo::PinPolicy::None;
  /// CPU list for PinPolicy::Explicit (ignored otherwise; empty list means
  /// "do not pin", same as None).
  std::vector<int> pin_cpus;
  /// NUMA placement of the runtime's shared tables: stamp cells become
  /// node-local per-slot blocks, MVCC version-pool headers likewise, and
  /// structures built against this Stm (orec arrays, LAP stripe tables,
  /// sequence-word tables) consult this knob for interleaved or
  /// per-node-replicated layouts. Off (default) keeps the exact
  /// first-touch-at-construction behaviour the runtime always had.
  topo::NumaPlacement numa_placement = topo::NumaPlacement::Off;

  /// Fault-injection policy woven into the runtime (stm/chaos.hpp);
  /// non-owning, must outlive every transaction of this Stm. nullptr
  /// disables injection entirely — the hot paths then cost one predictable
  /// never-taken branch per gate and allocate nothing extra.
  ChaosPolicy* chaos = nullptr;

  /// Opt-in durability: a write-ahead redo log (stm/wal.hpp, DESIGN.md §14)
  /// committing transactions publish their staged redo records to. Same
  /// contract as `chaos`: non-owning, must outlive every transaction of
  /// this Stm, nullptr (default) disables durability entirely — commits
  /// then pay one predictable never-taken branch and Txn::wal_log is a
  /// no-op (bench_wal's paired A/B pins the neutrality).
  Wal* durability = nullptr;

  /// What a *failed* log refuses (wal.hpp: a fatal storage error fails the
  /// log permanently). ReadOnlyDurability (default) refuses only commits
  /// that would produce redo records — undeclared-stream mutators keep
  /// running, merely non-durable. FailStop refuses every mutating commit
  /// (writes, replay hooks, or staged records) once the log has failed, so
  /// acked in-memory state can never outrun the durable prefix; read-only
  /// transactions still commit under both policies.
  WalFailMode wal_fail_mode = WalFailMode::ReadOnlyDurability;
};

}  // namespace proust::stm
