// Contention-management subsystem tests (ctest label "cm"): which policy
// publishes slot state, the aging priority and arbitration rules, the elder
// starvation-recovery protocol, the per-call attempt histogram, the stats
// schema (aggregation, reset, text and JSON output), and the progress
// watchdog — plus the starvation regression the subsystem exists for: a
// long read-mostly transaction racing a swarm of small writers completes
// within a bounded number of attempts under TimestampAging, in every
// conflict-detection mode, because the elder protocol bounds it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/record.hpp"
#include "stm/contention.hpp"
#include "stm/stats.hpp"
#include "stm/stm.hpp"
#include "stm/watchdog.hpp"

using namespace proust::stm;

// --- Attempt histogram -------------------------------------------------------

TEST(AttemptHistogramTest, BucketMappingIsExactThenLogarithmic) {
  // 1..16 attempts map to exact buckets 0..15.
  for (std::uint64_t n = 1; n <= 16; ++n) {
    EXPECT_EQ(attempt_bucket(n), n - 1) << n;
    EXPECT_EQ(attempt_bucket_bound(attempt_bucket(n)), n) << n;
  }
  // Then power-of-two ranges: 17..32 share a bucket bounded by 32, etc.
  EXPECT_EQ(attempt_bucket(17), attempt_bucket(32));
  EXPECT_EQ(attempt_bucket_bound(attempt_bucket(17)), 32u);
  EXPECT_NE(attempt_bucket(32), attempt_bucket(33));
  EXPECT_EQ(attempt_bucket_bound(attempt_bucket(33)), 64u);
  EXPECT_EQ(attempt_bucket_bound(attempt_bucket(64)), 64u);
  // Zero is clamped to one attempt; huge counts land in the tail bucket.
  EXPECT_EQ(attempt_bucket(0), 0u);
  EXPECT_EQ(attempt_bucket(~std::uint64_t{0}), kAttemptBuckets - 1);
  // Bucket bounds are monotone, so percentile walks are well ordered.
  for (std::size_t b = 1; b < kAttemptBuckets; ++b) {
    EXPECT_GT(attempt_bucket_bound(b), attempt_bucket_bound(b - 1));
  }
}

TEST(AttemptHistogramTest, PercentilesWalkTheBuckets) {
  StatsSnapshot s;
  EXPECT_EQ(s.attempts_percentile(0.50), 0u);  // no calls recorded

  // 90 one-attempt calls, 10 four-attempt calls.
  s.attempts_hist[attempt_bucket(1)] = 90;
  s.attempts_hist[attempt_bucket(4)] = 10;
  s.max_attempts = 4;
  EXPECT_EQ(s.total_calls(), 100u);
  EXPECT_EQ(s.attempts_percentile(0.50), 1u);
  EXPECT_EQ(s.attempts_percentile(0.99), 4u);
  EXPECT_EQ(s.attempts_percentile(1.0), 4u);
}

TEST(AttemptHistogramTest, TopBucketClampsToObservedMax) {
  // One call in the 17..32 range: the bucket bound (32) must not overstate
  // the observed worst case.
  StatsSnapshot s;
  s.attempts_hist[attempt_bucket(20)] = 1;
  s.max_attempts = 20;
  EXPECT_EQ(s.attempts_percentile(1.0), 20u);
}

TEST(AttemptHistogramTest, SingleThreadedCallsLandInTheHistogram) {
  Stm stm(Mode::Lazy);
  Var<long> v(0);
  // Three clean calls, then one call that needs three attempts.
  for (int i = 0; i < 3; ++i) {
    stm.atomically([&](Txn& tx) { tx.write(v, i); });
  }
  stm.atomically([&](Txn& tx) {
    tx.write(v, 99);
    if (tx.attempt() < 3) tx.retry(AbortReason::Explicit);
  });
  const StatsSnapshot s = stm.stats().snapshot();
  EXPECT_EQ(s.total_calls(), 4u);
  EXPECT_EQ(s.attempts_hist[attempt_bucket(1)], 3u);
  EXPECT_EQ(s.attempts_hist[attempt_bucket(3)], 1u);
  EXPECT_EQ(s.max_attempts, 3u);
  EXPECT_EQ(s.attempts_percentile(0.50), 1u);
  EXPECT_EQ(s.attempts_percentile(1.0), 3u);
  // The retried call paused between attempts; the backoff time is recorded.
  EXPECT_GT(s.backoff_ns, 0u);
}

// --- Stats schema ------------------------------------------------------------

namespace {

// Drives every counter of one slot's cell. Thread `t` (1 or 2) adds t times a
// per-field base, so every field sums to a distinct value; the two max fields
// get their larger value from thread 1, so a sum or a last-writer-wins would
// both show.
void drive_every_counter(Stats::Counters c, std::uint64_t t) {
  c.add<Stat::starts>(1 * t);
  c.add<Stat::commits>(2 * t);
  c.add<Stat::reads>(3 * t);
  c.add<Stat::writes>(4 * t);
  c.add<Stat::extensions>(5 * t);
  for (std::size_t r = 0; r < kNumAbortReasons; ++r) {
    for (std::size_t i = 0; i < (r + 1) * t; ++i) {
      c.add(static_cast<AbortReason>(r));
    }
  }
  for (std::size_t p = 0; p < kNumChaosPoints; ++p) {
    for (std::size_t i = 0; i < (p + 1) * t; ++i) {
      c.add(static_cast<ChaosPoint>(p));
    }
  }
  if (t == 1) {
    c.count_call(1);
    c.count_call(20);
  } else {
    c.count_call(1);
    c.count_call(1);
    c.count_call(5);
  }
  c.add<Stat::backoff_ns>(100 * t);
  c.add<Stat::cm_wait_ns>(1000 * t);
  c.add<Stat::ro_commits>(6 * t);
  c.add<Stat::mvcc_pushed>(7 * t);
  c.raise<Stat::mvcc_chain_max>(t == 1 ? 50 : 30);
  c.add<Stat::mvcc_reclaimed>(8 * t);
  c.add<Stat::fastpath_hits>(9 * t);
  c.add<Stat::fastpath_fallbacks>(10 * t);
  c.add<Stat::wal_publishes>();
  c.add<Stat::wal_records>(11 * t);
  c.add<Stat::wal_bytes>(500 * t);
  c.add<Stat::wal_strict_waits>();
  c.add<Stat::wal_wait_ns>(2000 * t);
  c.add<Stat::wal_refused>(12 * t);
}

// Runs drive_every_counter on two live threads, so they hold two distinct
// registry slots (a slot is recycled when its thread exits).
void drive_from_two_slots(Stats& stats) {
  std::atomic<int> arrived{0};
  unsigned slots[2] = {0, 0};
  auto worker = [&](int i) {
    slots[i] = ThreadRegistry::slot();
    drive_every_counter(stats.counters(slots[i]), i + 1);
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
  };
  std::thread a(worker, 0), b(worker, 1);
  a.join();
  b.join();
  ASSERT_NE(slots[0], slots[1]);
}

std::string json_of(const StatsSnapshot& s) {
  proust::bench::Record r;
  r.bench = "schema";
  return r.with_stats(s).json();
}

}  // namespace

TEST(StatsSchemaTest, SumsAndMaxesAcrossSlots) {
  auto stats = std::make_unique<Stats>();
  drive_from_two_slots(*stats);
  const StatsSnapshot s = stats->snapshot();
  EXPECT_EQ(s.starts, 3u);
  EXPECT_EQ(s.commits, 6u);
  EXPECT_EQ(s.reads, 9u);
  EXPECT_EQ(s.writes, 12u);
  EXPECT_EQ(s.extensions, 15u);
  for (std::size_t r = 0; r < s.aborts.size(); ++r) {
    EXPECT_EQ(s.aborts[r], 3 * (r + 1)) << r;
  }
  for (std::size_t p = 0; p < s.injected.size(); ++p) {
    EXPECT_EQ(s.injected[p], 3 * (p + 1)) << p;
  }
  EXPECT_EQ(s.attempts_hist[attempt_bucket(1)], 3u);
  EXPECT_EQ(s.attempts_hist[attempt_bucket(5)], 1u);
  EXPECT_EQ(s.attempts_hist[attempt_bucket(20)], 1u);
  EXPECT_EQ(s.total_calls(), 5u);
  EXPECT_EQ(s.max_attempts, 20u);  // max, not the sum 25
  EXPECT_EQ(s.backoff_ns, 300u);
  EXPECT_EQ(s.cm_wait_ns, 3000u);
  EXPECT_EQ(s.ro_commits, 18u);
  EXPECT_EQ(s.mvcc_pushed, 21u);
  EXPECT_EQ(s.mvcc_reclaimed, 24u);
  EXPECT_EQ(s.mvcc_chain_max, 50u);  // max, not the sum 80
  EXPECT_EQ(s.fastpath_hits, 27u);
  EXPECT_EQ(s.fastpath_fallbacks, 30u);
  EXPECT_EQ(s.wal_publishes, 2u);
  EXPECT_EQ(s.wal_records, 33u);
  EXPECT_EQ(s.wal_bytes, 1500u);
  EXPECT_EQ(s.wal_strict_waits, 2u);
  EXPECT_EQ(s.wal_wait_ns, 6000u);
  EXPECT_EQ(s.wal_refused, 36u);
}

TEST(StatsSchemaTest, ResetZeroesEveryField) {
  auto stats = std::make_unique<Stats>();
  drive_from_two_slots(*stats);
  stats->reset();
  const StatsSnapshot s = stats->snapshot();
  EXPECT_EQ(s.starts + s.commits + s.reads + s.writes + s.extensions, 0u);
  EXPECT_EQ(s.total_aborts(), 0u);
  EXPECT_EQ(s.total_injected(), 0u);
  EXPECT_EQ(s.total_calls(), 0u);
  EXPECT_EQ(s.max_attempts + s.mvcc_chain_max, 0u);
  EXPECT_EQ(s.backoff_ns + s.cm_wait_ns, 0u);
  EXPECT_EQ(s.ro_commits + s.mvcc_pushed + s.mvcc_reclaimed, 0u);
  EXPECT_EQ(s.fastpath_hits + s.fastpath_fallbacks, 0u);
  EXPECT_EQ(s.wal_publishes + s.wal_records + s.wal_bytes +
                s.wal_strict_waits + s.wal_wait_ns + s.wal_refused,
            0u);
  EXPECT_EQ(s.to_string(),
            "starts=0 commits=0 aborts=0 reads=0 writes=0 extensions=0");
  // The JSON keeps every group, zeroed, so all records share one schema.
  const std::string json = json_of(s);
  for (const char* want : {
           "\"starts\": 0, \"commits\": 0, \"aborts\": {}, \"reads\": 0, "
           "\"writes\": 0, \"extensions\": 0, ",
           "\"attempts\": {\"p50\": 0, \"p99\": 0, \"max\": 0}",
           "\"wait_ns\": {\"backoff\": 0, \"cm\": 0}",
           "\"mvcc\": {\"ro_commits\": 0, \"pushed\": 0, \"reclaimed\": 0, "
           "\"chain_max\": 0}",
           "\"fastpath\": {\"hits\": 0, \"fallbacks\": 0}",
           "\"wal\": {\"publishes\": 0, \"records\": 0, \"bytes\": 0, "
           "\"strict_waits\": 0, \"wait\": 0, \"refused\": 0}",
           "\"injected\": {}",
       }) {
    EXPECT_NE(json.find(want), std::string::npos) << want << "\n" << json;
  }
}

TEST(StatsSchemaTest, TextIsPinned) {
  auto stats = std::make_unique<Stats>();
  drive_from_two_slots(*stats);
  EXPECT_EQ(
      stats->snapshot().to_string(),
      "starts=3 commits=6 aborts=198 reads=9 writes=12 extensions=15"
      " attempts{p50=1 p99=20 max=20}"
      " wait{backoff=300ns cm=3000ns}"
      " mvcc{ro_commits=18 pushed=21 reclaimed=24 chain_max=50}"
      " fastpath{hits=27 fallbacks=30}"
      " wal{publishes=2 records=33 bytes=1500 strict_waits=2 wait=6000ns"
      " refused=36}"
      " [none=3, read-locked=6, read-version=9, validation=12,"
      " write-locked=15, visible-reader=18, abstract-lock-timeout=21,"
      " explicit=24, chaos-injected=27, cm-killed=30, mvcc-promote=33]"
      " injected=[txn-read=3, txn-validate=6, commit-lock=9, wv-publish=12,"
      " lap-acquire=15, lock-transition=18, replay-apply=21,"
      " fast-path-read=24, wal-append=27, wal-seal=30, wal-fsync=33,"
      " wal-rotate=36, ckpt-begin=39, ckpt-write=42, ckpt-fsync=45,"
      " ckpt-rename=48, ckpt-retire=51]");
}

TEST(StatsSchemaTest, JsonKeysArePinned) {
  auto stats = std::make_unique<Stats>();
  drive_from_two_slots(*stats);
  const std::string json = json_of(stats->snapshot());
  for (const char* want : {
           "\"starts\": 3,",
           "\"commits\": 6,",
           "\"extensions\": 15,",
           "\"aborts\": {\"none\": 3, \"read-locked\": 6, "
           "\"read-version\": 9, \"validation\": 12, \"write-locked\": 15, "
           "\"visible-reader\": 18, \"abstract-lock-timeout\": 21, "
           "\"explicit\": 24, \"chaos-injected\": 27, \"cm-killed\": 30, "
           "\"mvcc-promote\": 33}",
           "\"attempts\": {\"p50\": 1, \"p99\": 20, \"max\": 20}",
           "\"wait_ns\": {\"backoff\": 300, \"cm\": 3000}",
           "\"mvcc\": {\"ro_commits\": 18, \"pushed\": 21, "
           "\"reclaimed\": 24, \"chain_max\": 50}",
           "\"injected\": {\"txn-read\": 3, \"txn-validate\": 6, "
           "\"commit-lock\": 9, \"wv-publish\": 12, \"lap-acquire\": 15, "
           "\"lock-transition\": 18, \"replay-apply\": 21, "
           "\"fast-path-read\": 24, \"wal-append\": 27, \"wal-seal\": 30, "
           "\"wal-fsync\": 33, \"wal-rotate\": 36, \"ckpt-begin\": 39, "
           "\"ckpt-write\": 42, \"ckpt-fsync\": 45, \"ckpt-rename\": 48, "
           "\"ckpt-retire\": 51}",
           // The access counters, fast path and WAL groups.
           "\"reads\": 9,",
           "\"writes\": 12,",
           "\"fastpath\": {\"hits\": 27, \"fallbacks\": 30}",
           "\"wal\": {\"publishes\": 2, \"records\": 33, \"bytes\": 1500, "
           "\"strict_waits\": 2, \"wait\": 6000, \"refused\": 36}",
       }) {
    EXPECT_NE(json.find(want), std::string::npos) << want << "\n" << json;
  }
}

// The watchdog snapshots while workers count: the aggregation must be
// race-free (checked under TSan by the cm label) and see a monotone view.
TEST(StatsSchemaTest, SnapshotRacesACountingThread) {
  auto stats = std::make_unique<Stats>();
  constexpr std::uint64_t kEvents = 20000;
  std::atomic<bool> done{false};
  std::thread counter([&] {
    Stats::Counters c = stats->counters(ThreadRegistry::slot());
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      c.add<Stat::starts>();
      c.add<Stat::mvcc_pushed>();
      c.raise<Stat::mvcc_chain_max>(i);
    }
    done.store(true);
  });
  std::uint64_t last = 0;
  while (!done.load()) {
    const StatsSnapshot s = stats->snapshot();
    EXPECT_GE(s.starts, last);
    last = s.starts;
  }
  counter.join();
  const StatsSnapshot s = stats->snapshot();
  EXPECT_EQ(s.starts, kEvents);
  EXPECT_EQ(s.mvcc_pushed, kEvents);
  EXPECT_EQ(s.mvcc_chain_max, kEvents - 1);
}

// --- Policies, priority and arbitration -------------------------------------

TEST(ContentionPolicyTest, OnlyAgingPublishesSlotState) {
  EXPECT_STREQ(to_string(CmPolicy::ExponentialBackoff), "backoff");
  EXPECT_STREQ(to_string(CmPolicy::TimestampAging), "aging");
  for (CmPolicy p : {CmPolicy::ExponentialBackoff, CmPolicy::TimestampAging}) {
    StmOptions o;
    o.cm_policy = p;
    Stm stm(Mode::Lazy, o);
    Var<long> v(0);
    std::uint64_t token = 0;
    std::uint64_t pri = 0;
    stm.atomically([&](Txn& tx) {
      tx.write(v, 1);
      const CmSlot& cell = stm.cm_state().slot(tx.slot());
      token = cell.token.load();
      pri = cell.priority.load();
    });
    if (p == CmPolicy::TimestampAging) {
      EXPECT_NE(token, 0u);
      EXPECT_EQ(pri, token);  // a fresh call's priority is its birth stamp
    } else {
      // Backoff publishes nothing: requester-aborts, no arbitration.
      EXPECT_EQ(token, 0u);
      EXPECT_EQ(pri, kCmIdlePriority);
    }
    EXPECT_EQ(stm.cm_state().slot(ThreadRegistry::slot()).token.load(), 0u);
  }
}

TEST(ContentionPolicyTest, AgingPriorityIsBirthStamp) {
  EXPECT_EQ(cm_priority(/*birth=*/3, /*elder=*/false), 3u);
  EXPECT_LT(cm_priority(3, false), cm_priority(4, false));  // older = stronger
  EXPECT_EQ(cm_priority(3, /*elder=*/true), 0u);  // the elder outranks all
  EXPECT_LT(cm_priority(3, false), kCmIdlePriority);
}

TEST(ContentionPolicyTest, ArbitrationFavorsTheStrongerKey) {
  EXPECT_EQ(cm_arbitrate(/*self=*/5, /*opp=*/10), CmDecision::kAbortOther);
  EXPECT_EQ(cm_arbitrate(10, 5), CmDecision::kAbortSelf);
  EXPECT_EQ(cm_arbitrate(5, 5), CmDecision::kWait);
}

// --- Elder protocol ----------------------------------------------------------

TEST(ElderProtocolTest, StrongerChallengerDisplacesIncumbent) {
  CmState st;
  st.slot(3).priority.store(100);
  st.slot(5).priority.store(50);
  EXPECT_EQ(st.elder(), 0u);
  st.publish_elder(3);
  EXPECT_EQ(st.elder(), 4u);
  st.publish_elder(5);  // strictly stronger: takes the crown
  EXPECT_EQ(st.elder(), 6u);
  st.publish_elder(3);  // weaker challenger: incumbent keeps it
  EXPECT_EQ(st.elder(), 6u);
  st.clear_elder(3);  // only the holder may clear
  EXPECT_EQ(st.elder(), 6u);
  st.clear_elder(5);
  EXPECT_EQ(st.elder(), 0u);
  st.force_elder(3);  // watchdog escalation is unconditional
  EXPECT_EQ(st.elder(), 4u);
  st.clear_elder(3);
}

TEST(ElderProtocolTest, LockWaitersShedForAForeignElder) {
  CmState st;
  int dummy = 0;
  const unsigned self = ThreadRegistry::slot();
  const unsigned other = self + 1 < ThreadRegistry::kMaxSlots ? self + 1 : 0;

  // No elder: park normally, forever.
  EXPECT_EQ(st.on_contended_park(&dummy, true, 0),
            proust::sync::CmWaitVerdict::kKeepWaiting);
  EXPECT_EQ(st.on_contended_park(&dummy, true, 7),
            proust::sync::CmWaitVerdict::kKeepWaiting);

  // A foreign elder is published: first round may still park (the elder may
  // release imminently), after that the waiter sheds so the elder's
  // abstract locks drain.
  st.force_elder(other);
  EXPECT_EQ(st.on_contended_park(&dummy, true, 0),
            proust::sync::CmWaitVerdict::kKeepWaiting);
  EXPECT_EQ(st.on_contended_park(&dummy, true, 1),
            proust::sync::CmWaitVerdict::kGiveUp);

  // The elder itself never sheds.
  st.force_elder(self);
  EXPECT_EQ(st.on_contended_park(&dummy, true, 9),
            proust::sync::CmWaitVerdict::kKeepWaiting);
  st.clear_elder(self);
}

TEST(ElderProtocolTest, ChaosInjectedAbortsDoNotPromoteToElder) {
  // cm_elder_after counts *eligible* attempts; injected chaos aborts are
  // exempt, so a fault-heavy run does not hand out recovery windows.
  StmOptions o;
  o.cm_policy = CmPolicy::TimestampAging;
  o.cm_elder_after = 1;
  Stm stm(Mode::Lazy, o);
  Var<long> v(0);
  unsigned eligible_seen = ~0u;
  bool was_elder = true;
  stm.atomically([&](Txn& tx) {
    tx.write(v, 1);
    if (tx.attempt() <= 4) tx.retry(AbortReason::ChaosInjected);
    eligible_seen = tx.eligible_attempts();
    was_elder = stm.cm_state().elder() == tx.slot() + 1;
  });
  EXPECT_EQ(eligible_seen, 0u);  // none of the four aborts counted
  EXPECT_FALSE(was_elder);

  // One eligible abort is enough at cm_elder_after = 1.
  stm.atomically([&](Txn& tx) {
    tx.write(v, 2);
    if (tx.attempt() == 1) tx.retry(AbortReason::Explicit);
    eligible_seen = tx.eligible_attempts();
    was_elder = stm.cm_state().elder() == tx.slot() + 1;
  });
  EXPECT_EQ(eligible_seen, 1u);
  EXPECT_TRUE(was_elder);
  EXPECT_EQ(stm.cm_state().elder(), 0u);  // released when the call ended
}

// --- Watchdog ----------------------------------------------------------------

namespace {

struct ReportSink {
  std::mutex mu;
  std::vector<StallReport> reports;
  void push(const StallReport& r) {
    std::lock_guard<std::mutex> g(mu);
    reports.push_back(r);
  }
  bool any() {
    std::lock_guard<std::mutex> g(mu);
    return !reports.empty();
  }
};

}  // namespace

TEST(WatchdogTest, DetectsStalledEpochAndEscalatesTheOldestCall) {
  ReportSink sink;
  StmOptions o;
  o.cm_policy = CmPolicy::TimestampAging;  // tracking: slots are visible
  o.on_stall = [&sink](const StallReport& r) { sink.push(r); };
  Stm stm(Mode::Lazy, o);
  Var<long> v(0);

  Watchdog::Config cfg;
  cfg.poll = std::chrono::milliseconds(1);
  cfg.stall_after = std::chrono::milliseconds(10);
  cfg.escalate = true;
  Watchdog dog(stm, cfg);

  stm.atomically([&](Txn& tx) {
    tx.write(v, 1);
    // Sit inside the body long past stall_after: commits stay flat while
    // this slot's CM cell shows an active call — the stall signature.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  });
  dog.stop();

  EXPECT_GE(dog.stalls(), 1u);
  EXPECT_GE(dog.escalations(), 1u);
  ASSERT_TRUE(sink.any());
  std::lock_guard<std::mutex> g(sink.mu);
  bool saw_active_slot = false;
  for (const auto& r : sink.reports) {
    EXPECT_FALSE(r.to_string().empty());
    if (!r.active.empty()) {
      saw_active_slot = true;
      EXPECT_NE(r.boosted_slot, ~0u);  // escalation crowned someone
    }
  }
  EXPECT_TRUE(saw_active_slot);
  // The boosted call cleared its own elder claim on commit. (A last-instant
  // watchdog poll racing the commit may re-crown the already-finished slot;
  // that is benign — the next committer clears it — so it is tolerated.)
  const unsigned elder = stm.cm_state().elder();
  EXPECT_TRUE(elder == 0u || elder == ThreadRegistry::slot() + 1) << elder;
}

TEST(WatchdogTest, LifecycleRestartsCleanlyAndStaysSilentAfterStop) {
  // The sentinel's lifecycle contract: construction starts it, stop() joins
  // it and is idempotent, and once stop() returns no report is delivered —
  // across repeated start/stop cycles and across Stm instances.
  std::atomic<int> reports{0};
  std::atomic<bool> after_stop{false};
  std::atomic<int> late_reports{0};
  StmOptions o;
  o.cm_policy = CmPolicy::TimestampAging;  // tracking: slots are visible
  o.on_stall = [&](const StallReport&) {
    reports.fetch_add(1);
    if (after_stop.load()) late_reports.fetch_add(1);
  };

  for (int gen = 0; gen < 3; ++gen) {
    Stm stm(Mode::Lazy, o);
    Var<long> v(0);
    Watchdog::Config cfg;
    cfg.poll = std::chrono::milliseconds(1);
    cfg.stall_after = std::chrono::milliseconds(5);
    for (int cycle = 0; cycle < 2; ++cycle) {
      after_stop.store(false);
      Watchdog dog(stm, cfg);
      const int before = reports.load();
      stm.atomically([&](Txn& tx) {
        tx.write(v, gen * 10 + cycle);
        // Long enough past stall_after that this generation must observe
        // its own stall — proving the restarted sentinel actually runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      });
      dog.stop();
      after_stop.store(true);
      dog.stop();  // idempotent: a second stop is a harmless no-op
      EXPECT_GT(reports.load(), before)
          << "restarted watchdog missed its stall (gen " << gen << " cycle "
          << cycle << ")";
      // A stall-length body with the sentinel joined must stay silent.
      stm.atomically([&](Txn& tx) {
        tx.write(v, -1);
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      });
    }
  }
  EXPECT_EQ(late_reports.load(), 0)
      << "stall report delivered after stop() returned";
}

// --- The starvation regression -----------------------------------------------

namespace {

/// One long read-mostly transaction (scans all vars, then writes one) racing
/// `writers` threads of tiny write transactions. Returns the attempt count
/// the long transaction needed.
unsigned run_starvation_duel(Stm& stm, int writers, int scan_yields) {
  constexpr int kVars = 32;
  std::vector<Var<long>> vars(kVars);
  std::atomic<bool> done{false};
  std::atomic<unsigned> reader_attempts{0};

  std::vector<std::thread> ws;
  for (int w = 0; w < writers; ++w) {
    ws.emplace_back([&, w] {
      long x = 0;
      while (!done.load(std::memory_order_acquire)) {
        stm.atomically([&](Txn& tx) {
          tx.write(vars[(w * 7 + static_cast<int>(x)) % kVars], x);
        });
        ++x;
      }
    });
  }

  long sum = 0;
  stm.atomically([&](Txn& tx) {
    reader_attempts.store(tx.attempt());  // attempt() is 1-based in-body
    sum = 0;
    for (int i = 0; i < kVars; ++i) {
      sum += tx.read(vars[i]);
      // Widen the window: give the writers room to invalidate us.
      if (i % (kVars / scan_yields) == 0) std::this_thread::yield();
    }
    tx.write(vars[0], sum);
  });
  done.store(true, std::memory_order_release);
  for (auto& t : ws) t.join();
  return reader_attempts.load();
}

}  // namespace

class StarvationTest : public ::testing::TestWithParam<Mode> {};

TEST_P(StarvationTest, AgingBoundsTheLongReader) {
  StmOptions o;
  o.cm_policy = CmPolicy::TimestampAging;
  o.cm_elder_after = 8;
  o.cm_elder_yield = std::chrono::milliseconds(5);
  Stm stm(GetParam(), o);

  const unsigned attempts = run_starvation_duel(stm, /*writers=*/2,
                                                /*scan_yields=*/4);
  // Structural bound: within cm_elder_after eligible aborts the reader is
  // the elder (it has the oldest birth, so nothing outranks it), after
  // which committers defer for cm_elder_yield each — the quiet window in
  // which a 32-read scan finishes. In EagerWrite a writer defers at commit
  // while holding its encounter-time lock; the elder dooms it when its scan
  // reaches that var, and the deferring writer polls the doom and releases.
  // The slack above cm_elder_after absorbs scheduler noise on small
  // machines.
  EXPECT_LE(attempts, 96u);
  EXPECT_GE(attempts, 1u);
  EXPECT_EQ(stm.cm_state().elder(), 0u);  // recovery window released
}

INSTANTIATE_TEST_SUITE_P(AllModes, StarvationTest,
                         ::testing::Values(Mode::Lazy, Mode::EagerWrite,
                                           Mode::EagerAll),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });
