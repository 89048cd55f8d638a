// Contention-management subsystem tests (ctest label "cm"): the policy
// factory and priority algebra, the elder starvation-recovery protocol, the
// per-call attempt histogram, and the progress watchdog — plus the
// starvation regression the subsystem exists for: a long read-mostly
// transaction racing a swarm of small writers completes within a bounded
// number of attempts, under the priority policies and under plain backoff
// with progress tracking on, because the elder protocol bounds it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

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

// --- Policy factory and priority algebra -------------------------------------

TEST(ContentionPolicyTest, FactoryNamesAndTrackingFlags) {
  CmState st;
  const struct {
    CmPolicy policy;
    const char* name;
    bool tracking;
  } cases[] = {
      {CmPolicy::ExponentialBackoff, "backoff", false},
      {CmPolicy::None, "none", false},
      {CmPolicy::Karma, "karma", true},
      {CmPolicy::TimestampAging, "aging", true},
  };
  for (const auto& c : cases) {
    StmOptions o;
    o.cm_policy = c.policy;
    auto cm = make_contention_manager(o, st);
    ASSERT_NE(cm, nullptr);
    EXPECT_STREQ(cm->name(), c.name);
    EXPECT_EQ(cm->tracking(), c.tracking) << c.name;
  }
  // The watchdog can ask even trivial policies to publish slot state.
  StmOptions o;
  o.cm_policy = CmPolicy::ExponentialBackoff;
  o.cm_progress_tracking = true;
  EXPECT_TRUE(make_contention_manager(o, st)->tracking());
}

TEST(ContentionPolicyTest, KarmaPriorityStrengthensWithWork) {
  CmState st;
  StmOptions o;
  o.cm_policy = CmPolicy::Karma;
  auto cm = make_contention_manager(o, st);
  const std::uint64_t fresh = cm->priority(/*birth=*/7, /*karma=*/0);
  const std::uint64_t worked = cm->priority(7, 1000);
  EXPECT_LT(worked, fresh);  // lower = stronger
  // An active transaction is always at least marginally stronger than an
  // idle slot, and saturated karma never wraps past the strongest key.
  EXPECT_LT(fresh, kCmIdlePriority);
  EXPECT_EQ(cm->priority(7, ~std::uint64_t{0}), 0u);
}

TEST(ContentionPolicyTest, AgingPriorityIsBirthStamp) {
  CmState st;
  StmOptions o;
  o.cm_policy = CmPolicy::TimestampAging;
  auto cm = make_contention_manager(o, st);
  EXPECT_EQ(cm->priority(3, 0), 3u);
  EXPECT_EQ(cm->priority(3, 999), 3u);  // karma is irrelevant to age
  EXPECT_LT(cm->priority(3, 0), cm->priority(4, 0));  // older = stronger
}

TEST(ContentionPolicyTest, ArbitrationFavorsTheStrongerKey) {
  CmState st;
  for (CmPolicy p : {CmPolicy::Karma, CmPolicy::TimestampAging}) {
    StmOptions o;
    o.cm_policy = p;
    auto cm = make_contention_manager(o, st);
    EXPECT_EQ(cm->arbitrate(/*self=*/5, /*opp=*/10), CmDecision::kAbortOther);
    EXPECT_EQ(cm->arbitrate(10, 5), CmDecision::kAbortSelf);
    EXPECT_EQ(cm->arbitrate(5, 5), CmDecision::kWait);
  }
  // Trivial policies keep the pre-CM requester-aborts behavior.
  StmOptions o;
  o.cm_policy = CmPolicy::ExponentialBackoff;
  EXPECT_EQ(make_contention_manager(o, st)->arbitrate(5, 10),
            CmDecision::kAbortSelf);
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
  StmOptions o;
  o.cm_policy = CmPolicy::TimestampAging;
  auto cm = make_contention_manager(o, st);
  int dummy = 0;
  const unsigned self = ThreadRegistry::slot();
  const unsigned other = self + 1 < ThreadRegistry::kMaxSlots ? self + 1 : 0;

  // No elder: park normally, forever.
  EXPECT_EQ(cm->on_contended_park(&dummy, true, 0),
            proust::sync::CmWaitVerdict::kKeepWaiting);
  EXPECT_EQ(cm->on_contended_park(&dummy, true, 7),
            proust::sync::CmWaitVerdict::kKeepWaiting);

  // A foreign elder is published: first round may still park (the elder may
  // release imminently), after that the waiter sheds so the elder's
  // abstract locks drain.
  st.force_elder(other);
  EXPECT_EQ(cm->on_contended_park(&dummy, true, 0),
            proust::sync::CmWaitVerdict::kKeepWaiting);
  EXPECT_EQ(cm->on_contended_park(&dummy, true, 1),
            proust::sync::CmWaitVerdict::kGiveUp);

  // The elder itself never sheds.
  st.force_elder(self);
  EXPECT_EQ(cm->on_contended_park(&dummy, true, 9),
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

TEST(StarvationTest, AgingBoundsTheLongReader) {
  StmOptions o;
  o.cm_policy = CmPolicy::TimestampAging;
  o.cm_elder_after = 8;
  o.cm_elder_yield = std::chrono::milliseconds(5);
  Stm stm(Mode::Lazy, o);

  const unsigned attempts = run_starvation_duel(stm, /*writers=*/2,
                                                /*scan_yields=*/4);
  // Structural bound: within cm_elder_after eligible aborts the reader is
  // the elder (it has the oldest birth, so nothing outranks it), after
  // which committers defer for cm_elder_yield each — the quiet window in
  // which a 32-read scan finishes. The slack above cm_elder_after absorbs
  // scheduler noise on small machines.
  EXPECT_LE(attempts, 96u);
  EXPECT_GE(attempts, 1u);
  EXPECT_EQ(stm.cm_state().elder(), 0u);  // recovery window released
}

TEST(StarvationTest, KarmaReaderAccumulatesStrengthFromItsScan) {
  // Karma's work-weighted priority also protects the scan: each aborted
  // 32-read attempt deposits karma, so the reader outranks fresh writers
  // well before the elder threshold.
  StmOptions o;
  o.cm_policy = CmPolicy::Karma;
  o.cm_elder_after = 8;
  o.cm_elder_yield = std::chrono::milliseconds(5);
  Stm stm(Mode::Lazy, o);

  const unsigned attempts = run_starvation_duel(stm, /*writers=*/2,
                                                /*scan_yields=*/4);
  EXPECT_LE(attempts, 96u);
}

TEST(StarvationTest, BackoffReaderIsBoundedByTheElderAlone) {
  // Plain backoff never arbitrates (requester-aborts) and every caller
  // publishes the same weak priority, so nothing but the elder protocol can
  // rescue the reader. Progress tracking switches that protocol on for a
  // trivial policy: past cm_elder_after eligible aborts the reader runs at
  // priority 0 and the writers' commits defer to it.
  StmOptions o;
  o.cm_policy = CmPolicy::ExponentialBackoff;
  o.cm_progress_tracking = true;
  o.cm_elder_after = 8;
  o.cm_elder_yield = std::chrono::milliseconds(5);
  Stm stm(Mode::Lazy, o);

  const unsigned attempts = run_starvation_duel(stm, /*writers=*/2,
                                                /*scan_yields=*/4);
  EXPECT_LE(attempts, 96u);
  EXPECT_GE(attempts, 1u);
  EXPECT_EQ(stm.cm_state().elder(), 0u);  // recovery window released
}
