// Multi-threaded STM tests: atomicity, isolation and opacity-style
// invariants under contention, across all three conflict-detection modes.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "core/lap.hpp"
#include "stm/stm.hpp"

using namespace proust::stm;

namespace {
constexpr int kThreads = 4;
constexpr int kItersPerThread = 3000;

class StmConcurrentTest : public ::testing::TestWithParam<Mode> {
 protected:
  Stm stm{GetParam()};

  template <class Body>
  void run_threads(int n, Body&& body) {
    std::barrier sync(n);
    std::vector<std::thread> ts;
    for (int t = 0; t < n; ++t) {
      ts.emplace_back([&, t] {
        sync.arrive_and_wait();
        body(t);
      });
    }
    for (auto& th : ts) th.join();
  }
};
}  // namespace

TEST_P(StmConcurrentTest, CounterIncrementsAreNotLost) {
  Var<long> counter(0);
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < kItersPerThread; ++i) {
      stm.atomically([&](Txn& tx) { tx.write(counter, tx.read(counter) + 1); });
    }
  });
  EXPECT_EQ(counter.unsafe_ref(), long{kThreads} * kItersPerThread);
}

TEST_P(StmConcurrentTest, TransfersPreserveTotal) {
  constexpr int kAccounts = 16;
  constexpr long kInitial = 1000;
  std::deque<Var<long>> accounts;  // deque: Vars are pinned (no moves)
  for (int i = 0; i < kAccounts; ++i) accounts.emplace_back(kInitial);

  run_threads(kThreads, [&](int t) {
    proust::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 7);
    for (int i = 0; i < kItersPerThread; ++i) {
      const int from = static_cast<int>(rng.below(kAccounts));
      const int to = static_cast<int>(rng.below(kAccounts));
      if (from == to) continue;
      stm.atomically([&](Txn& tx) {
        const long f = tx.read(accounts[from]);
        const long amount = f > 0 ? 1 : 0;
        tx.write(accounts[from], f - amount);
        tx.write(accounts[to], tx.read(accounts[to]) + amount);
      });
    }
  });

  long total = 0;
  for (auto& a : accounts) total += a.unsafe_ref();
  EXPECT_EQ(total, long{kAccounts} * kInitial);
}

TEST_P(StmConcurrentTest, SnapshotsAreConsistent) {
  // Writers keep a==b; readers must never observe a!=b inside a transaction
  // (opacity: even doomed transactions see consistent states — a violation
  // here would fire before the reader's commit).
  Var<long> a(0), b(0);
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};

  std::thread writer([&] {
    for (int i = 1; i <= 20000; ++i) {
      stm.atomically([&](Txn& tx) {
        tx.write(a, static_cast<long>(i));
        tx.write(b, static_cast<long>(i));
      });
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        stm.atomically([&](Txn& tx) {
          const long x = tx.read(a);
          const long y = tx.read(b);
          if (x != y) violations.fetch_add(1);
        });
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST_P(StmConcurrentTest, AbortHooksRunExactlyOncePerAbort) {
  Var<long> v(0);
  std::atomic<long> hook_runs{0};
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < 500; ++i) {
      stm.atomically([&](Txn& tx) {
        // Register first: every abort of this attempt — wherever it fires —
        // must run the hook exactly once.
        tx.on_abort([&] { hook_runs.fetch_add(1); });
        tx.write(v, tx.read(v) + 1);
      });
    }
  });
  const StatsSnapshot s = stm.stats().snapshot();
  // Every aborted attempt ran its (single) abort hook; committed attempts
  // ran none.
  EXPECT_EQ(hook_runs.load(), static_cast<long>(s.total_aborts()));
  EXPECT_EQ(v.unsafe_ref(), long{kThreads} * 500);
}

TEST_P(StmConcurrentTest, DisjointVarsDoNotConflict) {
  // Threads write thread-private vars: no aborts should occur in any mode
  // (var-based STM: no false sharing through an orec table).
  std::vector<Var<long>> vars(kThreads);
  stm.stats().reset();
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kItersPerThread; ++i) {
      stm.atomically([&](Txn& tx) { tx.write(vars[t], tx.read(vars[t]) + 1); });
    }
  });
  EXPECT_EQ(stm.stats().snapshot().total_aborts(), 0u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(vars[t].unsafe_ref(), kItersPerThread);
  }
}

TEST_P(StmConcurrentTest, WriteSkewIsPrevented) {
  // Classic write-skew: each txn reads both vars and writes one, maintaining
  // x + y <= 1. Serializable STMs must keep the invariant.
  Var<long> x(0), y(0);
  run_threads(2, [&](int t) {
    for (int i = 0; i < 2000; ++i) {
      stm.atomically([&](Txn& tx) {
        const long sum = tx.read(x) + tx.read(y);
        if (sum == 0) {
          if (t == 0) {
            tx.write(x, long{1});
          } else {
            tx.write(y, long{1});
          }
        }
      });
      stm.atomically([&](Txn& tx) {  // reset
        if (t == 0) {
          tx.write(x, long{0});
        } else {
          tx.write(y, long{0});
        }
      });
      const long total = stm.atomically(
          [&](Txn& tx) { return tx.read(x) + tx.read(y); });
      EXPECT_LE(total, 1);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, StmConcurrentTest,
                         ::testing::Values(Mode::Lazy, Mode::EagerWrite,
                                           Mode::EagerAll),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

namespace {
std::uint64_t aborts_of(Stm& stm, AbortReason r) {
  return stm.stats().snapshot().aborts[static_cast<std::size_t>(r)];
}
}  // namespace

// Theorem 5.3's CA protocol is write(α) first. Under EagerAll a write
// acquire that read the slot first would publish a reader bit, and two
// racing writers could each abort VisibleReader on the other's bit. Lock
// first: the holder never sees the loser, and the loser aborts WriteLocked.
TEST(EagerAllCaTest, EagerAllCaWriteRaceAbortsOnlyTheLoser) {
  Stm stm{Mode::EagerAll};
  proust::core::OptimisticLap<long> lap(stm, 16);
  constexpr long kKey = 7;
  std::atomic<bool> held{false};
  std::atomic<int> loser_attempts{0};
  int holder_attempts = 0;
  stm.stats().reset();

  std::thread holder([&] {
    stm.atomically([&](Txn& tx) {
      ++holder_attempts;
      lap.acquire(tx, kKey, /*write=*/true);
      if (holder_attempts == 1) {
        held.store(true);
        // Stall until the loser has aborted at least once (bounded, so a
        // regression fails the expectations instead of hanging).
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (loser_attempts.load() < 2 &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
      }
    });
  });
  while (!held.load()) std::this_thread::yield();
  stm.atomically([&](Txn& tx) {
    loser_attempts.fetch_add(1);
    lap.acquire(tx, kKey, /*write=*/true);
  });
  holder.join();

  EXPECT_EQ(holder_attempts, 1) << "the lock holder must never abort";
  EXPECT_GE(loser_attempts.load(), 2);
  const StatsSnapshot s = stm.stats().snapshot();
  const std::uint64_t write_locked =
      s.aborts[static_cast<std::size_t>(AbortReason::WriteLocked)];
  EXPECT_GE(write_locked, 1u);
  EXPECT_EQ(s.aborts[static_cast<std::size_t>(AbortReason::VisibleReader)],
            0u);
  EXPECT_EQ(s.total_aborts(), write_locked)
      << "every abort is the loser's WriteLocked:\n" << s.to_string();
}

// A re-read skips the reader-bit RMW when this attempt already holds the
// bit. Neither a commit after 1000 re-reads nor an explicit retry abort may
// leave the bit behind: a writer on another thread must then commit on its
// first attempt without a VisibleReader abort.
TEST(EagerAllCaTest, EagerAllRereadMarksOnce) {
  Stm stm{Mode::EagerAll};
  Var<long> v(0);
  auto writer_commits_first_time = [&](long value) {
    const std::uint64_t before = aborts_of(stm, AbortReason::VisibleReader);
    int attempts = 0;
    std::thread([&] {
      stm.atomically([&](Txn& tx) {
        ++attempts;
        tx.write(v, value);
      });
    }).join();
    EXPECT_EQ(attempts, 1);
    EXPECT_EQ(aborts_of(stm, AbortReason::VisibleReader) - before, 0u);
  };

  long sum = 0;
  stm.atomically([&](Txn& tx) {
    sum = 0;
    for (int i = 0; i < 1000; ++i) sum += tx.read(v);
  });
  EXPECT_EQ(sum, 0);
  writer_commits_first_time(1);

  const std::uint64_t explicit_before = aborts_of(stm, AbortReason::Explicit);
  int attempts = 0;
  stm.atomically([&](Txn& tx) {
    if (++attempts == 1) {
      for (int i = 0; i < 1000; ++i) sum += tx.read(v);
      tx.retry();
    }
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(aborts_of(stm, AbortReason::Explicit) - explicit_before, 1u);
  writer_commits_first_time(2);
  EXPECT_EQ(v.unsafe_ref(), 2);
}
