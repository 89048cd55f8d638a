// Tests for the STM policy knobs: both contention-management policies keep a
// contended counter exact.
#include <gtest/gtest.h>

#include <barrier>
#include <thread>
#include <vector>

#include "stm/stm.hpp"

using namespace proust::stm;

namespace {
constexpr int kThreads = 4;

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
}  // namespace

class CmPolicyTest : public ::testing::TestWithParam<CmPolicy> {};

TEST_P(CmPolicyTest, ContendedCountersStayExact) {
  StmOptions opts;
  opts.cm_policy = GetParam();
  Stm stm(Mode::Lazy, opts);
  Var<long> counter(0);
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < 2000; ++i) {
      stm.atomically([&](Txn& tx) { tx.write(counter, tx.read(counter) + 1); });
    }
  });
  EXPECT_EQ(counter.unsafe_ref(), long{kThreads} * 2000);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CmPolicyTest,
                         ::testing::Values(CmPolicy::ExponentialBackoff,
                                           CmPolicy::TimestampAging),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });
