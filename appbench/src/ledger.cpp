// ledger: bank transfers with an audit trail and full-book audits.
//
// Mode::EagerAll, default StmOptions. 1024 accounts in an eager TxnHashMap
// over a 256-slot OptimisticLap, plus an audit-trail TxnQueue over a 2-slot
// OptimisticLap. Each client's stream repeats a 32-transaction period: 31
// transfers (get, put, get, put, enq), then one read-only audit that sums
// all 1024 balances. Every audit must see the conserved total; at the end
// the book must still conserve it and the trail must hold exactly one
// entry per committed transfer.
#include <memory>
#include <string>
#include <vector>

#include "core/lap.hpp"
#include "core/txn_hash_map.hpp"
#include "core/txn_queue.hpp"
#include "harness.hpp"

namespace appbench {
namespace {

using namespace proust;

constexpr long kAccounts = 1024;
// Large enough that no transfer in any run can overdraw an account, so
// every transfer does the same five operations.
constexpr long kInitialBalance = 1'000'000'000;
constexpr long kTotal = kAccounts * kInitialBalance;
constexpr unsigned kPeriod = 32;  // 31 transfers, then 1 audit
constexpr std::size_t kStreamTransfers = std::size_t{1} << 16;
constexpr unsigned kSampleEvery = 256;

struct Transfer {
  long from;
  long to;
  long amount;
};

template <bool kTraced>
class Ledger final : public Workload {
  using T = Tracing<kTraced>;
  using AccountsLap =
      typename T::template Lap<core::OptimisticLap<long>, long>;
  using AuditLap = typename T::template Lap<
      core::OptimisticLap<core::QueueState, core::QueueStateHasher>,
      core::QueueState>;

 public:
  explicit Ledger(const WorkloadConfig& cfg)
      : stm_(cfg.lazy_ledger ? stm::Mode::Lazy : stm::Mode::EagerAll),
        accounts_lap_(stm_, 256),
        audit_lap_(stm_, 2),
        accounts_(accounts_lap_),
        audit_(audit_lap_),
        clients_(static_cast<std::size_t>(cfg.clients)) {
    for (long a = 0; a < kAccounts; ++a) {
      accounts_.unsafe_put(a, kInitialBalance);
    }
  }

  stm::Stm& stm() override { return stm_; }

  void make_streams(const WorkloadConfig& cfg) override {
    for (int c = 0; c < cfg.clients; ++c) {
      InputRng rng(stream_seed(cfg.seed, c));
      std::vector<Transfer>& s = clients_[static_cast<std::size_t>(c)].stream;
      s.resize(kStreamTransfers);
      for (Transfer& t : s) {
        t.from = static_cast<long>(rng.below(kAccounts));
        t.to = static_cast<long>(rng.below(kAccounts - 1));
        if (t.to >= t.from) ++t.to;  // distinct accounts
        t.amount = 1 + static_cast<long>(rng.below(100));
      }
    }
  }

  void step(Client& c) override {
    PerClient& pc = clients_[static_cast<std::size_t>(c.index())];
    const unsigned phase = static_cast<unsigned>(pc.pos++ % kPeriod);
    if (phase == 0) c.begin_period();
    if (phase == kPeriod - 1) {
      audit(c);
    } else {
      transfer(c, pc, pc.stream[pc.next++ % pc.stream.size()]);
    }
  }

  void final_checks(std::vector<std::string>& failures) override {
    const long total = stm_.atomically([&](stm::Txn& tx) {
      long sum = 0;
      for (long a = 0; a < kAccounts; ++a) {
        sum += accounts_.get(tx, a).value_or(0);
      }
      return sum;
    });
    if (total != kTotal) {
      failures.push_back("final balances sum to " + std::to_string(total) +
                         ", expected " + std::to_string(kTotal));
    }
    long transfers = 0;
    long torn = 0;
    for (const PerClient& pc : clients_) {
      transfers += pc.committed_transfers;
      torn += pc.torn_audits;
    }
    if (audit_.size() != transfers) {
      failures.push_back("audit trail holds " + std::to_string(audit_.size()) +
                         " entries, committed transfers " +
                         std::to_string(transfers));
    }
    if (torn != 0) {
      failures.push_back(std::to_string(torn) +
                         " audits saw a non-conserved total");
    }
  }

 private:
  struct alignas(64) PerClient {
    std::vector<Transfer> stream;
    std::uint64_t pos = 0;
    std::uint64_t next = 0;
    long committed_transfers = 0;
    long torn_audits = 0;
  };

  void transfer(Client& c, PerClient& pc, const Transfer& t) {
    const auto ok = c.txn(stm_, TxnClass::Update, [&](stm::Txn& tx) {
      const long from =
          T::op(Op::HashMapGet, [&] { return accounts_.get(tx, t.from); })
              .value_or(0);
      T::op(Op::HashMapPut,
            [&] { return accounts_.put(tx, t.from, from - t.amount); });
      const long to =
          T::op(Op::HashMapGet, [&] { return accounts_.get(tx, t.to); })
              .value_or(0);
      T::op(Op::HashMapPut,
            [&] { return accounts_.put(tx, t.to, to + t.amount); });
      T::op(Op::QueueEnq, [&] { audit_.enq(tx, t.from * kAccounts + t.to); });
      return true;
    });
    if (ok) ++pc.committed_transfers;
  }

  void audit(Client& c) {
    const auto total = c.txn(stm_, TxnClass::Read, [&](stm::Txn& tx) {
      long sum = 0;
      for (long a = 0; a < kAccounts; ++a) {
        sum += T::op(Op::HashMapGet, [&] { return accounts_.get(tx, a); })
                   .value_or(0);
      }
      return sum;
    });
    if (total && *total != kTotal) {
      ++clients_[static_cast<std::size_t>(c.index())].torn_audits;
      c.fail();
    }
  }

  stm::Stm stm_;
  AccountsLap accounts_lap_;
  AuditLap audit_lap_;
  core::TxnHashMap<long, long, AccountsLap> accounts_;
  core::TxnQueue<long, AuditLap> audit_;
  std::vector<PerClient> clients_;
};

}  // namespace

const WorkloadSpec kLedger{"ledger", kSampleEvery, make_variant<Ledger>};

}  // namespace appbench
