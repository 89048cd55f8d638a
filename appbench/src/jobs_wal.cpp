// jobs_wal: a durable job pipeline on the lazy (replay-log) quadrant.
//
// Mode::Lazy with a Wal attached at its default WalOptions (relaxed ack,
// fsync_every_n = 32, 200 us interval). A LazyPriorityQueue of jobs
// (CowHeap, 2-slot OptimisticLap), a LazyTrieMap of results (HAMT, 512-slot
// OptimisticLap) and a TxnCounter of pending jobs. The queue is prefilled
// with 4096 jobs, and every client alternates a submit (insert + incr + one
// 32-byte redo record) and a claim (remove_min + put + decr + one record),
// so claims never find the queue empty. One pair in 8 also runs a read-only
// status transaction (min + get of the client's latest claim).
//
// Results are kept per worker in a ring of kResultSlots keys (a claim
// overwrites the result of the claim kResultSlots before it), so the trie
// stays the same size all run instead of growing by one entry per claim.
//
// Checks: claims never come back empty, status reads see the client's
// latest claimed job, queue size == counter == 4096 + submits - claims,
// the results hold one entry per ring slot used, and after the log is
// closed Wal::recover returns exactly the committed records (per client:
// count, order, and an order-sensitive hash of the payloads).
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/lap.hpp"
#include "core/lazy_pqueue.hpp"
#include "core/lazy_trie_map.hpp"
#include "core/pqueue_state.hpp"
#include "core/txn_counter.hpp"
#include "harness.hpp"

namespace appbench {
namespace {

using namespace proust;

struct Job {
  long deadline;
  long id;
  bool operator<(const Job& o) const {
    return deadline != o.deadline ? deadline < o.deadline : id < o.id;
  }
};

constexpr long kPrefill = 4096;
constexpr long kDeadlineSlack = 8192;
constexpr unsigned kPeriod = 8;  // submit/claim pairs; the last adds a status
constexpr std::size_t kStreamPairs = std::size_t{1} << 16;
constexpr unsigned kSampleEvery = 32;
constexpr std::uint32_t kLogStream = 1;
constexpr long kResultSlots = 16384;  // per client

/// The redo record every logging transaction appends (32 bytes).
struct Record {
  std::uint64_t client_kind;  // client * 2 + (0 submit | 1 claim)
  std::uint64_t seq;          // the client's logging-commit sequence number
  std::uint64_t job_id;
  std::uint64_t deadline;
};
static_assert(sizeof(Record) == 32);

std::uint64_t fold(std::uint64_t h, const Record& r) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(&r);
  for (std::size_t i = 0; i < sizeof r; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ULL;
  }
  return h;
}
constexpr std::uint64_t kFoldInit = 0xCBF29CE484222325ULL;

/// Open a log with the default WalOptions in `dir`, timing it into `ns`.
std::unique_ptr<stm::Wal> open_wal(const std::string& dir, std::uint64_t& ns) {
  stm::WalOptions o;
  o.dir = dir;
  const std::uint64_t t0 = now_ns();
  auto wal = std::make_unique<stm::Wal>(o);
  ns = now_ns() - t0;
  return wal;
}

stm::StmOptions stm_options(stm::Wal* wal) {
  stm::StmOptions o;
  o.durability = wal;
  return o;
}

template <bool kTraced>
class JobsWal final : public Workload {
  using T = Tracing<kTraced>;
  using QueueLap = typename T::template Lap<
      core::OptimisticLap<core::PQueueState, core::PQueueStateHasher>,
      core::PQueueState>;
  using ResultsLap =
      typename T::template Lap<core::OptimisticLap<long>, long>;
  using PendingLap = typename T::template Lap<
      core::OptimisticLap<core::CounterState, core::CounterStateHasher>,
      core::CounterState>;

 public:
  explicit JobsWal(const WorkloadConfig& cfg)
      : dir_(cfg.scratch_dir),
        wal_(open_wal(dir_.path, wal_open_ns_)),
        stm_(stm::Mode::Lazy, stm_options(wal_.get())),
        queue_lap_(stm_, 2),
        results_lap_(stm_, 512),
        pending_lap_(stm_, 1),
        queue_(queue_lap_),
        results_(results_lap_),
        pending_(pending_lap_, kPrefill),
        clients_(static_cast<std::size_t>(cfg.clients)) {
    InputRng prefill(stream_seed(cfg.seed, -1));
    for (long i = 0; i < kPrefill; ++i) {
      queue_.unsafe_insert(
          Job{static_cast<long>(prefill.below(kDeadlineSlack)), i});
    }
  }

  stm::Stm& stm() override { return stm_; }
  stm::Wal* wal() override { return wal_.get(); }
  std::uint64_t wal_open_ns() const override { return wal_open_ns_; }

  void make_streams(const WorkloadConfig& cfg) override {
    for (int c = 0; c < cfg.clients; ++c) {
      InputRng rng(stream_seed(cfg.seed, c));
      std::vector<long>& s = clients_[static_cast<std::size_t>(c)].slack;
      s.resize(kStreamPairs);
      for (long& d : s) d = static_cast<long>(rng.below(kDeadlineSlack));
    }
  }

  void step(Client& c) override {
    PerClient& pc = clients_[static_cast<std::size_t>(c.index())];
    const unsigned phase = static_cast<unsigned>(pc.pair % kPeriod);
    if (phase == 0) c.begin_period();
    // Deadlines advance with the client's own progress plus a slack, so the
    // queue's order stays stationary over a run.
    const long deadline =
        static_cast<long>(pc.pair) + pc.slack[pc.pair % pc.slack.size()];
    const long id = static_cast<long>(
        (static_cast<std::uint64_t>(c.index()) + 1) << 40 | pc.pair);
    ++pc.pair;
    submit(c, pc, Job{deadline, id});
    claim(c, pc);
    if (phase == kPeriod - 1) status(c, pc);
  }

  void final_checks(std::vector<std::string>& failures) override {
    long submits = 0;
    long claims = 0;
    for (const PerClient& pc : clients_) {
      submits += pc.submits;
      claims += pc.claims;
    }
    const long queued = queue_.size();
    if (queued != kPrefill + submits - claims) {
      failures.push_back("queue holds " + std::to_string(queued) +
                         ", expected prefill + submits - claims = " +
                         std::to_string(kPrefill + submits - claims));
    }
    if (pending_.value() != queued) {
      failures.push_back("pending counter " + std::to_string(pending_.value()) +
                         " != queue size " + std::to_string(queued));
    }
    long slots_used = 0;
    for (const PerClient& pc : clients_) {
      slots_used += std::min(pc.claims, kResultSlots);
    }
    if (results_.size() != slots_used) {
      failures.push_back("results hold " + std::to_string(results_.size()) +
                         " entries, ring slots used " + std::to_string(slots_used));
    }
    check_recovery(failures);
  }

 private:
  struct alignas(64) PerClient {
    std::vector<long> slack;
    std::uint64_t pair = 0;
    long submits = 0;
    long claims = 0;
    // Committed logging transactions, and the fold of their records.
    std::uint64_t logged = 0;
    std::uint64_t log_hash = kFoldInit;
    long last_claim_id = -1;
  };

  static long result_key(const Client& c, long claim_seq) {
    return static_cast<long>(c.index()) * kResultSlots + claim_seq % kResultSlots;
  }

  Record record(const Client& c, const PerClient& pc, std::uint64_t kind,
                const Job& j) const {
    return Record{static_cast<std::uint64_t>(c.index()) * 2 + kind, pc.logged,
                  static_cast<std::uint64_t>(j.id),
                  static_cast<std::uint64_t>(j.deadline)};
  }

  void logged(PerClient& pc, const Record& r) {
    ++pc.logged;
    pc.log_hash = fold(pc.log_hash, r);
  }

  void submit(Client& c, PerClient& pc, const Job& job) {
    const Record rec = record(c, pc, 0, job);
    const auto ok = c.txn(stm_, TxnClass::Update, [&](stm::Txn& tx) {
      T::op(Op::LazyPQueueInsert, [&] { queue_.insert(tx, job); });
      T::op(Op::CounterIncr, [&] { pending_.incr(tx); });
      tx.wal_log(kLogStream, &rec, sizeof rec);
      return true;
    });
    if (ok) {
      ++pc.submits;
      logged(pc, rec);
    }
  }

  void claim(Client& c, PerClient& pc) {
    const long key = result_key(c, pc.claims);
    Record rec{};
    const auto job = c.txn(stm_, TxnClass::Update,
                           [&](stm::Txn& tx) -> std::optional<Job> {
      const auto j = T::op(Op::LazyPQueueRemoveMin,
                           [&] { return queue_.remove_min(tx); });
      if (!j) return std::nullopt;
      T::op(Op::TrieMapPut, [&] { return results_.put(tx, key, j->id); });
      T::op(Op::CounterDecr, [&] { return pending_.decr(tx); });
      rec = record(c, pc, 1, *j);
      tx.wal_log(kLogStream, &rec, sizeof rec);
      return j;
    });
    if (!job) return;  // failed call, already counted
    if (!*job) {       // the prefill makes an empty claim impossible
      c.fail();
      return;
    }
    ++pc.claims;
    logged(pc, rec);
    pc.last_claim_id = (*job)->id;
  }

  void status(Client& c, PerClient& pc) {
    const long key = result_key(c, pc.claims - 1);
    const auto seen = c.txn(stm_, TxnClass::Read, [&](stm::Txn& tx) {
      const auto next =
          T::op(Op::LazyPQueueMin, [&] { return queue_.min(tx); });
      const auto result =
          T::op(Op::TrieMapGet, [&] { return results_.get(tx, key); });
      return std::make_pair(next.has_value(), result);
    });
    if (!seen) return;
    if (!seen->first || seen->second != pc.last_claim_id) c.fail();
  }

  /// Close the log and recover its directory: the records must be exactly
  /// the committed ones. The Stm is not used after this.
  void check_recovery(std::vector<std::string>& failures) {
    wal_.reset();
    std::vector<std::uint64_t> count(clients_.size(), 0);
    std::vector<std::uint64_t> hash(clients_.size(), kFoldInit);
    long malformed = 0;
    const stm::WalRecoveryInfo info =
        stm::Wal::recover(dir_.path, [&](const stm::WalRecordView& v) {
          Record r{};
          if (v.stream != kLogStream || v.size != sizeof r) {
            ++malformed;
            return;
          }
          std::memcpy(&r, v.data, sizeof r);
          const std::uint64_t client = r.client_kind / 2;
          if (client >= clients_.size() || r.seq != count[client]) {
            ++malformed;
            return;
          }
          ++count[client];
          hash[client] = fold(hash[client], r);
        });
    if (info.torn_tail) failures.push_back("recovery found a torn tail");
    if (malformed != 0) {
      failures.push_back(std::to_string(malformed) +
                         " recovered records out of order or malformed");
    }
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      if (count[c] != clients_[c].logged || hash[c] != clients_[c].log_hash) {
        failures.push_back("client " + std::to_string(c) + ": recovered " +
                           std::to_string(count[c]) + " records, committed " +
                           std::to_string(clients_[c].logged) +
                           (count[c] == clients_[c].logged
                                ? " (payloads differ)"
                                : ""));
      }
    }
  }

  ScratchDir dir_;  // first member: the log directory is removed last
  std::uint64_t wal_open_ns_ = 0;
  std::unique_ptr<stm::Wal> wal_;
  stm::Stm stm_;
  QueueLap queue_lap_;
  ResultsLap results_lap_;
  PendingLap pending_lap_;
  core::LazyPriorityQueue<Job, QueueLap> queue_;
  core::LazyTrieMap<long, long, ResultsLap> results_;
  core::TxnCounter<PendingLap> pending_;
  std::vector<PerClient> clients_;
};

}  // namespace

const WorkloadSpec kJobsWal{"jobs_wal", kSampleEvery, make_variant<JobsWal>};

}  // namespace appbench
