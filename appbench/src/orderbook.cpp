// orderbook: a matching engine over pessimistic (Boosting-style) locks.
//
// Mode::Lazy. Bids and asks are eager TxnPriorityQueues under 2-stripe
// PessimisticLaps with the pqueue_lock_kind group discipline; open orders
// are an eager TxnHashMap under a 512-stripe PessimisticLap. Each client
// iteration places one order (remove_min, insert, insert + put) and then
// runs one match (remove_min x2; if the pair crosses, remove x2, else both
// go back). One iteration in 8 also runs a read-only quote (both mins).
// Every traded order must have been open at its price, and both sides must
// stay non-empty; at the end every placed order is open or traded, and the
// two books hold exactly the open orders.
//
// Every update takes its sides' Write(Min) first, through remove_min, and
// sides in one order (bids, asks, then open orders), so no two transactions
// can deadlock. TxnPriorityQueue::min and insert take Read(Min), and insert
// upgrades it to Write(Min) when the new element becomes the minimum; a
// match reading the tops with min() upgrades the same way in remove_min.
// Two transactions upgrading one side deadlock until lap_timeout (2 ms),
// and a timed-out reader retries into the same pattern while the other
// still holds its Read(Min): with min-then-upgrade places and matches the
// three clients fall into a convoy of timeouts within seconds and never
// leave it (~400k -> 5-10k txn/s). So a place lifts the top order off,
// inserts the new one and puts the top back, and a match puts a
// non-crossing pair back.
//
// The book has to stay the same shape for a whole run. Orders are never
// cancelled, so any flow order that can rest without crossing stays in the
// book, and with a match trading at most one pair per iteration the book
// (and the open-orders map, whose buckets never rehash) grows all run:
// with bids drawn from 95..110 and asks from 90..105 it gained ~40k orders
// in 5 s and throughput halved. So every flow order crosses every flow
// order of the other side: prices are 90..110, flow bids 101..110, flow
// asks 90..99, and each client alternates sides. Whenever both sides hold
// a flow order the next match trades, so only the imbalance between the
// clients' sides (at most one order per client) rests. Depth comes from a
// resting book placed at set-up outside the flow's range (bids 80..89,
// asks 111..120), which no flow order can cross.
#include <memory>
#include <string>
#include <vector>

#include "core/lap.hpp"
#include "core/pqueue_state.hpp"
#include "core/txn_hash_map.hpp"
#include "core/txn_pqueue.hpp"
#include "harness.hpp"

namespace appbench {
namespace {

using namespace proust;

struct Ask {  // lowest price first
  long price;
  long id;
  bool operator<(const Ask& o) const {
    return price != o.price ? price < o.price : id < o.id;
  }
};
struct Bid {  // highest price first
  long price;
  long id;
  bool operator<(const Bid& o) const {
    return price != o.price ? price > o.price : id < o.id;
  }
};

constexpr unsigned kPeriod = 8;  // iterations; the last one also quotes
constexpr std::size_t kStreamOrders = std::size_t{1} << 16;
constexpr unsigned kSampleEvery = 32;
constexpr long kMinPrice = 90;   // flow asks: kMinPrice..kAskHigh
constexpr long kMaxPrice = 110;  // flow bids: kBidLow..kMaxPrice
constexpr long kBidLow = 101;
constexpr long kAskHigh = 99;
constexpr long kRestingPerSide = 2048;
constexpr long kRestingLevels = 10;  // resting prices: 10 levels outside

struct Order {
  long price;
  bool bid;
};

enum class Match { NoCross, Traded, Bad };

template <bool kTraced>
class Orderbook final : public Workload {
  using T = Tracing<kTraced>;
  using BookSideLap = typename T::template Lap<
      core::PessimisticLap<core::PQueueState, core::PQueueStateHasher>,
      core::PQueueState>;
  using OpenLap = typename T::template Lap<core::PessimisticLap<long>, long>;

 public:
  explicit Orderbook(const WorkloadConfig& cfg)
      : stm_(stm::Mode::Lazy),
        bids_lap_(stm_, 2, core::pqueue_lock_kind),
        asks_lap_(stm_, 2, core::pqueue_lock_kind),
        open_lap_(stm_, 512),
        bids_(bids_lap_),
        asks_(asks_lap_),
        open_(open_lap_),
        clients_(static_cast<std::size_t>(cfg.clients)) {
    InputRng resting(stream_seed(cfg.seed, -1));
    for (long i = 0; i < kRestingPerSide; ++i) {
      // Resting ids are below every client id (those start at 1 << 40).
      const long bid_id = 2 * i;
      const long ask_id = 2 * i + 1;
      const long bid = kMinPrice - 1 - static_cast<long>(resting.below(kRestingLevels));
      const long ask = kMaxPrice + 1 + static_cast<long>(resting.below(kRestingLevels));
      bids_.unsafe_insert(Bid{bid, bid_id});
      asks_.unsafe_insert(Ask{ask, ask_id});
      open_.unsafe_put(bid_id, bid);
      open_.unsafe_put(ask_id, ask);
    }
  }

  stm::Stm& stm() override { return stm_; }

  void make_streams(const WorkloadConfig& cfg) override {
    for (int c = 0; c < cfg.clients; ++c) {
      InputRng rng(stream_seed(cfg.seed, c));
      std::vector<Order>& s = clients_[static_cast<std::size_t>(c)].stream;
      s.resize(kStreamOrders);
      for (std::size_t i = 0; i < s.size(); ++i) {
        s[i].bid = i % 2 == 0;
        s[i].price = s[i].bid
                         ? kBidLow + static_cast<long>(rng.below(kMaxPrice - kBidLow + 1))
                         : kMinPrice + static_cast<long>(rng.below(kAskHigh - kMinPrice + 1));
      }
    }
  }

  void step(Client& c) override {
    PerClient& pc = clients_[static_cast<std::size_t>(c.index())];
    const unsigned phase = static_cast<unsigned>(pc.iteration % kPeriod);
    if (phase == 0) c.begin_period();
    const Order& o = pc.stream[pc.iteration % pc.stream.size()];
    // Ids are unique per client and per iteration, so a retried place
    // replays the same order.
    const long id = static_cast<long>(
        (static_cast<std::uint64_t>(c.index()) + 1) << 40 | pc.iteration);
    ++pc.iteration;
    place(c, pc, o, id);
    match(c, pc);
    if (phase == kPeriod - 1) quote(c);
  }

  void final_checks(std::vector<std::string>& failures) override {
    long placed = 0;
    long trades = 0;
    long bad = 0;
    for (const PerClient& pc : clients_) {
      placed += pc.placed;
      trades += pc.trades;
      bad += pc.bad_txns;
    }
    placed += 2 * kRestingPerSide;
    const long open = open_.size();
    if (placed != open + 2 * trades) {
      failures.push_back("placed (incl. resting) " + std::to_string(placed) +
                         " != open " +
                         std::to_string(open) + " + 2 * trades " +
                         std::to_string(trades));
    }
    if (bids_.size() + asks_.size() != open) {
      failures.push_back("bids " + std::to_string(bids_.size()) + " + asks " +
                         std::to_string(asks_.size()) + " != open " +
                         std::to_string(open));
    }
    if (bad != 0) {
      failures.push_back(std::to_string(bad) +
                         " places or matches found a side empty, or traded "
                         "an order that was not open at its price");
    }
  }

 private:
  struct alignas(64) PerClient {
    std::vector<Order> stream;
    std::uint64_t iteration = 0;
    long placed = 0;
    long trades = 0;
    long bad_txns = 0;  // places and matches that failed a check
  };

  void place(Client& c, PerClient& pc, const Order& o, long id) {
    const auto ok = c.txn(stm_, TxnClass::Update, [&](stm::Txn& tx) {
      const bool sided = o.bid ? insert_under_top(tx, bids_, Bid{o.price, id})
                               : insert_under_top(tx, asks_, Ask{o.price, id});
      T::op(Op::HashMapPut, [&] { return open_.put(tx, id, o.price); });
      return sided;
    });
    if (!ok) return;
    ++pc.placed;
    if (!*ok) {  // the resting book never runs out
      ++pc.bad_txns;
      c.fail();
    }
  }

  /// Insert `v` holding the side's Write(Min) throughout: take the top
  /// off, insert, put the top back. False if the side was empty.
  template <class Side, class V>
  bool insert_under_top(stm::Txn& tx, Side& side, const V& v) {
    const auto top =
        T::op(Op::PQueueRemoveMin, [&] { return side.remove_min(tx); });
    T::op(Op::PQueueInsert, [&] { side.insert(tx, v); });
    if (!top) return false;
    T::op(Op::PQueueInsert, [&] { side.insert(tx, *top); });
    return true;
  }

  void match(Client& c, PerClient& pc) {
    const auto r = c.txn(stm_, TxnClass::Update, [&](stm::Txn& tx) {
      const auto b =
          T::op(Op::PQueueRemoveMin, [&] { return bids_.remove_min(tx); });
      const auto a =
          T::op(Op::PQueueRemoveMin, [&] { return asks_.remove_min(tx); });
      if (!b || !a) return Match::Bad;  // the resting book never runs out
      if (b->price < a->price) {
        T::op(Op::PQueueInsert, [&] { bids_.insert(tx, *b); });
        T::op(Op::PQueueInsert, [&] { asks_.insert(tx, *a); });
        return Match::NoCross;
      }
      const auto bo =
          T::op(Op::HashMapRemove, [&] { return open_.remove(tx, b->id); });
      const auto ao =
          T::op(Op::HashMapRemove, [&] { return open_.remove(tx, a->id); });
      return bo == b->price && ao == a->price ? Match::Traded : Match::Bad;
    });
    if (r == Match::Traded) ++pc.trades;
    if (r == Match::Bad) {
      ++pc.bad_txns;
      c.fail();
    }
  }

  void quote(Client& c) {
    const auto sane = c.txn(stm_, TxnClass::Read, [&](stm::Txn& tx) {
      const auto b = T::op(Op::PQueueMin, [&] { return bids_.min(tx); });
      const auto a = T::op(Op::PQueueMin, [&] { return asks_.min(tx); });
      // The resting book keeps both sides non-empty.
      return b && a && b->price >= kMinPrice - kRestingLevels &&
             a->price <= kMaxPrice + kRestingLevels;
    });
    if (sane && !*sane) c.fail();
  }

  stm::Stm stm_;
  BookSideLap bids_lap_;
  BookSideLap asks_lap_;
  OpenLap open_lap_;
  core::TxnPriorityQueue<Bid, BookSideLap> bids_;
  core::TxnPriorityQueue<Ask, BookSideLap> asks_;
  core::TxnHashMap<long, long, OpenLap> open_;
  std::vector<PerClient> clients_;
};

}  // namespace

const WorkloadSpec kOrderbook{"orderbook", kSampleEvery,
                              make_variant<Orderbook>};

}  // namespace appbench
