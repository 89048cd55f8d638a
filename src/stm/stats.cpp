#include "stm/stats.hpp"

#include <algorithm>
#include <sstream>

namespace proust::stm {

std::uint64_t StatsSnapshot::total_aborts() const noexcept {
  std::uint64_t t = 0;
  for (auto a : aborts) t += a;
  return t;
}

std::uint64_t StatsSnapshot::total_injected() const noexcept {
  std::uint64_t t = 0;
  for (auto n : injected) t += n;
  return t;
}

double StatsSnapshot::abort_ratio() const noexcept {
  return starts == 0 ? 0.0
                     : static_cast<double>(total_aborts()) /
                           static_cast<double>(starts);
}

std::uint64_t StatsSnapshot::total_calls() const noexcept {
  std::uint64_t t = 0;
  for (auto n : attempts_hist) t += n;
  return t;
}

std::uint64_t StatsSnapshot::attempts_percentile(double p) const noexcept {
  const std::uint64_t calls = total_calls();
  if (calls == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the percentile call (1-based, ceil), then walk the buckets.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     p * static_cast<double>(calls) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < attempts_hist.size(); ++b) {
    seen += attempts_hist[b];
    if (seen >= rank) {
      const std::uint64_t bound = attempt_bucket_bound(b);
      // The top occupied bucket cannot report beyond the observed worst.
      return bound > max_attempts ? max_attempts : bound;
    }
  }
  return max_attempts;
}

namespace {

struct GroupName {
  StatGroup group;
  const char* text;  // empty: the group prints bare
  const char* json;
};
#define PROUST_STATS_GROUP_NAME(group, text, json) \
  {StatGroup::group, text, json},
constexpr GroupName kGroups[] = {
    PROUST_STM_STAT_GROUPS(PROUST_STATS_GROUP_NAME)};
#undef PROUST_STATS_GROUP_NAME

bool any_nonzero(const StatsSnapshot& s, StatGroup g) {
  for (const StatField& f : kStatFields) {
    if (f.group == g && s.*f.member != 0) return true;
  }
  return false;
}

// The group's fields as `key=value<unit> ...` (text) or `"key": value, ...`
// (JSON), with a separator before the first unless `first`.
void put_fields(std::ostream& os, const StatsSnapshot& s, StatGroup g,
                bool json, bool first) {
  for (const StatField& f : kStatFields) {
    if (f.group != g) continue;
    if (!first) os << (json ? ", " : " ");
    first = false;
    if (json) {
      os << '"' << f.key << "\": " << s.*f.member;
    } else {
      os << f.key << '=' << s.*f.member << f.unit;
    }
  }
}

// Nonzero entries of an enum-indexed array, named by the enum's to_string.
template <class E, std::size_t N>
void put_entries(std::ostream& os, const std::array<std::uint64_t, N>& a,
                 bool json) {
  const char* sep = "";
  for (std::size_t i = 0; i < N; ++i) {
    if (a[i] == 0) continue;
    const char* name = proust::stm::to_string(static_cast<E>(i));
    os << sep;
    sep = ", ";
    if (json) {
      os << '"' << name << "\": " << a[i];
    } else {
      os << name << '=' << a[i];
    }
  }
}

}  // namespace

std::string StatsSnapshot::to_string() const {
  std::ostringstream os;
  put_fields(os, *this, StatGroup::Txn, false, true);
  os << " aborts=" << total_aborts();
  put_fields(os, *this, StatGroup::Access, false, false);
  for (const GroupName& g : kGroups) {
    if (*g.text == '\0' || !any_nonzero(*this, g.group)) continue;
    os << ' ' << g.text << '{';
    const bool attempts = g.group == StatGroup::Attempts;
    if (attempts) {
      os << "p50=" << attempts_percentile(0.50)
         << " p99=" << attempts_percentile(0.99);
    }
    put_fields(os, *this, g.group, false, !attempts);
    os << '}';
  }
  if (total_aborts() > 0) {
    os << " [";
    put_entries<AbortReason>(os, aborts, false);
    os << ']';
  }
  if (total_injected() > 0) {
    os << " injected=[";
    put_entries<ChaosPoint>(os, injected, false);
    os << ']';
  }
  return os.str();
}

std::string StatsSnapshot::to_json() const {
  std::ostringstream os;
  put_fields(os, *this, StatGroup::Txn, true, true);
  os << ", \"aborts\": {";
  put_entries<AbortReason>(os, aborts, true);
  os << '}';
  put_fields(os, *this, StatGroup::Access, true, false);
  for (const GroupName& g : kGroups) {
    if (*g.json == '\0') continue;
    os << ", \"" << g.json << "\": {";
    const bool attempts = g.group == StatGroup::Attempts;
    if (attempts) {
      os << "\"p50\": " << attempts_percentile(0.50)
         << ", \"p99\": " << attempts_percentile(0.99);
    }
    put_fields(os, *this, g.group, true, !attempts);
    os << '}';
  }
  os << ", \"injected\": {";
  put_entries<ChaosPoint>(os, injected, true);
  os << '}';
  return os.str();
}

StatsSnapshot Stats::snapshot() const {
  StatsSnapshot s;
  const unsigned n = ThreadRegistry::high_water();
  // Relaxed per-field loads (see ld/st in stats.hpp): the watchdog
  // snapshots concurrently with running workers, so a snapshot is a
  // consistent-enough monotone view, not an atomic cut across cells.
  for (unsigned i = 0; i < n && i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    for (const StatField& f : kStatFields) {
      std::uint64_t& acc = s.*f.member;
      const std::uint64_t v = ld(c.*f.member);
      acc = f.agg == StatAgg::Max ? std::max(acc, v) : acc + v;
    }
#define PROUST_STATS_SUM_ARRAY(name, n) \
  for (std::size_t j = 0; j < n; ++j) s.name[j] += ld(c.name[j]);
    PROUST_STM_STATS(PROUST_STATS_SKIP, PROUST_STATS_SUM_ARRAY)
#undef PROUST_STATS_SUM_ARRAY
  }
  return s;
}

void Stats::reset() {
  // Field-wise relaxed stores rather than `c = Cell{}`: a watchdog may still
  // be snapshotting when a harness resets between runs.
  for (Cell& c : cells_) {
    for (const StatField& f : kStatFields) st(c.*f.member, 0);
#define PROUST_STATS_ZERO_ARRAY(name, n) \
  for (std::uint64_t& x : c.name) st(x, 0);
    PROUST_STM_STATS(PROUST_STATS_SKIP, PROUST_STATS_ZERO_ARRAY)
#undef PROUST_STATS_ZERO_ARRAY
  }
}

}  // namespace proust::stm
