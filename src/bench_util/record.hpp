// One benchmark record for every driver: the fields are declared once in
// PROUST_BENCH_RECORD below, and that one list renders the fixed-width text
// row, the CSV row and the JSON object. Adding a field is one line here; it
// then shows up in all three outputs. Every record also carries the host
// topology (CSV `host_*` columns, JSON `host` object) and the STM stats
// snapshot (StatsSnapshot::to_json groups), so rows from different machines
// and drivers share one schema.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/topology.hpp"
#include "stm/stats.hpp"

namespace proust::bench {

// S(name): string; I(name, default): integer; D(name, decimals, default):
// floating point printed with `decimals` places. -1 marks "not applicable".
#define PROUST_BENCH_RECORD(S, I, D)                                         \
  S(bench)     /* record set, e.g. "fig4_map_throughput" */                  \
  S(family)    /* map | ordered | pqueue | counter | overlap | stm | wal */  \
  S(impl)      /* implementation under test */                              \
  S(workload)  /* the row key a trajectory compares across runs */          \
  S(mode)      /* STM mode; "" for non-STM baselines */                     \
  S(cm)        /* contention-management policy */                           \
  S(read_path) /* locked | optimistic wrapper reads */                      \
  S(pin)       /* pinning policy */                                          \
  S(mix)       /* the family's named operation mix */                       \
  I(threads, 1)                                                              \
  I(ops_per_txn, 1)                                                          \
  D(write_fraction, 3, -1)                                                   \
  I(key_range, 0)                                                            \
  D(zipf, 2, 0)                                                              \
  D(scan_frac, 3, 0)                                                         \
  I(scan_width, 0)                                                           \
  I(ca_slots, 0)  /* conflict-abstraction size M */                          \
  I(combine, 0)   /* log combining on (1) / off (0) */                       \
  I(extra, -1)    /* auxiliary knob of the record set */                     \
  I(total_ops, 0) /* operations per timed run */                             \
  D(mean_ms, 3, 0)                                                           \
  D(sd_ms, 3, 0)                                                             \
  D(min_ms, 3, 0)                                                            \
  D(ops_per_sec, 1, 0) /* throughput of the fastest timed run */             \
  D(abort_ratio, 5, 0)                                                       \
  /* Filled from the stats snapshot by with_stats(). */                      \
  I(aborts_total, 0)                                                         \
  D(aborts_per_txn, 3, 0)                                                    \
  I(stm_accesses, 0) /* transactional reads + writes */                      \
  I(attempts_p50, 0)                                                         \
  I(attempts_p99, 0)                                                         \
  I(attempts_max, 0)                                                         \
  I(cm_killed, 0)                                                            \
  I(ro_commits, 0)                                                           \
  D(ack_us, 2, 0) /* mean strict WAL ack wait */                             \
  /* WAL recovery: segments scanned and records replayed. */                 \
  I(wal_segments, 0)                                                         \
  I(wal_replayed, 0)

inline std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

/// RFC-4180 quoting: a field containing a comma, quote or newline is
/// wrapped in quotes with embedded quotes doubled.
inline std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  return out + "\"";
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

struct Record {
#define PROUST_RECORD_S(name) std::string name;
#define PROUST_RECORD_I(name, def) long name = def;
#define PROUST_RECORD_D(name, decimals, def) double name = def;
  PROUST_BENCH_RECORD(PROUST_RECORD_S, PROUST_RECORD_I, PROUST_RECORD_D)
#undef PROUST_RECORD_S
#undef PROUST_RECORD_I
#undef PROUST_RECORD_D
  stm::StatsSnapshot stats;

  /// Attach the STM counters of the measured runs and derive the
  /// stats-backed fields from them.
  Record& with_stats(const stm::StatsSnapshot& s) {
    stats = s;
    abort_ratio = s.abort_ratio();
    aborts_total = static_cast<long>(s.total_aborts());
    aborts_per_txn = s.commits ? static_cast<double>(s.total_aborts()) /
                                     static_cast<double>(s.commits)
                               : 0.0;
    stm_accesses = static_cast<long>(s.reads + s.writes);
    attempts_p50 = static_cast<long>(s.attempts_percentile(0.50));
    attempts_p99 = static_cast<long>(s.attempts_percentile(0.99));
    attempts_max = static_cast<long>(s.max_attempts);
    cm_killed = static_cast<long>(
        s.aborts[static_cast<std::size_t>(stm::AbortReason::CmKilled)]);
    ro_commits = static_cast<long>(s.ro_commits);
    ack_us = s.wal_strict_waits ? static_cast<double>(s.wal_wait_ns) /
                                      static_cast<double>(s.wal_strict_waits) /
                                      1000.0
                                : 0.0;
    return *this;
  }

  /// Set the timing fields from `times` (mean/sd/min of the timed runs,
  /// each performing `ops` operations).
  template <class Times>
  Record& with_times(const Times& times, long ops) {
    total_ops = ops;
    mean_ms = times.mean_ms;
    sd_ms = times.sd_ms;
    min_ms = times.min_ms;
    ops_per_sec = min_ms > 0 ? static_cast<double>(ops) / (min_ms / 1000.0)
                             : 0.0;
    return *this;
  }

  struct Field {
    const char* name;
    bool quoted;  // JSON string
    std::string (*text)(const Record&);
  };
  static const std::vector<Field>& fields() {
#define PROUST_RECORD_S(n) {#n, true, [](const Record& r) { return r.n; }},
#define PROUST_RECORD_I(n, def) \
  {#n, false, [](const Record& r) { return std::to_string(r.n); }},
#define PROUST_RECORD_D(n, decimals, def) \
  {#n, false, [](const Record& r) { return fmt(r.n, decimals); }},
    static const std::vector<Field> kFields = {PROUST_BENCH_RECORD(
        PROUST_RECORD_S, PROUST_RECORD_I, PROUST_RECORD_D)};
#undef PROUST_RECORD_S
#undef PROUST_RECORD_I
#undef PROUST_RECORD_D
    return kFields;
  }

  /// The field called `name`; throws std::invalid_argument for none.
  static const Field& field(const std::string& name) {
    for (const Field& f : fields()) {
      if (name == f.name) return f;
    }
    throw std::invalid_argument("bench::Record has no field '" + name + "'");
  }

  /// `pattern` with every `{field}` replaced by that field's text, e.g.
  /// "{impl}[{read_path}]".
  std::string format(const std::string& pattern) const {
    std::string out;
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      const std::size_t close = pattern.find('}', i);
      if (pattern[i] == '{' && close != std::string::npos) {
        out += field(pattern.substr(i + 1, close - i - 1)).text(*this);
        i = close;
      } else {
        out.push_back(pattern[i]);
      }
    }
    return out;
  }

  static std::vector<std::string> csv_header() {
    std::vector<std::string> cols;
    for (const Field& f : fields()) cols.emplace_back(f.name);
    for (const char* h : {"host_cpus", "host_nodes", "host_smt"}) {
      cols.emplace_back(h);
    }
    return cols;
  }

  std::vector<std::string> csv_row() const {
    std::vector<std::string> row;
    for (const Field& f : fields()) row.push_back(f.text(*this));
    const topo::Topology& t = topo::Topology::system();
    row.push_back(std::to_string(t.cpu_count()));
    row.push_back(std::to_string(t.node_count));
    row.push_back(t.smt ? "1" : "0");
    return row;
  }

  std::string json() const {
    std::string out = "{";
    for (const Field& f : fields()) {
      out += out.size() > 1 ? ", \"" : "\"";
      out += f.name;
      out += f.quoted ? "\": \"" + json_escape(f.text(*this)) + "\""
                      : "\": " + f.text(*this);
    }
    const topo::Topology& t = topo::Topology::system();
    out += ", \"host\": {\"cpus\": " + std::to_string(t.cpu_count()) +
           ", \"nodes\": " + std::to_string(t.node_count) +
           ", \"smt\": " + (t.smt ? "true" : "false") + "}, " +
           stats.to_json() + "}";
    return out;
  }
};

/// Collects a driver's records: prints each as a text row under the current
/// table's columns, and writes them all as CSV and/or JSON at the end.
class Report {
 public:
  explicit Report(std::string label) : label_(std::move(label)) {}

  /// Start a text table showing `columns` (record field names). Throws
  /// std::invalid_argument if a column names no field.
  void table(std::vector<std::string> columns) {
    for (const std::string& c : columns) (void)Record::field(c);
    columns_ = std::move(columns);
    print_row(columns_);
    std::string rule;
    for (const std::string& c : columns_) rule += std::string(width(c), '-') + "  ";
    std::printf("%s\n", rule.c_str());
  }

  void add(Record r) {
    if (!columns_.empty()) {
      std::vector<std::string> cells;
      for (const std::string& c : columns_) {
        cells.push_back(Record::field(c).text(r));
      }
      print_row(cells);
    }
    records_.push_back(std::move(r));
  }

  std::size_t size() const noexcept { return records_.size(); }
  const std::vector<Record>& records() const noexcept { return records_; }

  void write_csv(std::FILE* f) const {
    write_csv_line(f, Record::csv_header());
    for (const Record& r : records_) write_csv_line(f, r.csv_row());
  }

  void write_json(std::FILE* f) const {
    std::fprintf(f, "{\n  \"label\": \"%s\",\n  \"records\": [",
                 json_escape(label_).c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "%s\n    %s", i == 0 ? "" : ",",
                   records_[i].json().c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
  }

  /// Write the CSV and JSON files whose paths are non-empty. Returns false
  /// (after reporting on stderr) if one could not be written.
  bool write(const std::string& csv_path, const std::string& json_path) const {
    return write_file(csv_path, &Report::write_csv) &&
           write_file(json_path, &Report::write_json);
  }

 private:
  static std::size_t width(const std::string& h) {
    return h.size() < 12 ? 12 : h.size();
  }

  void print_row(const std::vector<std::string>& cells) const {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(width(columns_[i])),
                  cells[i].c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  static void write_csv_line(std::FILE* f, const std::vector<std::string>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ",", csv_escape(v[i]).c_str());
    }
    std::fprintf(f, "\n");
  }

  bool write_file(const std::string& path,
                  void (Report::*emit)(std::FILE*) const) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) (this->*emit)(f);
    if (f == nullptr || std::fclose(f) != 0) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return false;
    }
    std::printf("# wrote %s (%zu records)\n", path.c_str(), records_.size());
    return true;
  }

  std::string label_;
  std::vector<std::string> columns_;
  std::vector<Record> records_;
};

}  // namespace proust::bench
