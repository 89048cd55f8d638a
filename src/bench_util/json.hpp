// Machine-readable benchmark output. Drivers that print paper-style tables
// can also accumulate JsonRecords and dump them with `--json <path>`, so a
// perf trajectory can be tracked across PRs (see BENCH_STM.json at the repo
// top level). The schema is deliberately flat: one record per measured cell.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/topology.hpp"
#include "stm/stats.hpp"

namespace proust::bench {

struct JsonRecord {
  std::string bench;     // driver name, e.g. "micro_stm"
  std::string workload;  // cell name, e.g. "write_heavy" or an impl name
  std::string mode;      // STM mode, or "" when not applicable
  int threads = 1;
  int ops_per_txn = 1;
  double write_fraction = -1;  // < 0 = not applicable
  double ops_per_sec = 0;
  double abort_ratio = 0;
  std::string scheme;  // clock scheme, or "" when not applicable
  long extra = -1;     // auxiliary swept knob (e.g. striping size M); < 0 = none
  std::string pin;     // pinning policy of the cell, or "" when not swept

  /// Optional STM counter breakdown (StatsSnapshot::to_json: starts,
  /// commits, aborts by reason, ...) so scheme/mode ablations are
  /// diagnosable from the JSON, not just a throughput number.
  JsonRecord& with_stats(const stm::StatsSnapshot& s) {
    stats = s;
    has_stats = true;
    return *this;
  }
  stm::StatsSnapshot stats;
  bool has_stats = false;
};

class JsonWriter {
 public:
  explicit JsonWriter(std::string label) : label_(std::move(label)) {}

  void add(JsonRecord r) { records_.push_back(std::move(r)); }

  /// Write `{"label": ..., "records": [...]}` to `path`. Returns false on
  /// I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"label\": \"%s\",\n  \"records\": [",
                 escape(label_).c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      std::fprintf(f,
                   "%s\n    {\"bench\": \"%s\", \"workload\": \"%s\", "
                   "\"mode\": \"%s\", \"threads\": %d, \"ops_per_txn\": %d, "
                   "\"write_fraction\": %.3f, \"ops_per_sec\": %.1f, "
                   "\"abort_ratio\": %.5f",
                   i == 0 ? "" : ",", escape(r.bench).c_str(),
                   escape(r.workload).c_str(), escape(r.mode).c_str(),
                   r.threads, r.ops_per_txn, r.write_fraction, r.ops_per_sec,
                   r.abort_ratio);
      if (!r.scheme.empty()) {
        std::fprintf(f, ", \"scheme\": \"%s\"", escape(r.scheme).c_str());
      }
      if (r.extra >= 0) {
        std::fprintf(f, ", \"extra\": %ld", r.extra);
      }
      if (!r.pin.empty()) {
        std::fprintf(f, ", \"pin\": \"%s\"", escape(r.pin).c_str());
      }
      // Host topology in every record: entries from different machines in
      // one BENCH_STM.json stay machine-comparable.
      {
        const topo::Topology& t = topo::Topology::system();
        std::fprintf(f,
                     ", \"host\": {\"cpus\": %u, \"nodes\": %u, "
                     "\"smt\": %s}",
                     t.cpu_count(), t.node_count, t.smt ? "true" : "false");
      }
      if (r.has_stats) std::fprintf(f, ", %s", r.stats.to_json().c_str());
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    const bool ok = std::fclose(f) == 0;
    return ok;
  }

  const std::vector<JsonRecord>& records() const noexcept { return records_; }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string label_;
  std::vector<JsonRecord> records_;
};

}  // namespace proust::bench
