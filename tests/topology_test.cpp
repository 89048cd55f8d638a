// Topology detection, pin plans, and the NUMA-aware placement plumbing
// (DESIGN.md §13). Detection is tested against synthetic sysfs fixture
// trees so the assertions are exact regardless of the host: a two-node SMT
// machine, a single-CPU machine, and assorted malformed/missing-file trees
// that must degrade to the flat fallback. The Stm-level pinning test runs
// against the real host and skips when the kernel refuses affinity calls
// (restricted cpusets, exotic sandboxes).
#include <gtest/gtest.h>
#include <sched.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/record.hpp"
#include "common/topology.hpp"
#include "core/read_seq.hpp"
#include "stm/stm.hpp"

namespace fs = std::filesystem;
using namespace proust;

namespace {

/// A throwaway sysfs-shaped directory tree under the system temp dir.
class SysfsFixture {
 public:
  SysfsFixture() {
    root_ = fs::temp_directory_path() /
            ("proust_topo_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + std::to_string(counter_++));
    fs::create_directories(root_);
    root_str_ = root_.string();
  }
  SysfsFixture(const SysfsFixture&) = delete;
  SysfsFixture& operator=(const SysfsFixture&) = delete;
  ~SysfsFixture() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  const std::string& root() const { return root_str_; }

  void write(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream f(p);
    f << content;
  }

  void cpu(int id, int package, int core) {
    const std::string base =
        "devices/system/cpu/cpu" + std::to_string(id) + "/topology/";
    write(base + "physical_package_id", std::to_string(package) + "\n");
    write(base + "core_id", std::to_string(core) + "\n");
  }

  void node(int id, const std::string& cpulist) {
    write("devices/system/node/node" + std::to_string(id) + "/cpulist",
          cpulist + "\n");
  }

 private:
  static inline int counter_ = 0;
  fs::path root_;
  std::string root_str_;
};

/// Two nodes, two packages, SMT pairs, with node membership *interleaved*
/// by CPU id (even ids node 0, odd ids node 1) so plan ordering is not the
/// identity and the sort keys are actually exercised:
///   cpu: 0  1  2  3  4  5  6  7
///   pkg: 0  1  0  1  0  1  0  1
///  core: 0  0  1  1  0  0  1  1   (cpu4 is cpu0's SMT sibling, etc.)
///  node: 0  1  0  1  0  1  0  1
void populate_two_node_smt(SysfsFixture& fx) {
  fx.write("devices/system/cpu/online", "0-7\n");
  for (int c = 0; c < 8; ++c) fx.cpu(c, c % 2, (c / 2) % 2);
  fx.node(0, "0,2,4,6");
  fx.node(1, "1,3,5,7");
}

}  // namespace

TEST(TopologyDetect, TwoNodeSmtParses) {
  SysfsFixture fx;
  populate_two_node_smt(fx);
  const topo::Topology t = topo::Topology::detect(fx.root());
  ASSERT_EQ(t.cpu_count(), 8u);
  EXPECT_EQ(t.node_count, 2u);
  EXPECT_TRUE(t.smt);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(5), 1);
  EXPECT_EQ(t.node_of(999), 0);  // unknown CPU defaults to node 0
  for (const topo::CpuInfo& c : t.cpus) {
    EXPECT_EQ(c.node, c.cpu % 2);
    EXPECT_EQ(c.package, c.cpu % 2);
    EXPECT_EQ(c.core, (c.cpu / 2) % 2);
  }
}

TEST(TopologyDetect, CpulistRangesAndSingles) {
  SysfsFixture fx;
  fx.write("devices/system/cpu/online", "0-2,5\n");
  for (int c : {0, 1, 2, 5}) fx.cpu(c, 0, c);
  fx.node(0, "0-2,5");
  const topo::Topology t = topo::Topology::detect(fx.root());
  ASSERT_EQ(t.cpu_count(), 4u);
  EXPECT_EQ(t.cpus[3].cpu, 5);
  EXPECT_FALSE(t.smt);
  EXPECT_EQ(t.node_count, 1u);
}

TEST(TopologyDetect, SingleCpu) {
  SysfsFixture fx;
  fx.write("devices/system/cpu/online", "0\n");
  fx.cpu(0, 0, 0);
  fx.node(0, "0");
  const topo::Topology t = topo::Topology::detect(fx.root());
  ASSERT_EQ(t.cpu_count(), 1u);
  EXPECT_EQ(t.node_count, 1u);
  EXPECT_FALSE(t.smt);
  EXPECT_EQ(t.pin_plan(topo::PinPolicy::Compact), std::vector<int>{0});
  EXPECT_EQ(t.pin_plan(topo::PinPolicy::Scatter), std::vector<int>{0});
}

TEST(TopologyDetect, MissingRootFallsBack) {
  const topo::Topology t =
      topo::Topology::detect("/nonexistent/proust/sysfs/root");
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  ASSERT_EQ(t.cpu_count(), hw);
  EXPECT_EQ(t.node_count, 1u);
  EXPECT_FALSE(t.smt);
  for (const topo::CpuInfo& c : t.cpus) {
    EXPECT_EQ(c.node, 0);
    EXPECT_EQ(c.package, 0);
  }
}

TEST(TopologyDetect, MalformedOnlineFallsBack) {
  SysfsFixture fx;
  fx.write("devices/system/cpu/online", "banana\n");
  const topo::Topology t = topo::Topology::detect(fx.root());
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  EXPECT_EQ(t.cpu_count(), hw);
  EXPECT_EQ(t.node_count, 1u);
}

TEST(TopologyDetect, MissingPerCpuFilesDegradeGracefully) {
  // online parses but no topology/ or node/ entries exist: core defaults to
  // the CPU id (distinct cores, so no false SMT) and everything lands on
  // one node.
  SysfsFixture fx;
  fx.write("devices/system/cpu/online", "0-1\n");
  const topo::Topology t = topo::Topology::detect(fx.root());
  ASSERT_EQ(t.cpu_count(), 2u);
  EXPECT_FALSE(t.smt);
  EXPECT_EQ(t.node_count, 1u);
  EXPECT_EQ(t.cpus[0].core, 0);
  EXPECT_EQ(t.cpus[1].core, 1);
}

TEST(PinPlan, CompactFillsNodeThenSiblings) {
  SysfsFixture fx;
  populate_two_node_smt(fx);
  const topo::Topology t = topo::Topology::detect(fx.root());
  // Node 0 first; within it core 0's two hardware threads (0, 4) before
  // core 1's (2, 6); then node 1 the same way.
  EXPECT_EQ(t.pin_plan(topo::PinPolicy::Compact),
            (std::vector<int>{0, 4, 2, 6, 1, 5, 3, 7}));
}

TEST(PinPlan, ScatterAlternatesNodesCoresFirst) {
  SysfsFixture fx;
  populate_two_node_smt(fx);
  const topo::Topology t = topo::Topology::detect(fx.root());
  const std::vector<int> plan = t.pin_plan(topo::PinPolicy::Scatter);
  ASSERT_EQ(plan.size(), 8u);
  // First half: one hardware thread per physical core, alternating nodes.
  // Second half: the SMT siblings, same order.
  EXPECT_EQ(plan, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.node_of(plan[i]), static_cast<int>(i % 2));
  }
}

TEST(PinPlan, NoneAndExplicit) {
  SysfsFixture fx;
  populate_two_node_smt(fx);
  const topo::Topology t = topo::Topology::detect(fx.root());
  EXPECT_TRUE(t.pin_plan(topo::PinPolicy::None).empty());
  EXPECT_TRUE(t.pin_plan(topo::PinPolicy::Explicit, {}).empty());
  EXPECT_EQ(t.pin_plan(topo::PinPolicy::Explicit, {6, 1, 6}),
            (std::vector<int>{6, 1, 6}));
}

TEST(PinPlan, PolicyAndPlacementStrings) {
  EXPECT_STREQ(topo::to_string(topo::PinPolicy::Compact), "compact");
  EXPECT_STREQ(topo::to_string(topo::NumaPlacement::Replicate), "replicate");
  topo::PinPolicy p{};
  EXPECT_TRUE(topo::parse_pin_policy("scatter", p));
  EXPECT_EQ(p, topo::PinPolicy::Scatter);
  EXPECT_FALSE(topo::parse_pin_policy("sideways", p));
  topo::NumaPlacement n{};
  EXPECT_TRUE(topo::parse_numa_placement("interleave", n));
  EXPECT_EQ(n, topo::NumaPlacement::Interleave);
  EXPECT_FALSE(topo::parse_numa_placement("everywhere", n));
}

TEST(StmPinning, CompactPolicyBindsTransactionThread) {
  const topo::Topology& host = topo::Topology::system();
  const std::vector<int> plan = host.pin_plan(topo::PinPolicy::Compact);
  ASSERT_FALSE(plan.empty());

  cpu_set_t original;
  CPU_ZERO(&original);
  if (sched_getaffinity(0, sizeof(original), &original) != 0) {
    GTEST_SKIP() << "sched_getaffinity unavailable";
  }
  // Probe whether this environment lets us pin at all (restricted cpusets
  // make pin_self_to advisory-fail, which the runtime tolerates silently).
  if (!topo::pin_self_to(plan[0])) {
    sched_setaffinity(0, sizeof(original), &original);
    GTEST_SKIP() << "affinity calls refused; pinning is advisory here";
  }
  sched_setaffinity(0, sizeof(original), &original);

  stm::StmOptions opts;
  opts.pinning = topo::PinPolicy::Compact;
  stm::Stm stm(stm::Mode::Lazy, opts);
  unsigned slot = 0;
  stm.atomically([&](stm::Txn& tx) { slot = tx.slot(); });

  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_EQ(CPU_COUNT(&after), 1);
  EXPECT_TRUE(CPU_ISSET(plan[slot % plan.size()], &after));

  sched_setaffinity(0, sizeof(original), &original);
}

TEST(StmPinning, ExplicitListUsedVerbatim) {
  cpu_set_t original;
  CPU_ZERO(&original);
  if (sched_getaffinity(0, sizeof(original), &original) != 0 ||
      !topo::pin_self_to(0)) {
    GTEST_SKIP() << "affinity calls refused";
  }
  sched_setaffinity(0, sizeof(original), &original);

  stm::StmOptions opts;
  opts.pinning = topo::PinPolicy::Explicit;
  opts.pin_cpus = {0};
  stm::Stm stm(stm::Mode::Lazy, opts);
  stm.atomically([](stm::Txn&) {});

  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_ISSET(0, &after));
  EXPECT_EQ(CPU_COUNT(&after), 1);
  sched_setaffinity(0, sizeof(original), &original);
}

TEST(ReadSeqReplicate, ForcedBanksPinAndReleaseTogether) {
  // forced_banks=2 exercises the replicated layout on a single-node host:
  // a mutator's pin must make the stripe unstable in every bank, and the
  // finish hook must bump every held word back even.
  core::ReadSeqTable table(8, topo::NumaPlacement::Replicate,
                           /*forced_banks=*/2);
  EXPECT_EQ(table.banks(), 2u);
  EXPECT_EQ(table.stripes(), 8u);
  EXPECT_EQ(table.word(3), table.word(11));  // stripe index is masked

  stm::Stm stm(stm::Mode::Lazy);
  stm.atomically([&](stm::Txn& tx) {
    table.writer_pin(tx, 3);
    table.writer_pin(tx, 3);  // idempotent per attempt
    EXPECT_FALSE(core::ReadSeqTable::stable(table.load(3)));
    EXPECT_EQ(table.load(3), 1u);  // pinned once, not twice
    EXPECT_TRUE(core::ReadSeqTable::stable(table.load(4)));
  });
  // Released in every bank: each word went 0 -> 1 -> 2.
  EXPECT_TRUE(core::ReadSeqTable::stable(table.load(3)));
  EXPECT_EQ(table.load(3), 2u);
  EXPECT_EQ(table.load(4), 0u);
}

TEST(ReadSeqReplicate, AbortReleasesEveryBank) {
  core::ReadSeqTable table(4, topo::NumaPlacement::Replicate,
                           /*forced_banks=*/2);
  stm::Stm stm(stm::Mode::Lazy);
  struct Bail {};
  try {
    stm.atomically([&](stm::Txn& tx) {
      table.writer_pin(tx, 1);
      throw Bail{};
    });
  } catch (const Bail&) {
  }
  EXPECT_TRUE(core::ReadSeqTable::stable(table.load(1)));
  EXPECT_EQ(table.load(1), 2u);
}

TEST(NumaArray, ConstructsAndDestroysElements) {
  topo::NumaArray<std::vector<int>> arr(3, /*interleave=*/true);
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].empty());
  arr[2].push_back(7);
  EXPECT_EQ(arr[2][0], 7);
  topo::NumaArray<std::vector<int>> moved = std::move(arr);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(arr.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(Csv, UnknownColumnThrows) {
  bench::Report report("t");
  report.table({"impl", "threads"});
  report.add(bench::Record{});
  EXPECT_THROW(report.table({"impl", "no_such_field"}), std::invalid_argument);
  EXPECT_THROW((void)bench::Record{}.format("{no_such_field}"),
               std::invalid_argument);
  EXPECT_EQ(report.size(), 1u);
}

TEST(Csv, Rfc4180Escaping) {
  EXPECT_EQ(bench::csv_escape("plain"), "plain");
  EXPECT_EQ(bench::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(bench::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(bench::csv_escape("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(bench::fmt(1.25, 1), "1.2");
  EXPECT_EQ(bench::fmt(3.14159, 3), "3.142");
}

TEST(Csv, WritesHeaderAndHostFields) {
  bench::Report report("t");
  bench::Record r;
  r.bench = "x,y";
  report.add(r);

  const fs::path path =
      fs::temp_directory_path() / "proust_csv_test_out.csv";
  ASSERT_TRUE(report.write(path.string(), ""));
  std::ifstream in(path);
  std::string header, data;
  std::getline(in, header);
  std::getline(in, data);
  const std::string host = ",host_cpus,host_nodes,host_smt";
  EXPECT_EQ(header.substr(0, 13), "bench,family,");
  EXPECT_EQ(header.substr(header.size() - host.size()), host);
  EXPECT_EQ(data.substr(0, 7), "\"x,y\",,");
  const topo::Topology& t = topo::Topology::system();
  const std::string host_row = "," + std::to_string(t.cpu_count()) + "," +
                               std::to_string(t.node_count) + "," +
                               (t.smt ? "1" : "0");
  EXPECT_EQ(data.substr(data.size() - host_row.size()), host_row);
  std::error_code ec;
  fs::remove(path, ec);
}

// The CSV header, the CSV row and the JSON keys all come from the one field
// list, so a field added to PROUST_BENCH_RECORD shows up in all three.
TEST(Csv, OneFieldListDrivesCsvAndJson) {
  bench::Record r;
  r.impl = "a\"b";
  r.threads = 3;
  r.ops_per_sec = 12.5;
  const std::vector<std::string> header = bench::Record::csv_header();
  const std::vector<std::string> row = r.csv_row();
  const std::string json = r.json();
  const auto& fields = bench::Record::fields();
  ASSERT_EQ(header.size(), fields.size() + 3);  // + host_cpus/nodes/smt
  ASSERT_EQ(row.size(), header.size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(header[i], fields[i].name);
    EXPECT_EQ(row[i], fields[i].text(r));
    const std::string key = std::string("\"") + fields[i].name + "\": ";
    const std::size_t pos = json.find(key, at);
    ASSERT_NE(pos, std::string::npos) << key << "\n" << json;
    at = pos + key.size();  // JSON keys appear in field-list order
  }
  EXPECT_EQ(row[2], "a\"b");
  EXPECT_NE(json.find("\"impl\": \"a\\\"b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"threads\": 3,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ops_per_sec\": 12.5,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"host\": {\"cpus\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"starts\": 0, "), std::string::npos) << json;
}
