// Minimal flag parsing shared by the benchmark drivers:
//   --ops=N  --key-range=N  --warmup=N  --runs=N  --threads=1,2,4
//   --o=1,16  --u=0,0.5,1  --mode=lazy,eagerwrite,eagerall
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/topology.hpp"
#include "stm/fwd.hpp"
#include "stm/options.hpp"

namespace proust::bench {

/// STM mode by name (lazy | eagerwrite | eagerall, any case).
inline stm::Mode parse_mode(std::string s) {
  for (char& ch : s) ch = static_cast<char>(std::tolower(ch));
  for (stm::Mode m :
       {stm::Mode::Lazy, stm::Mode::EagerWrite, stm::Mode::EagerAll}) {
    std::string name = stm::to_string(m);
    for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
    if (name == s) return m;
  }
  throw std::invalid_argument("unknown STM mode '" + s + "'");
}

class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  bool has(const std::string& flag) const {
    for (const auto& a : args_) {
      if (a == "--" + flag) return true;
      if (a.rfind("--" + flag + "=", 0) == 0) return true;
    }
    return false;
  }

  std::string get(const std::string& flag, const std::string& def) const {
    const std::string prefix = "--" + flag + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    }
    return def;
  }

  long get_long(const std::string& flag, long def) const {
    const std::string v = get(flag, "");
    return v.empty() ? def : std::strtol(v.c_str(), nullptr, 10);
  }

  std::vector<long> get_longs(const std::string& flag,
                              std::vector<long> def) const {
    const std::string v = get(flag, "");
    if (v.empty()) return def;
    return split_longs(v);
  }

  std::vector<double> get_doubles(const std::string& flag,
                                  std::vector<double> def) const {
    const std::string v = get(flag, "");
    if (v.empty()) return def;
    std::vector<double> out;
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
    return out;
  }

  /// Comma-separated string list, e.g. --pin=none,compact,scatter.
  std::vector<std::string> get_strings(const std::string& flag,
                                       std::vector<std::string> def) const {
    const std::string v = get(flag, "");
    if (v.empty()) return def;
    std::vector<std::string> out;
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(item);
    return out;
  }

  /// --placement=off|interleave|replicate.
  topo::NumaPlacement get_placement(const std::string& flag,
                                    topo::NumaPlacement def) const {
    topo::NumaPlacement p = def;
    (void)topo::parse_numa_placement(get(flag, ""), p);
    return p;
  }

 private:
  static std::vector<long> split_longs(const std::string& v) {
    std::vector<long> out;
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stol(item));
    return out;
  }

  std::vector<std::string> args_;
};

}  // namespace proust::bench
