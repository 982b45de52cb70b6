// Shared pieces of the open-loop decode benchmark: clock, seeded RNG,
// sample statistics, the metric sink and the per-run report.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using kalmmind::linalg::Matrix;
using kalmmind::linalg::Vector;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// splitmix64: every seeded choice of the benchmark (dataset seeds, phase
// offsets, stream offsets) derives from --seed through this.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                 std::uint64_t index) {
  return mix64(mix64(seed ^ mix64(stream)) + index);
}

// Uniform double in [0, 1) from a derived seed.
inline double unit_from(std::uint64_t bits) {
  return double(bits >> 11) * (1.0 / 9007199254740992.0);
}

// Linearly interpolated percentile of an unsorted sample (q in [0, 1]).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / double(v.size());
}

// The tail percentile reported: p99 when the sample leaves at least ten
// samples beyond it, else the highest of p95/p90/p50 that does.
inline double supported_tail_q(std::size_t n) {
  for (double q : {0.99, 0.95, 0.90}) {
    if (double(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

// One reported metric: value, unit and the sample count behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  // free text printed beside the value
};

// Named metric sink.  `emit` lists what goes into the final JSON line; the
// human-readable report prints every metric recorded.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples, std::string note = {}) {
    if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
    metrics_[name] = Metric{value, unit, samples, std::move(note)};
  }
  const Metric& get(const std::string& name) const { return metrics_.at(name); }

  void line(const std::string& text) { lines_.push_back(text); }
  void fail(const std::string& why) { failures_.push_back(why); }
  const std::vector<std::string>& failures() const { return failures_; }

  void print_human(const std::string& title) const {
    std::printf("== %s ==\n", title.c_str());
    for (const auto& name : order_) {
      const Metric& m = metrics_.at(name);
      std::printf("  %-44s %14.6g %-6s n=%zu%s%s\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
                  m.note.c_str());
    }
    for (const auto& l : lines_) std::printf("  %s\n", l.c_str());
    for (const auto& f : failures_) std::printf("  FAILED: %s\n", f.c_str());
  }

  // The last line of stdout: {"correct", "attempted", "failed", "metrics"}.
  void print_json(const std::vector<std::string>& emit, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += failures_.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& name : emit) {
      auto it = metrics_.find(name);
      if (it == metrics_.end()) continue;
      char buf[64];
      const double v = std::isfinite(it->second.value) ? it->second.value : 0.0;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             it->second.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  std::vector<std::string> lines_;
  std::vector<std::string> failures_;
};

// Process memory high-water mark in MiB (getrusage ru_maxrss).
double peak_rss_mb();

}  // namespace perfbench
