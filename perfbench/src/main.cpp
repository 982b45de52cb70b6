// Open-loop BCI decode benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Replays seeded neural-bin streams at the 50 ms bin period through the
// public serving API and prints every metric by name, unit and sample
// count.  The last line of stdout is one JSON object: end-to-end metrics
// with --trace 0, the per-layer ledger with --trace 1.  Exit status is 0
// only when every decoded state matched the sequential reference and the
// failure accounting reconciled.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "driver.hpp"

namespace {

const std::vector<std::string> kEndToEnd = {
    "bin_latency_p50_ms", "bin_latency_p99_ms", "deadline_attainment",
    "capacity_bins_per_s", "peak_rss_mb",       "setup_s"};

const std::vector<std::string> kPerLayer = {
    "linalg.invert_gauss_us",
    "linalg.invert_cholesky_us",
    "linalg.newton_step_us",
    "kalman.step_calc_us",
    "kalman.step_approx_us",
    "kalman.step_minus_inverse_us",
    "kalman.schedule_entry_us",
    "serve.submit_us.p50",
    "serve.submit_us.p99",
    "serve.poll_us_per_step",
    "serve.session_overhead_us",
    "serve.poll_explained_share",
    "serve.batch_us_per_member",
    "serve.compute_p99_ms",
    "serve.worker_utilization",
    "serve.batched_step_share",
    "serve.batched_step_share.base",
    "serve.gain_cache_hit_ratio",
    "serve.gain_cache_hit_ratio.base",
    "serve.max_backlog",
    "cluster.pump_us",
    "cluster.tick_ms",
    "cluster.stats_ms",
    "cluster.checkpoint_ms_per_session",
    "cluster.migrate_ms_per_session",
    "cluster.migrate_ms_per_session.cold.age50",
    "cluster.migrate_ms_per_session.cold.age150",
    "cluster.migrate_ms_per_session.warm.age50",
    "cluster.migrate_ms_per_session.warm.age150",
    "cluster.admission_accept_ratio",
    "neural.build_dataset_s",
    "driver.generator_lag_p99_ms",
    "driver.observe_period_ms",
    "trace.overhead_p50_ms",
    "trace.overhead_p99_ms",
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string workload;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed must be an integer");
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds >= 1.0 && opt.seconds <= 60.0))
        return usage("--seconds must be a number in [1, 60]");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (!have_seed) return usage("--seed is required");
  if (!perfbench::workload_by_name(workload, &opt.workload))
    return usage(("unknown workload '" + workload + "'").c_str());

  perfbench::Report report;
  perfbench::RunTotals totals;
  try {
    totals = perfbench::run_workload(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  char title[160];
  std::snprintf(title, sizeof title, "%s seed=%llu seconds=%g trace=%d",
                workload.c_str(), (unsigned long long)opt.seed, opt.seconds,
                opt.trace ? 1 : 0);
  report.print_human(title);
  report.print_json(opt.trace ? kPerLayer : kEndToEnd, totals.attempted,
                    totals.failed);
  std::fflush(stdout);
  return report.failures().empty() ? 0 : 1;
}
