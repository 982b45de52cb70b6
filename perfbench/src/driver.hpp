// One benchmark run of one workload: set-up (repeated, median reported),
// the paced open-loop phase, the flood (capacity) phase, the failure
// accounting and the bit-for-bit check against sequential filters.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunOptions {
  WorkloadSpec workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunTotals {
  std::uint64_t attempted = 0;  // bins offered, both phases
  std::uint64_t failed = 0;     // not decoded, or differing from reference
};

// Fills `report` with every end-to-end metric (and, when tracing, every
// per-layer metric).  Correctness failures are recorded on the report.
RunTotals run_workload(const RunOptions& options, Report& report);

}  // namespace perfbench
