// Workload definitions: which sessions, models, strategies and bin streams
// each benchmark workload replays.  Everything here derives from --seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "neural/dataset.hpp"
#include "serve/serve.hpp"

namespace perfbench {

namespace serve = kalmmind::serve;
namespace neural = kalmmind::neural;
namespace kalman = kalmmind::kalman;

enum class Kind { kMotorSoloHealth, kSomaSharedFleet, kMotorClusterDrain };

inline constexpr std::size_t kWarmupBins = 2;

struct WorkloadSpec {
  Kind kind = Kind::kMotorSoloHealth;
  std::size_t sessions = 0;
  // DecodeServer pool width, or pump threads for the cluster workload.
  unsigned workers = 3;
  // Every session decodes kWarmupBins bins during set-up (gain schedules,
  // workspaces and the pool are warm before anything is timed).  With
  // warmup_spread > 0 it decodes an extra 0..warmup_spread-1 bins, so the
  // sessions' calculation iterations (every calc_freq-th bin) fall in
  // different 50 ms rounds, as they do for users who connected at
  // different times.
  std::size_t warmup_spread = 0;
  // Bins per session in each round of the flood (capacity) phase.
  std::size_t flood_bins = 0;
  bool cluster() const { return kind == Kind::kMotorClusterDrain; }
};

// Returns false for an unknown name.
bool workload_by_name(const std::string& name, WorkloadSpec* out);

// The per-session inputs of one workload: filter configs and bin streams.
// Motor workloads own one dataset (model + test stream) per session; the
// somatosensory fleet shares one model and reads one long stream at a
// seeded offset per session.
struct Streams {
  std::vector<serve::SessionConfig> configs;
  std::vector<std::shared_ptr<const neural::NeuralDataset>> datasets;
  std::vector<std::size_t> dataset_of;  // session -> datasets index
  std::vector<std::size_t> offset;      // session -> first stream bin
  std::vector<std::size_t> warmup;      // session -> set-up bins decoded
  std::vector<double> build_dataset_s;  // wall time of each build_dataset

  std::size_t sessions() const { return configs.size(); }
  // Bin k of session s (the stream wraps for the shared fleet).
  const Vector<double>& bin(std::size_t s, std::size_t k) const {
    const auto& src = datasets[dataset_of[s]]->test_measurements;
    return src[(offset[s] + k) % src.size()];
  }
};

// Build the workload's streams: each session's warm-up bins followed by
// `run_bins` more.  Dataset generation runs on up to `threads` threads.
Streams build_streams(const WorkloadSpec& w, std::uint64_t seed,
                      std::size_t run_bins, unsigned threads);

// Motor datasets with per-session seeds (also used by the migration probe).
std::vector<std::shared_ptr<const neural::NeuralDataset>> build_motor_datasets(
    std::uint64_t seed, std::uint64_t stream, std::size_t count,
    std::size_t test_steps, unsigned threads, std::vector<double>* times);

// Session config of the cluster workload (health off, replayable).
serve::SessionConfig cluster_session_config(const kalman::KalmanModel<double>& m,
                                            std::size_t queue_capacity);

}  // namespace perfbench
