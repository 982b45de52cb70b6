#include "workloads.hpp"

#include <atomic>
#include <numeric>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

constexpr std::uint64_t kMotorStream = 1;
constexpr std::uint64_t kSomaStream = 2;
constexpr std::uint64_t kOffsetStream = 3;
constexpr std::uint64_t kWarmupStream = 6;

serve::SessionConfig interleaved_config(const kalman::KalmanModel<double>& m,
                                        kalman::CalcMethod method,
                                        std::size_t calc_freq,
                                        kalman::SeedPolicy policy,
                                        std::size_t queue_capacity) {
  serve::SessionConfig cfg;
  cfg.filter.model = m;
  cfg.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
  cfg.filter.strategy.calc_method = method;
  cfg.filter.strategy.calc_freq = calc_freq;
  cfg.filter.strategy.approx = 2;
  cfg.filter.strategy.policy = policy;
  cfg.queue_capacity = queue_capacity;
  cfg.deadline_s = 0.05;
  return cfg;
}

}  // namespace

bool workload_by_name(const std::string& name, WorkloadSpec* out) {
  WorkloadSpec w;
  if (name == "motor-solo-health") {
    w.kind = Kind::kMotorSoloHealth;
    w.sessions = 40;
    w.workers = 3;
    w.flood_bins = 30;
    w.warmup_spread = 8;  // lcm of the two calc_freq values
  } else if (name == "soma-shared-fleet") {
    w.kind = Kind::kSomaSharedFleet;
    w.sessions = 1024;
    w.workers = 3;
    w.flood_bins = 150;
  } else if (name == "motor-cluster-drain") {
    w.kind = Kind::kMotorClusterDrain;
    w.sessions = 32;
    w.workers = 2;
    w.flood_bins = 50;
  } else {
    return false;
  }
  *out = w;
  return true;
}

std::vector<std::shared_ptr<const neural::NeuralDataset>> build_motor_datasets(
    std::uint64_t seed, std::uint64_t stream, std::size_t count,
    std::size_t test_steps, unsigned threads, std::vector<double>* times) {
  std::vector<std::shared_ptr<const neural::NeuralDataset>> out(count);
  std::vector<double> t(count, 0.0);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      neural::DatasetSpec spec = neural::motor_spec();
      spec.seed = derive_seed(seed, kMotorStream + 16 * stream, i);
      spec.test_steps = test_steps;
      const auto t0 = Clock::now();
      out[i] = std::make_shared<const neural::NeuralDataset>(
          neural::build_dataset(spec));
      t[i] = seconds_between(t0, Clock::now());
    }
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < std::max(1u, threads); ++i) pool.emplace_back(work);
  work();
  for (auto& th : pool) th.join();
  if (times) times->insert(times->end(), t.begin(), t.end());
  return out;
}

serve::SessionConfig cluster_session_config(const kalman::KalmanModel<double>& m,
                                            std::size_t queue_capacity) {
  return interleaved_config(m, kalman::CalcMethod::kGauss, 0,
                            kalman::SeedPolicy::kPreviousIteration,
                            queue_capacity);
}

Streams build_streams(const WorkloadSpec& w, std::uint64_t seed,
                      std::size_t run_bins, unsigned threads) {
  Streams st;
  // Extra warm-up bins: each strategy's sessions (even / odd index) take
  // the offsets 0..warmup_spread-1 in turn, in a seeded order, so every
  // seed spreads the calculation iterations equally over the rounds.
  std::vector<std::vector<std::size_t>> order(2);
  for (std::size_t c = 0; c < 2 && w.warmup_spread > 0; ++c) {
    order[c].resize(w.warmup_spread);
    std::iota(order[c].begin(), order[c].end(), std::size_t(0));
    for (std::size_t i = w.warmup_spread; i > 1; --i)
      std::swap(order[c][i - 1],
                order[c][derive_seed(seed, kWarmupStream + c, i) % i]);
  }
  for (std::size_t s = 0; s < w.sessions; ++s) {
    st.warmup.push_back(kWarmupBins +
                        (w.warmup_spread
                             ? order[s % 2][(s / 2) % w.warmup_spread]
                             : 0));
  }
  const std::size_t bins_per_session =
      kWarmupBins + std::max<std::size_t>(w.warmup_spread, 1) - 1 + run_bins;
  // Every bin of a run fits in the session queue, so backpressure never
  // rejects: a rejection in the results is a serving fault, not sizing.
  const std::size_t queue_capacity = w.flood_bins + 64;
  switch (w.kind) {
    case Kind::kMotorSoloHealth: {
      st.datasets = build_motor_datasets(seed, 0, w.sessions, bins_per_session,
                                         threads, &st.build_dataset_s);
      for (std::size_t s = 0; s < w.sessions; ++s) {
        // Alternate the two accuracy points: Gauss/Newton recalculating
        // every 4th bin (previous-iteration seed) and Cholesky/Newton every
        // 8th (last-calculated seed).
        serve::SessionConfig cfg =
            s % 2 == 0
                ? interleaved_config(st.datasets[s]->model,
                                     kalman::CalcMethod::kGauss, 4,
                                     kalman::SeedPolicy::kPreviousIteration,
                                     queue_capacity)
                : interleaved_config(st.datasets[s]->model,
                                     kalman::CalcMethod::kCholesky, 8,
                                     kalman::SeedPolicy::kLastCalculated,
                                     queue_capacity);
        cfg.filter.options.health.enabled = true;
        cfg.self_healing.enabled = true;
        st.configs.push_back(std::move(cfg));
        st.dataset_of.push_back(s);
        st.offset.push_back(0);
      }
      break;
    }
    case Kind::kSomaSharedFleet: {
      neural::DatasetSpec spec = neural::somatosensory_spec();
      spec.seed = derive_seed(seed, kSomaStream, 0);
      // One long recording; each session replays it from its own offset.
      spec.test_steps = std::max<std::size_t>(4096, bins_per_session);
      const auto t0 = Clock::now();
      st.datasets.push_back(std::make_shared<const neural::NeuralDataset>(
          neural::build_dataset(spec)));
      st.build_dataset_s.push_back(seconds_between(t0, Clock::now()));
      const serve::SessionConfig cfg = interleaved_config(
          st.datasets[0]->model, kalman::CalcMethod::kGauss, 0,
          kalman::SeedPolicy::kPreviousIteration, queue_capacity);
      for (std::size_t s = 0; s < w.sessions; ++s) {
        st.configs.push_back(cfg);
        st.dataset_of.push_back(0);
        st.offset.push_back(std::size_t(derive_seed(seed, kOffsetStream, s) %
                                        spec.test_steps));
      }
      break;
    }
    case Kind::kMotorClusterDrain: {
      st.datasets = build_motor_datasets(seed, 1, w.sessions, bins_per_session,
                                         threads, &st.build_dataset_s);
      for (std::size_t s = 0; s < w.sessions; ++s) {
        st.configs.push_back(
            cluster_session_config(st.datasets[s]->model, queue_capacity));
        st.dataset_of.push_back(s);
        st.offset.push_back(0);
      }
      break;
    }
  }
  return st;
}

}  // namespace perfbench
