// kalmmind — command-line driver for the accelerator model.
//
//   kalmmind [--dataset motor|somatosensory|hippocampus]
//            [--datapath gauss-newton|cholesky-newton|qr-newton|lite|
//                        sskf|sskf-newton|taylor|gauss-only]
//            [--dtype float32|fx32|fx64]
//            [--calc-freq N] [--approx N] [--policy 0|1]
//            [--iterations N] [--seed N]
//            [--csv PREFIX]    write PREFIX_trajectory.csv
//            [--breakdown]     print the per-module latency report
//
// Runs one accelerator configuration on one dataset and prints accuracy
// (vs the float64 reference), decode quality (vs ground truth), latency,
// power and energy.
//
//   kalmmind serve-bench [--dataset NAME] [--sessions N] [--workers N]
//                        [--iterations N] [--strategy NAME]
//                        [--calc-freq N] [--approx N] [--policy 0|1]
//
// Streams N concurrent sessions of the dataset through the multi-session
// DecodeServer and prints the throughput/latency/deadline stats snapshot.
//
//   kalmmind cluster-bench [--dataset NAME] [--shards N] [--sessions N]
//                          [--iterations N] [--no-migrate]
//
// Streams N sessions through the ShardedDecodeServer, drain-migrates one
// shard mid-stream (checkpoint + steal-queue + restore), prints the
// cluster stats rollup plus migration latency, and verifies the migrated
// trajectory bit-for-bit against a sequential filter (docs/serving.md).
//
//   kalmmind telemetry-demo [--dataset NAME] [--iterations N]
//
// Exercises every instrumented layer (filter spans, serve spans, batched
// serving + gain-schedule cache, flight-recorder journal, bridged SoC
// cycle events) and writes a Chrome trace + metrics snapshot.
//
//   kalmmind blackbox FILE [--session N] [--kind NAME] [--last N]
//
// Pretty-prints a flight-recorder postmortem dump (blackbox_*.jsonl, see
// docs/observability.md), optionally filtered.
//
//   kalmmind simd-info
//
// Prints the runtime SIMD kernel dispatch resolution (docs/performance.md):
// the probed tier, the active tier, every tier usable on this host, and
// whether a KALMMIND_SIMD= override was applied.
//
// Global flags (any subcommand, stripped before dispatch):
//   --trace-out FILE    enable span tracing; write Chrome trace event JSON
//                       (open in Perfetto or chrome://tracing)
//   --metrics-out FILE  write the metrics registry on exit (.json -> JSON,
//                       anything else -> Prometheus text)
//   --blackbox-out DIR  flight-recorder postmortems also write JSONL dumps
//                       into DIR (blackbox_<session>_<reason>.jsonl)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/kalmmind.hpp"
#include "io/csv.hpp"
#include "linalg/simd/simd.hpp"
#include "neural/decode_quality.hpp"
#include "serve/serve.hpp"
#include "soc/soc_all.hpp"
#include "telemetry/telemetry.hpp"

using namespace kalmmind;

namespace {

// ---- global telemetry flags (any subcommand) ----

struct TelemetryOptions {
  std::string trace_out;     // non-empty => span tracing enabled
  std::string metrics_out;   // non-empty => dump registry on exit
  std::string blackbox_out;  // non-empty => postmortem JSONL dump directory
};

// Removes --trace-out/--metrics-out/--blackbox-out (and their values) from
// argv so the per-subcommand parsers never see them.  Exits on a missing
// value.
TelemetryOptions strip_telemetry_flags(int& argc, char** argv) {
  TelemetryOptions opt;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const bool trace = !std::strcmp(argv[i], "--trace-out");
    const bool metrics = !std::strcmp(argv[i], "--metrics-out");
    const bool blackbox = !std::strcmp(argv[i], "--blackbox-out");
    if (!trace && !metrics && !blackbox) {
      argv[out++] = argv[i];
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    (trace ? opt.trace_out : metrics ? opt.metrics_out : opt.blackbox_out) =
        argv[++i];
  }
  argc = out;
  if (!opt.trace_out.empty()) {
    telemetry::SpanTracer::global().set_enabled(true);
    telemetry::SpanTracer::global().set_thread_name("main");
  }
  if (!opt.blackbox_out.empty()) {
    telemetry::FlightRecorder::global().set_dump_dir(opt.blackbox_out);
  }
  return opt;
}

// Best-effort end-of-run dump; keeps the subcommand's exit code.
void flush_telemetry(const TelemetryOptions& opt) {
  if (!opt.trace_out.empty()) {
    telemetry::SpanTracer& tracer = telemetry::SpanTracer::global();
    if (tracer.write_json(opt.trace_out)) {
      std::printf("telemetry  : wrote %zu trace events to %s", tracer.size(),
                  opt.trace_out.c_str());
      if (tracer.dropped() > 0) {
        std::printf("  (%zu dropped at capacity)", tracer.dropped());
      }
      std::printf("\n");
    } else {
      std::fprintf(stderr, "telemetry: failed to write %s\n",
                   opt.trace_out.c_str());
    }
  }
  if (!opt.metrics_out.empty()) {
    auto& registry = telemetry::MetricsRegistry::global();
    const bool json = opt.metrics_out.size() >= 5 &&
                      opt.metrics_out.rfind(".json") ==
                          opt.metrics_out.size() - 5;
    const std::string text =
        json ? registry.json() : registry.prometheus_text();
    if (telemetry::write_text_file(opt.metrics_out, text)) {
      std::printf("telemetry  : wrote metrics (%s) to %s\n",
                  json ? "JSON" : "Prometheus text", opt.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "telemetry: failed to write %s\n",
                   opt.metrics_out.c_str());
    }
  }
}

// Run one modeled SoC invocation of the dataset with the cycle trace on,
// then merge its events onto the span timeline (soc::export_trace).
void trace_soc_invocation(const neural::NeuralDataset& dataset) {
  soc::SocParams params;
  soc::Soc chip(params);
  const std::size_t accel_id = chip.add_accelerator(
      "kalmmind0", hls::DatapathSpec{}, soc::TileCoord{1, 1});
  chip.trace().set_enabled(true);

  soc::EspDriver driver(chip, accel_id);
  soc::MemoryMap map =
      driver.write_invocation(dataset.model, dataset.test_measurements);
  core::AcceleratorConfig cfg = core::AcceleratorConfig::for_run(
      std::uint32_t(dataset.model.x_dim()),
      std::uint32_t(dataset.model.z_dim()),
      dataset.test_measurements.size());
  driver.configure(cfg);
  driver.start_and_wait(map);

  const std::size_t merged = soc::export_trace(
      chip.trace(), telemetry::SpanTracer::global(), params.hls.clock_hz);
  std::printf("telemetry  : bridged %zu SoC cycle events onto the trace\n",
              merged);
}

struct CliOptions {
  std::string dataset = "motor";
  std::string datapath = "gauss-newton";
  std::string dtype = "float32";
  std::uint32_t calc_freq = 0;
  std::uint32_t approx = 2;
  std::uint32_t policy = 1;
  std::size_t iterations = 100;
  std::uint64_t seed = 0;  // 0 = preset default
  std::string csv_prefix;
  bool breakdown = false;
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dataset NAME] [--datapath NAME] [--dtype T]\n"
               "          [--calc-freq N] [--approx N] [--policy 0|1]\n"
               "          [--iterations N] [--seed N] [--csv PREFIX]\n"
               "          [--breakdown]\n"
               "       %s serve-bench ...   (see serve-bench --help)\n"
               "       %s cluster-bench ...  (see cluster-bench --help)\n"
               "       %s telemetry-demo [--dataset NAME] [--iterations N]\n"
               "       %s blackbox FILE [--session N] [--kind NAME] "
               "[--last N]\n"
               "       %s simd-info\n"
               "global: [--trace-out FILE] [--metrics-out FILE] "
               "[--blackbox-out DIR]\n",
               argv0, argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage_and_exit(argv[0]);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--dataset")) {
      opt.dataset = need_value("--dataset");
    } else if (!std::strcmp(argv[i], "--datapath")) {
      opt.datapath = need_value("--datapath");
    } else if (!std::strcmp(argv[i], "--dtype")) {
      opt.dtype = need_value("--dtype");
    } else if (!std::strcmp(argv[i], "--calc-freq")) {
      opt.calc_freq = std::uint32_t(std::atoi(need_value("--calc-freq")));
    } else if (!std::strcmp(argv[i], "--approx")) {
      opt.approx = std::uint32_t(std::atoi(need_value("--approx")));
    } else if (!std::strcmp(argv[i], "--policy")) {
      opt.policy = std::uint32_t(std::atoi(need_value("--policy")));
    } else if (!std::strcmp(argv[i], "--iterations")) {
      opt.iterations = std::size_t(std::atoll(need_value("--iterations")));
    } else if (!std::strcmp(argv[i], "--seed")) {
      opt.seed = std::uint64_t(std::atoll(need_value("--seed")));
    } else if (!std::strcmp(argv[i], "--csv")) {
      opt.csv_prefix = need_value("--csv");
    } else if (!std::strcmp(argv[i], "--breakdown")) {
      opt.breakdown = true;
    } else if (!std::strcmp(argv[i], "--help")) {
      usage_and_exit(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage_and_exit(argv[0]);
    }
  }
  return opt;
}

neural::DatasetSpec spec_for(const CliOptions& opt) {
  neural::DatasetSpec spec;
  if (opt.dataset == "motor") {
    spec = neural::motor_spec();
  } else if (opt.dataset == "somatosensory") {
    spec = neural::somatosensory_spec();
  } else if (opt.dataset == "hippocampus") {
    spec = neural::hippocampus_spec();
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", opt.dataset.c_str());
    std::exit(2);
  }
  spec.test_steps = opt.iterations;
  if (opt.seed != 0) spec.seed = opt.seed;
  return spec;
}

hls::NumericType dtype_for(const CliOptions& opt) {
  if (opt.dtype == "float32") return hls::NumericType::kFloat32;
  if (opt.dtype == "float64") return hls::NumericType::kFloat64;
  if (opt.dtype == "fx32") return hls::NumericType::kFx32;
  if (opt.dtype == "fx64") return hls::NumericType::kFx64;
  std::fprintf(stderr, "unknown dtype '%s'\n", opt.dtype.c_str());
  std::exit(2);
}

core::Accelerator accelerator_for(const CliOptions& opt,
                                  core::AcceleratorConfig cfg) {
  const auto dtype = dtype_for(opt);
  if (opt.datapath == "gauss-newton")
    return core::make_gauss_newton(cfg, dtype);
  if (opt.datapath == "cholesky-newton") return core::make_cholesky_newton(cfg);
  if (opt.datapath == "qr-newton") return core::make_qr_newton(cfg);
  if (opt.datapath == "lite") return core::make_lite(cfg, dtype);
  if (opt.datapath == "sskf") return core::make_sskf(cfg);
  if (opt.datapath == "sskf-newton") return core::make_sskf_newton(cfg);
  if (opt.datapath == "taylor") return core::make_taylor(cfg);
  if (opt.datapath == "gauss-only") return core::make_gauss_only(cfg);
  std::fprintf(stderr, "unknown datapath '%s'\n", opt.datapath.c_str());
  std::exit(2);
}

// ---- serve-bench: stream N sessions through the DecodeServer ----

struct ServeBenchOptions {
  std::string dataset = "motor";
  std::string strategy = "interleaved";
  std::size_t sessions = 8;
  unsigned workers = 0;  // 0 = hardware_concurrency
  std::size_t iterations = 100;
  std::uint32_t calc_freq = 0;
  std::uint32_t approx = 2;
  std::uint32_t policy = 1;
  bool batching = true;
};

[[noreturn]] void serve_usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s serve-bench [--dataset NAME] [--sessions N]\n"
               "          [--workers N] [--iterations N] [--strategy SPEC]\n"
               "          [--calc-freq N] [--approx N] [--policy 0|1]\n"
               "          [--no-batching]\n"
               "  SPEC is a StrategySpec string, e.g. \"gauss\",\n"
               "  \"newton(m=4)\", or\n"
               "  \"interleaved(calc=gauss,calc_freq=0,approx=2,policy=1)\";\n"
               "  --calc-freq/--approx/--policy apply to bare names only.\n",
               argv0);
  std::exit(2);
}

int run_serve_bench(int argc, char** argv) {
  ServeBenchOptions opt;
  for (int i = 2; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        serve_usage_and_exit(argv[0]);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--dataset")) {
      opt.dataset = need_value("--dataset");
    } else if (!std::strcmp(argv[i], "--strategy")) {
      opt.strategy = need_value("--strategy");
    } else if (!std::strcmp(argv[i], "--sessions")) {
      opt.sessions = std::size_t(std::atoll(need_value("--sessions")));
    } else if (!std::strcmp(argv[i], "--workers")) {
      opt.workers = unsigned(std::atoi(need_value("--workers")));
    } else if (!std::strcmp(argv[i], "--iterations")) {
      opt.iterations = std::size_t(std::atoll(need_value("--iterations")));
    } else if (!std::strcmp(argv[i], "--calc-freq")) {
      opt.calc_freq = std::uint32_t(std::atoi(need_value("--calc-freq")));
    } else if (!std::strcmp(argv[i], "--approx")) {
      opt.approx = std::uint32_t(std::atoi(need_value("--approx")));
    } else if (!std::strcmp(argv[i], "--policy")) {
      opt.policy = std::uint32_t(std::atoi(need_value("--policy")));
    } else if (!std::strcmp(argv[i], "--no-batching")) {
      opt.batching = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      serve_usage_and_exit(argv[0]);
    }
  }

  if (opt.sessions == 0 || opt.iterations == 0) {
    std::fprintf(stderr, "--sessions and --iterations must be >= 1\n");
    return 2;
  }

  neural::DatasetSpec spec;
  if (opt.dataset == "motor") {
    spec = neural::motor_spec();
  } else if (opt.dataset == "somatosensory") {
    spec = neural::somatosensory_spec();
  } else if (opt.dataset == "hippocampus") {
    spec = neural::hippocampus_spec();
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", opt.dataset.c_str());
    return 2;
  }
  spec.test_steps = opt.iterations;
  const neural::NeuralDataset dataset = neural::build_dataset(spec);

  kalman::StrategySpec strategy;
  if (Status s = kalman::StrategySpec::try_parse(opt.strategy, &strategy);
      !s.ok()) {
    std::fprintf(stderr, "bad --strategy '%s': %s\n", opt.strategy.c_str(),
                 s.message());
    return 2;
  }
  if (opt.strategy.find('(') == std::string::npos) {
    // Bare name: the legacy interleave flags still apply.
    strategy.calc_freq = opt.calc_freq;
    strategy.approx = opt.approx;
    strategy.policy = opt.policy == 0
                          ? kalman::SeedPolicy::kLastCalculated
                          : kalman::SeedPolicy::kPreviousIteration;
  }

  serve::SessionConfig session_cfg;
  session_cfg.filter.model = dataset.model;
  session_cfg.filter.strategy = strategy;
  session_cfg.queue_capacity = opt.iterations;  // lossless for the bench
  if (Status s = session_cfg.check(); !s.ok()) {
    std::fprintf(stderr, "bad session config: %s\n", s.message());
    return 2;
  }

  serve::ServerOptions server_options;
  server_options.workers = opt.workers;
  server_options.max_batch = 8;
  server_options.batching = opt.batching;
  serve::DecodeServer server(server_options);
  std::vector<serve::SessionId> ids;
  for (std::size_t i = 0; i < opt.sessions; ++i) {
    Status status;
    const serve::SessionId id = server.open_session(session_cfg, &status);
    if (id == serve::DecodeServer::kInvalidSession) {
      std::fprintf(stderr, "open_session failed: %s\n", status.message());
      return 2;
    }
    ids.push_back(id);
  }

  std::printf("serve-bench: %zu sessions x %zu bins, dataset %s (z=%zu), "
              "strategy %s, %u workers, batching %s\n",
              opt.sessions, dataset.test_measurements.size(),
              dataset.spec.name.c_str(), dataset.model.z_dim(),
              strategy.format().c_str(), server.workers(),
              opt.batching ? "on" : "off");

  const auto t0 = std::chrono::steady_clock::now();
  // Round-robin across sessions: the arrival pattern of independent
  // streams hitting the server.
  for (std::size_t n = 0; n < dataset.test_measurements.size(); ++n) {
    for (const auto id : ids) {
      server.submit(id, dataset.test_measurements[n]);
    }
  }
  server.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ServerStats stats = server.stats();
  std::printf("%s", stats.to_string().c_str());
  std::printf("wall       : %.3f s  (%.1f steps/s, %.2f sessions/s)\n", wall,
              double(stats.total_steps) / wall, double(opt.sessions) / wall);

  // Cross-check one stream against the identical sequential filter.
  kalman::KalmanFilter<double> sequential = session_cfg.filter.make_filter();
  const auto seq = sequential.run(dataset.test_measurements);
  const auto served = server.trajectory(ids.front());
  bool identical = served.size() == seq.states.size();
  for (std::size_t n = 0; identical && n < served.size(); ++n) {
    for (std::size_t d = 0; d < served[n].size(); ++d) {
      if (served[n][d] != seq.states[n][d]) identical = false;
    }
  }
  std::printf("determinism: served trajectory %s sequential filter\n",
              identical ? "bit-identical to" : "DIVERGES from");

  // With tracing on, also model one SoC invocation of the same dataset so
  // the exported trace shows wall-clock serve spans next to SoC cycles.
  if (telemetry::SpanTracer::global().enabled()) {
    trace_soc_invocation(dataset);
  }
  return identical ? 0 : 1;
}

// ---- cluster-bench: sharded serving with a mid-stream migration ----

struct ClusterBenchOptions {
  std::string dataset = "motor";
  std::size_t shards = 4;
  std::size_t sessions = 8;
  std::size_t iterations = 200;
  bool migrate = true;  // drain one shard mid-stream, time the migration
};

[[noreturn]] void cluster_usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s cluster-bench [--dataset NAME] [--shards N]\n"
               "          [--sessions N] [--iterations N] [--no-migrate]\n"
               "  Streams N sessions through a ShardedDecodeServer (manual\n"
               "  pumping), optionally drain-migrating one shard mid-stream\n"
               "  and timing checkpoint+restore per session, then verifies\n"
               "  one trajectory bit-for-bit against a sequential filter.\n",
               argv0);
  std::exit(2);
}

int run_cluster_bench(int argc, char** argv) {
  ClusterBenchOptions opt;
  for (int i = 2; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        cluster_usage_and_exit(argv[0]);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--dataset")) {
      opt.dataset = need_value("--dataset");
    } else if (!std::strcmp(argv[i], "--shards")) {
      opt.shards = std::size_t(std::atoll(need_value("--shards")));
    } else if (!std::strcmp(argv[i], "--sessions")) {
      opt.sessions = std::size_t(std::atoll(need_value("--sessions")));
    } else if (!std::strcmp(argv[i], "--iterations")) {
      opt.iterations = std::size_t(std::atoll(need_value("--iterations")));
    } else if (!std::strcmp(argv[i], "--no-migrate")) {
      opt.migrate = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      cluster_usage_and_exit(argv[0]);
    }
  }
  if (opt.shards == 0 || opt.sessions == 0 || opt.iterations == 0) {
    std::fprintf(stderr, "--shards/--sessions/--iterations must be >= 1\n");
    return 2;
  }

  neural::DatasetSpec spec;
  if (opt.dataset == "motor") {
    spec = neural::motor_spec();
  } else if (opt.dataset == "somatosensory") {
    spec = neural::somatosensory_spec();
  } else if (opt.dataset == "hippocampus") {
    spec = neural::hippocampus_spec();
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", opt.dataset.c_str());
    return 2;
  }
  spec.test_steps = opt.iterations;
  const neural::NeuralDataset dataset = neural::build_dataset(spec);

  serve::SessionConfig session_cfg;
  session_cfg.filter.model = dataset.model;
  session_cfg.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
  session_cfg.filter.strategy.calc_freq = 3;
  session_cfg.filter.strategy.approx = 2;
  session_cfg.filter.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  session_cfg.queue_capacity = opt.iterations;  // lossless for the bench
  if (Status s = session_cfg.check(); !s.ok()) {
    std::fprintf(stderr, "bad session config: %s\n", s.message());
    return 2;
  }

  serve::ClusterOptions cluster_options;
  cluster_options.shards = opt.shards;
  cluster_options.high_watermark = opt.sessions * opt.iterations + 1;
  cluster_options.low_watermark = cluster_options.high_watermark / 2;
  Status cluster_status;
  serve::ShardedDecodeServer cluster(cluster_options, &cluster_status);
  if (!cluster_status.ok()) {
    std::fprintf(stderr, "bad cluster options: %s\n", cluster_status.message());
    return 2;
  }
  std::vector<serve::SessionId> ids;
  for (std::size_t i = 0; i < opt.sessions; ++i) {
    Status status;
    const serve::SessionId id = cluster.open_session(session_cfg, &status);
    if (id == serve::ShardedDecodeServer::kInvalidSession) {
      std::fprintf(stderr, "open_session failed: %s\n", status.message());
      return 2;
    }
    ids.push_back(id);
  }

  std::printf("cluster-bench: %zu shards, %zu sessions x %zu bins, dataset "
              "%s (x=%zu z=%zu)\n",
              opt.shards, opt.sessions, dataset.test_measurements.size(),
              dataset.spec.name.c_str(), dataset.model.x_dim(),
              dataset.model.z_dim());

  const std::size_t half = dataset.test_measurements.size() / 2;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t n = 0; n < half; ++n)
    for (const auto id : ids)
      (void)cluster.submit(id, dataset.test_measurements[n]);
  cluster.drain();

  double migrate_s = 0.0;
  if (opt.migrate) {
    const std::size_t victim = cluster.shard_of(ids.front());
    const auto m0 = std::chrono::steady_clock::now();
    if (Status s = cluster.drain_shard(victim); !s.ok()) {
      std::fprintf(stderr, "drain_shard failed: %s\n", s.message());
      return 2;
    }
    migrate_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - m0)
            .count();
  }

  for (std::size_t n = half; n < dataset.test_measurements.size(); ++n)
    for (const auto id : ids)
      (void)cluster.submit(id, dataset.test_measurements[n]);
  cluster.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ClusterStats stats = cluster.stats();
  std::printf("%s", stats.to_string().c_str());
  std::printf("wall       : %.3f s  (%.1f steps/s)\n", wall,
              double(stats.decoded) / wall);
  if (opt.migrate && stats.sessions_migrated > 0) {
    std::printf("migration  : %llu sessions drained losslessly in %.3f ms "
                "(%.3f ms/session, checkpoint+restore+requeue)\n",
                (unsigned long long)stats.sessions_migrated, migrate_s * 1e3,
                migrate_s * 1e3 / double(stats.sessions_migrated));
  }

  // The survivability claim, checked live: the migrated stream must be
  // bit-identical to one uninterrupted sequential filter.
  kalman::KalmanFilter<double> sequential = session_cfg.filter.make_filter();
  const auto seq = sequential.run(dataset.test_measurements);
  const auto served = cluster.trajectory(ids.front());
  bool identical = served.size() == seq.states.size();
  for (std::size_t n = 0; identical && n < served.size(); ++n)
    for (std::size_t d = 0; d < served[n].size(); ++d)
      if (served[n][d] != seq.states[n][d]) identical = false;
  std::printf("determinism: migrated trajectory %s sequential filter\n",
              identical ? "bit-identical to" : "DIVERGES from");
  return identical ? 0 : 1;
}

// ---- blackbox: inspect flight-recorder postmortem dumps ----

[[noreturn]] void blackbox_usage_and_exit(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s blackbox FILE [--session N] [--kind NAME] [--last N]\n"
      "Pretty-prints a flight-recorder dump (blackbox_*.jsonl), optionally\n"
      "filtered to one session, one event kind, or the last N events.\n",
      argv0);
  std::exit(2);
}

int run_blackbox(int argc, char** argv) {
  std::string file;
  std::uint64_t session = 0;
  bool by_session = false;
  std::string kind_name;
  telemetry::FlightEventKind kind = telemetry::FlightEventKind::kHealthFault;
  std::size_t last = 0;
  for (int i = 2; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--session")) {
      session = std::strtoull(need_value("--session"), nullptr, 10);
      by_session = true;
    } else if (!std::strcmp(argv[i], "--kind")) {
      kind_name = need_value("--kind");
    } else if (!std::strcmp(argv[i], "--last")) {
      last = std::size_t(std::atoll(need_value("--last")));
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      blackbox_usage_and_exit(argv[0]);
    } else if (file.empty()) {
      file = argv[i];
    } else {
      blackbox_usage_and_exit(argv[0]);
    }
  }
  if (file.empty()) blackbox_usage_and_exit(argv[0]);
  if (!kind_name.empty() &&
      !telemetry::parse_flight_event_kind(kind_name, kind)) {
    std::fprintf(stderr, "unknown event kind '%s'\n", kind_name.c_str());
    return 2;
  }

  std::ifstream in(file, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read %s\n", file.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::vector<telemetry::FlightEvent> events =
      telemetry::parse_jsonl(ss.str());
  const std::size_t parsed = events.size();

  std::vector<telemetry::FlightEvent> kept;
  kept.reserve(events.size());
  for (const telemetry::FlightEvent& e : events) {
    if (by_session && e.session != session) continue;
    if (!kind_name.empty() && e.kind != kind) continue;
    kept.push_back(e);
  }
  if (last > 0 && kept.size() > last) {
    kept.erase(kept.begin(), kept.end() - std::ptrdiff_t(last));
  }

  std::printf("%14s %8s %6s  %-19s %12s %12s  %s\n", "ts_us", "session",
              "step", "kind", "arg", "value", "detail");
  std::map<std::string, std::size_t> by_kind;
  for (const telemetry::FlightEvent& e : kept) {
    std::printf("%14.3f %8llu %6llu  %-19s %12llu %12g  %s\n", e.ts_us,
                static_cast<unsigned long long>(e.session),
                static_cast<unsigned long long>(e.step),
                telemetry::to_string(e.kind),
                static_cast<unsigned long long>(e.arg), e.value, e.detail);
    ++by_kind[telemetry::to_string(e.kind)];
  }
  std::printf("blackbox   : %zu of %zu events from %s\n", kept.size(), parsed,
              file.c_str());
  for (const auto& [name, count] : by_kind) {
    std::printf("             %-19s %zu\n", name.c_str(), count);
  }
  return 0;
}

// ---- telemetry-demo: exercise every instrumented layer ----

int run_telemetry_demo(int argc, char** argv) {
  std::string dataset_name = "motor";
  std::size_t iterations = 50;
  for (int i = 2; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--dataset")) {
      dataset_name = need_value("--dataset");
    } else if (!std::strcmp(argv[i], "--iterations")) {
      iterations = std::size_t(std::atoll(need_value("--iterations")));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  neural::DatasetSpec spec;
  if (dataset_name == "motor") {
    spec = neural::motor_spec();
  } else if (dataset_name == "somatosensory") {
    spec = neural::somatosensory_spec();
  } else if (dataset_name == "hippocampus") {
    spec = neural::hippocampus_spec();
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", dataset_name.c_str());
    return 2;
  }
  spec.test_steps = iterations == 0 ? 1 : iterations;
  const neural::NeuralDataset dataset = neural::build_dataset(spec);

  // Tracing is on regardless of --trace-out here — the demo's whole point
  // is producing a trace (default file names if no global flags given).
  telemetry::SpanTracer::global().set_enabled(true);
  telemetry::SpanTracer::global().set_thread_name("main");

  // 1. Library-level filter: phase spans + strategy/Newton counters, plus
  // the workspace gauges of the allocation-free hot path.  Printed while
  // the filter is alive: kalmmind.kf.workspace_bytes tracks live filters
  // and retires each contribution on destruction.
  {
    telemetry::Span span("demo.filter_run", "demo");
    kalman::KalmanFilter<double> filter(
        dataset.model, kalman::make_inverse_strategy<double>(
                           kalman::StrategySpec::parse("interleaved")));
    filter.run(dataset.test_measurements);
    auto& registry = telemetry::MetricsRegistry::global();
    std::printf(
        "workspace  : kalmmind.kf.workspace_bytes=%.0f "
        "(this filter: %zu), kalmmind.kf.step_allocations_total=%llu\n",
        registry.gauge("kalmmind.kf.workspace_bytes").value(),
        filter.workspace_bytes(),
        static_cast<unsigned long long>(
            registry.counter("kalmmind.kf.step_allocations_total").value()));
  }

  // 2. Decode server: session spans, queue-depth counter track, latency
  // histogram — and the PR6 batched-serving path: two distinct filter
  // configs, two sessions each, so the gain-schedule cache sees one miss +
  // one hit per config and both pairs decode through fused BatchGroups.
  {
    telemetry::Span span("demo.serve_run", "demo");
    serve::SessionConfig cfg;
    cfg.filter.model = dataset.model;
    cfg.filter.strategy.kind = kalman::StrategyKind::kGauss;
    cfg.queue_capacity = dataset.test_measurements.size();
    serve::SessionConfig cfg2 = cfg;
    cfg2.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
    cfg2.filter.strategy.calc_freq = 3;
    cfg2.filter.strategy.approx = 2;
    serve::DecodeServer server({/*workers=*/2, /*max_batch=*/8});
    const serve::SessionId a = server.open_session(cfg);
    const serve::SessionId b = server.open_session(cfg);
    const serve::SessionId c = server.open_session(cfg2);
    const serve::SessionId d = server.open_session(cfg2);
    for (const auto& z : dataset.test_measurements) {
      server.submit(a, z);
      server.submit(b, z);
      server.submit(c, z);
      server.submit(d, z);
    }
    server.drain();
    const serve::ServerStats stats = server.stats();
    std::printf("%s", stats.to_string().c_str());
    std::printf(
        "batching   : batched_sessions=%zu batch_groups=%zu gain_cache "
        "hits=%llu misses=%llu evictions=%llu\n",
        stats.batched_sessions, stats.batch_groups,
        static_cast<unsigned long long>(stats.gain_cache_hits),
        static_cast<unsigned long long>(stats.gain_cache_misses),
        static_cast<unsigned long long>(stats.gain_cache_evictions));

    // 2b. Flight recorder: every batch join / cache hit / cache miss above
    // was journaled; demo a postmortem of the first session so --blackbox-out
    // produces a JSONL dump to feed `kalmmind blackbox`.
    auto& blackbox = telemetry::FlightRecorder::global();
    std::uint64_t journaled = 0;
    const std::vector<std::uint64_t> recorded = blackbox.sessions();
    for (const std::uint64_t s : recorded) {
      journaled += blackbox.total_recorded(s);
    }
    std::printf("blackbox   : %llu events journaled across %zu sessions\n",
                static_cast<unsigned long long>(journaled), recorded.size());
    if (blackbox.enabled()) {
      const std::string path = blackbox.postmortem(a, "demo");
      if (!path.empty()) {
        std::printf("blackbox   : wrote postmortem %s\n", path.c_str());
      }
    }
  }
  if (!telemetry::kCompiledIn) {
    std::printf("telemetry  : compiled out (KALMMIND_TELEMETRY=OFF)\n");
  }

  // 3. SoC invocation bridged onto the same timeline.
  trace_soc_invocation(dataset);

  std::printf("telemetry-demo: %zu bins of %s through filter + server + SoC\n",
              dataset.test_measurements.size(), dataset.spec.name.c_str());
  return 0;
}

// ---- simd-info: report the runtime kernel dispatch resolution ----

int run_simd_info() {
  const linalg::simd::DispatchInfo info = linalg::simd::dispatch_info();
  std::printf("detected   : %s\n", linalg::simd::tier_name(info.detected));
  std::printf("active     : %s\n", linalg::simd::tier_name(info.active));
  std::string avail;
  for (const linalg::simd::Tier t : linalg::simd::available_tiers()) {
    if (!avail.empty()) avail += " ";
    avail += linalg::simd::tier_name(t);
  }
  std::printf("available  : %s\n", avail.c_str());
  if (info.env.empty()) {
    std::printf("env        : KALMMIND_SIMD unset\n");
  } else {
    std::printf("env        : KALMMIND_SIMD=%.*s (%s)\n",
                int(info.env.size()), info.env.data(),
                info.env_applied ? "applied" : "ignored: unknown or "
                                               "unavailable on this host");
  }
  std::printf("gauge      : kalmmind.linalg.simd_tier = %d\n",
              static_cast<int>(info.active));
  return 0;
}

}  // namespace

namespace {

int run_single(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  const TelemetryOptions telemetry_opt = strip_telemetry_flags(argc, argv);
  int rc;
  if (argc > 1 && !std::strcmp(argv[1], "serve-bench")) {
    rc = run_serve_bench(argc, argv);
  } else if (argc > 1 && !std::strcmp(argv[1], "cluster-bench")) {
    rc = run_cluster_bench(argc, argv);
  } else if (argc > 1 && !std::strcmp(argv[1], "blackbox")) {
    rc = run_blackbox(argc, argv);
  } else if (argc > 1 && !std::strcmp(argv[1], "simd-info")) {
    rc = run_simd_info();
  } else if (argc > 1 && !std::strcmp(argv[1], "telemetry-demo")) {
    // Demo defaults: always write a trace/metrics pair if no global flags.
    TelemetryOptions demo = telemetry_opt;
    if (demo.trace_out.empty()) demo.trace_out = "kalmmind_trace.json";
    if (demo.metrics_out.empty()) demo.metrics_out = "kalmmind_metrics.prom";
    rc = run_telemetry_demo(argc, argv);
    flush_telemetry(demo);
    return rc;
  } else {
    rc = run_single(argc, argv);
  }
  flush_telemetry(telemetry_opt);
  return rc;
}

namespace {

int run_single(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);

  auto dataset = neural::build_dataset(spec_for(opt));
  auto reference = core::to_double_trajectory(
      kalman::run_reference(dataset.model, dataset.test_measurements).states);

  auto cfg = core::AcceleratorConfig::for_run(
      std::uint32_t(dataset.model.x_dim()),
      std::uint32_t(dataset.model.z_dim()),
      dataset.test_measurements.size());
  cfg.calc_freq = opt.calc_freq;
  cfg.approx = opt.approx;
  cfg.policy = opt.policy;

  core::Accelerator accel = accelerator_for(opt, cfg);
  auto run = accel.run(dataset.model, dataset.test_measurements);
  auto metrics = core::compare_trajectories(reference, run.states);
  auto quality = neural::assess_decode(run.states, dataset.test_kinematics);

  std::printf("dataset    : %s (x=%zu z=%zu, %zu iterations)\n",
              dataset.spec.name.c_str(), dataset.model.x_dim(),
              dataset.model.z_dim(), dataset.test_measurements.size());
  std::printf("datapath   : %s  [%s]\n", accel.spec().name().c_str(),
              cfg.to_string().c_str());
  std::printf("accuracy   : MSE %s  MAE %s  MAX-DIFF %s%%  (vs float64 "
              "reference)\n",
              core::sci(metrics.mse).c_str(), core::sci(metrics.mae).c_str(),
              core::sci(metrics.max_diff_pct).c_str());
  std::printf("decode     : velocity corr %.3f  position corr %.3f  "
              "velocity RMSE %.3f\n",
              quality.velocity_correlation, quality.position_correlation,
              quality.velocity_rmse);
  std::printf("latency    : %.4f s (%llu cycles @ %.0f MHz)\n", run.seconds,
              (unsigned long long)run.latency.total_cycles,
              accel.params().clock_hz / 1e6);
  std::printf("power      : %.3f W   energy: %.4f J\n", run.power_w,
              run.energy_j);
  std::printf("resources  : %llu LUT  %llu FF  %.1f BRAM  %llu DSP\n",
              (unsigned long long)run.resources.lut,
              (unsigned long long)run.resources.ff, run.resources.bram,
              (unsigned long long)run.resources.dsp);
  if (run.fixed_point_saturations) {
    std::printf("WARNING    : %llu fixed-point saturations\n",
                (unsigned long long)run.fixed_point_saturations);
  }

  if (opt.breakdown) {
    hls::LatencyModel lat(accel.params());
    auto report = hls::build_latency_report(lat, accel.spec(),
                                            dataset.model.x_dim(),
                                            dataset.model.z_dim(), run.events);
    std::printf("\n%s", report.to_string().c_str());
  }

  if (!opt.csv_prefix.empty()) {
    const std::string path = opt.csv_prefix + "_trajectory.csv";
    io::write_trajectory_csv_file(path, run.states,
                                  {"px", "py", "vx", "vy", "ax", "ay"});
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace
