// SessionSnapshot: the versioned, self-framing binary codec plus
// DecodeServer checkpoint/restore.  Round-trip fidelity, a corrupted-frame
// corpus (every malformed frame must come back as a Status, never UB), and
// the tentpole property: a checkpointed session of any kind — batched,
// older than the schedule window, health-gated, degraded, ejected,
// quarantined — restored on a fresh server continues bit-identical to an
// uninterrupted run, without replaying its gain schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "serve/serve.hpp"
#include "telemetry/telemetry.hpp"
#include "../kalman/kalman_test_util.hpp"

namespace kalmmind::serve {
namespace {

using linalg::Vector;

SessionConfig interleaved_config(const kalman::KalmanModel<double>& model) {
  SessionConfig cfg;
  cfg.filter.model = model;
  cfg.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
  cfg.filter.strategy.calc_freq = 3;
  cfg.filter.strategy.approx = 2;
  cfg.filter.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  cfg.queue_capacity = 1024;
  return cfg;
}

SessionSnapshot sample_snapshot() {
  SessionSnapshot snap;
  snap.config_fingerprint = 0xdeadbeefcafef00dull;
  snap.iteration = 137;
  snap.x = {1.5, -2.25, 3.0e-17, 0.0, -0.0, 1e300};
  snap.health_rung = 1;
  snap.backoff_remaining = 3;
  snap.steps = 137;
  snap.batched_steps = 120;
  snap.deadline_misses = 2;
  snap.invalid_steps = 1;
  snap.restarts = 1;
  snap.degradations = 0;
  snap.quarantine_dropped = 4;
  snap.rejected = 5;
  snap.dropped = 6;
  snap.discarded = 7;
  snap.sum_step_s = 0.125;
  snap.worst_step_s = 0.001953125;
  snap.recorded_states = 137;
  return snap;
}

linalg::Matrix<double> filled(std::size_t rows, std::size_t cols,
                              double base) {
  linalg::Matrix<double> m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      m(i, j) = base + double(i) * 0.25 - double(j) * 1e-3;
  return m;
}

// A v2 frame that carries every matrix: x=6, z=3, a schedule head with a
// seed and anchor, a health state with a fallback gain, two entries.
constexpr std::size_t kMatrixZ = 3;
SessionSnapshot matrix_snapshot() {
  SessionSnapshot snap = sample_snapshot();
  const std::size_t x = snap.x.size();
  snap.z_dim = kMatrixZ;
  snap.consecutive_misses = 2;
  snap.consecutive_hits = 5;
  snap.recursion.n = 138;
  snap.recursion.p = filled(x, x, 0.5);
  snap.recursion.strategy.seed = filled(kMatrixZ, kMatrixZ, -1.5);
  snap.recursion.strategy.anchor = filled(kMatrixZ, kMatrixZ, 2.0);
  snap.recursion.strategy.seed_ready = true;
  snap.recursion.strategy.hardened = true;
  snap.health.stats.last_faults = 0x21;
  snap.health.stats.faulty_steps = 9;
  snap.health.stats.gated_channels = 4;
  snap.health.stats.recoveries[3] = 2;
  snap.health.stats.escalation_level = 2;
  snap.health.consecutive_healthy = 3;
  snap.health.has_last_good = true;
  snap.health.last_good_x = linalg::Vector<double>(x, 0.75);
  snap.health.fallback_gain = filled(x, kMatrixZ, 0.125);
  for (int i = 0; i < 2; ++i) {
    auto e = std::make_shared<kalman::GainSchedule::Entry>();
    e->k = filled(x, kMatrixZ, 3.0 + i);
    e->p_after = filled(x, x, -0.5 - i);
    e->event = {kalman::InversePath::kApproximation, std::size_t(2 + i)};
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

bool bit_equal(const linalg::Matrix<double>& a,
               const linalg::Matrix<double>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Recompute the trailing checksum after a deliberate edit, so the field
// guard under test — not the checksum — is what rejects the frame.
void reseal(std::vector<std::uint8_t>& f) {
  const std::uint64_t ck =
      snapshot_detail::checksum(f.data(), f.size() - kSnapshotChecksumBytes);
  for (std::size_t i = 0; i < kSnapshotChecksumBytes; ++i)
    f[f.size() - kSnapshotChecksumBytes + i] = std::uint8_t(ck >> (8 * i));
}

void put_u32_at(std::vector<std::uint8_t>& f, std::size_t at,
                std::uint32_t v) {
  for (int i = 0; i < 4; ++i) f[at + i] = std::uint8_t(v >> (8 * i));
}

// Byte offset of the z_dim word in a v2 frame with `x_dim` states: header,
// fingerprint, iteration, x_dim + x, the rung and kind words, the
// backoff and counter words, two f64 timings and recorded_states.
std::size_t z_dim_offset(std::size_t x_dim) {
  return kSnapshotHeaderBytes + 8 + 8 + 4 + 8 * x_dim + 16 * 8;
}

TEST(ServeSnapshotTest, EncodeDecodeRoundTripsEveryField) {
  const SessionSnapshot snap = sample_snapshot();
  const std::vector<std::uint8_t> frame = encode(snap);
  ASSERT_GE(frame.size(), kSnapshotHeaderBytes + kSnapshotChecksumBytes);

  SessionSnapshot out;
  const Status s = decode(frame, &out);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(out.config_fingerprint, snap.config_fingerprint);
  EXPECT_EQ(out.iteration, snap.iteration);
  ASSERT_EQ(out.x.size(), snap.x.size());
  for (std::size_t i = 0; i < snap.x.size(); ++i) {
    // Bit-exact doubles, including -0.0 and subnormal-adjacent values.
    EXPECT_EQ(std::memcmp(&out.x[i], &snap.x[i], sizeof(double)), 0) << i;
  }
  EXPECT_EQ(out.health_rung, snap.health_rung);
  EXPECT_EQ(out.backoff_remaining, snap.backoff_remaining);
  EXPECT_EQ(out.steps, snap.steps);
  EXPECT_EQ(out.batched_steps, snap.batched_steps);
  EXPECT_EQ(out.deadline_misses, snap.deadline_misses);
  EXPECT_EQ(out.invalid_steps, snap.invalid_steps);
  EXPECT_EQ(out.restarts, snap.restarts);
  EXPECT_EQ(out.degradations, snap.degradations);
  EXPECT_EQ(out.quarantine_dropped, snap.quarantine_dropped);
  EXPECT_EQ(out.rejected, snap.rejected);
  EXPECT_EQ(out.dropped, snap.dropped);
  EXPECT_EQ(out.discarded, snap.discarded);
  EXPECT_EQ(out.sum_step_s, snap.sum_step_s);
  EXPECT_EQ(out.worst_step_s, snap.worst_step_s);
  EXPECT_EQ(out.recorded_states, snap.recorded_states);
}

TEST(ServeSnapshotTest, EncodeDecodeRoundTripsTheRecursionState) {
  const SessionSnapshot snap = matrix_snapshot();
  SessionSnapshot out;
  const Status s = decode(encode(snap), &out);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(out.kind, snap.kind);
  EXPECT_EQ(out.z_dim, snap.z_dim);
  EXPECT_EQ(out.consecutive_misses, snap.consecutive_misses);
  EXPECT_EQ(out.consecutive_hits, snap.consecutive_hits);
  EXPECT_EQ(out.recursion.n, snap.recursion.n);
  EXPECT_TRUE(bit_equal(out.recursion.p, snap.recursion.p));
  EXPECT_TRUE(bit_equal(out.recursion.strategy.seed,
                        snap.recursion.strategy.seed));
  EXPECT_TRUE(bit_equal(out.recursion.strategy.anchor,
                        snap.recursion.strategy.anchor));
  EXPECT_TRUE(out.recursion.strategy.seed_ready);
  EXPECT_FALSE(out.recursion.strategy.force_calculation);
  EXPECT_TRUE(out.recursion.strategy.hardened);
  EXPECT_EQ(out.health.stats.last_faults, snap.health.stats.last_faults);
  EXPECT_EQ(out.health.stats.faulty_steps, snap.health.stats.faulty_steps);
  EXPECT_EQ(out.health.stats.gated_channels,
            snap.health.stats.gated_channels);
  EXPECT_EQ(out.health.stats.recoveries, snap.health.stats.recoveries);
  EXPECT_EQ(out.health.stats.escalation_level,
            snap.health.stats.escalation_level);
  EXPECT_EQ(out.health.consecutive_healthy, snap.health.consecutive_healthy);
  EXPECT_EQ(out.health.has_last_good, snap.health.has_last_good);
  ASSERT_EQ(out.health.last_good_x.size(), snap.health.last_good_x.size());
  EXPECT_EQ(out.health.last_good_x[0], snap.health.last_good_x[0]);
  EXPECT_TRUE(bit_equal(out.health.fallback_gain, snap.health.fallback_gain));
  ASSERT_EQ(out.entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    EXPECT_TRUE(bit_equal(out.entries[i]->k, snap.entries[i]->k)) << i;
    EXPECT_TRUE(bit_equal(out.entries[i]->p_after, snap.entries[i]->p_after));
    EXPECT_EQ(out.entries[i]->event.path, snap.entries[i]->event.path);
    EXPECT_EQ(out.entries[i]->event.newton_iterations,
              snap.entries[i]->event.newton_iterations);
  }

  // Absent matrices stay absent.
  SessionSnapshot bare;
  ASSERT_TRUE(decode(encode(sample_snapshot()), &bare).ok());
  EXPECT_TRUE(bare.recursion.p.empty());
  EXPECT_TRUE(bare.recursion.strategy.seed.empty());
  EXPECT_TRUE(bare.health.last_good_x.empty());
  EXPECT_TRUE(bare.health.fallback_gain.empty());
  EXPECT_TRUE(bare.entries.empty());
}

// The corrupted-frame corpus: every mangled frame must be rejected with a
// Status — no crash, no garbage snapshot, no UB (ASan/UBSan cover this
// file in the sanitizer CI lanes).
TEST(ServeSnapshotTest, CorruptedFrameCorpusIsRejectedNotUB) {
  const std::vector<std::uint8_t> good = encode(sample_snapshot());
  SessionSnapshot out;

  struct Case {
    const char* name;
    std::vector<std::uint8_t> frame;
  };
  std::vector<Case> corpus;
  corpus.push_back({"empty", {}});
  corpus.push_back({"single_byte", {0x4b}});
  corpus.push_back(
      {"header_only", std::vector<std::uint8_t>(
                          good.begin(), good.begin() + kSnapshotHeaderBytes)});
  {
    auto f = good;
    f[0] = 'X';  // magic
    corpus.push_back({"bad_magic", f});
  }
  {
    auto f = good;
    f[4] = 0x7f;  // version -> unsupported
    corpus.push_back({"unknown_version", f});
  }
  {
    auto f = good;
    f.resize(f.size() - 1);  // truncated checksum
    corpus.push_back({"truncated_checksum", f});
  }
  {
    auto f = good;
    f.resize(f.size() - kSnapshotChecksumBytes - 3);  // truncated payload
    corpus.push_back({"truncated_payload", f});
  }
  {
    auto f = good;
    f.push_back(0);  // trailing junk
    corpus.push_back({"trailing_bytes", f});
  }
  {
    auto f = good;
    f[8] = 0xff;  // payload_len disagrees with the frame
    corpus.push_back({"length_mismatch", f});
  }
  {
    auto f = good;
    // x_dim field (first payload u32 after fingerprint+iteration): blow it
    // past kSnapshotMaxStateDim, then re-seal the checksum so the
    // allocation guard — not the checksum — is what rejects the frame.
    const std::size_t at = kSnapshotHeaderBytes + 8 + 8;
    f[at] = f[at + 1] = f[at + 2] = f[at + 3] = 0xff;
    const std::uint64_t ck = snapshot_detail::checksum(
        f.data(), f.size() - kSnapshotChecksumBytes);
    for (std::size_t i = 0; i < kSnapshotChecksumBytes; ++i)
      f[f.size() - kSnapshotChecksumBytes + i] =
          std::uint8_t(ck >> (8 * i));
    corpus.push_back({"oversized_state_dim", f});
  }

  // v2 frames that carry matrices: every shape and count field is checked
  // against x_dim/z_dim (and the bytes left) before anything is allocated.
  const std::vector<std::uint8_t> rich = encode(matrix_snapshot());
  const std::size_t x_dim = sample_snapshot().x.size();
  const std::size_t z_at = z_dim_offset(x_dim);
  const std::size_t p_at = z_at + 4 * 8;  // after z_dim, misses, hits, n
  {
    auto f = rich;
    put_u32_at(f, z_at, std::uint32_t(kSnapshotMaxMeasurementDim + 1));
    reseal(f);
    corpus.push_back({"oversized_measurement_dim", f});
  }
  {
    auto f = rich;
    put_u32_at(f, p_at, std::uint32_t(x_dim + 1));  // P rows != x_dim
    reseal(f);
    corpus.push_back({"covariance_rows_disagree", f});
  }
  {
    auto f = rich;
    // A frame claiming z = 2^16 with a seed of that size: z^2 doubles
    // (32 GiB) must be refused by the bytes-left check, not allocated.
    put_u32_at(f, z_at, std::uint32_t(kSnapshotMaxMeasurementDim));
    const std::size_t seed_at = p_at + 8 + 8 * x_dim * x_dim + 3 * 8;
    put_u32_at(f, seed_at, std::uint32_t(kSnapshotMaxMeasurementDim));
    put_u32_at(f, seed_at + 4, std::uint32_t(kSnapshotMaxMeasurementDim));
    reseal(f);
    corpus.push_back({"seed_larger_than_frame", f});
  }
  {
    auto f = rich;
    const std::size_t entry_bytes =
        8 + 8 + (8 + 8 * x_dim * kMatrixZ) + (8 + 8 * x_dim * x_dim);
    const std::size_t count_at =
        f.size() - kSnapshotChecksumBytes - 2 * entry_bytes - 4;
    put_u32_at(f, count_at, 0xffffffffu);
    reseal(f);
    corpus.push_back({"entry_count_larger_than_frame", f});
  }
  {
    auto f = rich;
    f[kSnapshotHeaderBytes + 8 + 8 + 4 + 8 * x_dim + 8] = 7;  // kind
    reseal(f);
    corpus.push_back({"unknown_kind", f});
  }
  {
    auto f = rich;
    f.resize(f.size() - kSnapshotChecksumBytes - 40);  // cut into an entry
    f[8] = std::uint8_t((f.size() - kSnapshotHeaderBytes) & 0xff);
    f[9] = std::uint8_t(((f.size() - kSnapshotHeaderBytes) >> 8) & 0xff);
    f.resize(f.size() + kSnapshotChecksumBytes);
    reseal(f);
    corpus.push_back({"truncated_entry", f});
  }

  for (const auto& c : corpus) {
    const Status s = decode(c.frame, &out);
    EXPECT_FALSE(s.ok()) << c.name;
    EXPECT_NE(s.message(), std::string()) << c.name;
  }

  // A v1 frame (no recursion state) is refused by name.
  auto v1 = good;
  v1[4] = 1;
  v1[5] = 0;
  reseal(v1);
  const Status s = decode(v1, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(std::string(s.message()).find("version 1"), std::string::npos)
      << s.message();
}

// Any single corrupted byte anywhere in the frame is caught (the trailing
// FNV-1a checksum covers header and payload; flips inside the checksum
// itself mismatch trivially).
TEST(ServeSnapshotTest, EverySingleByteFlipIsDetected) {
  for (const SessionSnapshot& snap : {sample_snapshot(), matrix_snapshot()}) {
    const std::vector<std::uint8_t> good = encode(snap);
    SessionSnapshot out;
    for (std::size_t i = 0; i < good.size(); ++i) {
      auto f = good;
      f[i] ^= 0x40;
      EXPECT_FALSE(decode(f, &out).ok()) << "byte " << i;
    }
  }
}

TEST(ServeSnapshotTest, DebugJsonNamesTheDurableFields) {
  const std::string json = to_debug_json(sample_snapshot());
  for (const char* key :
       {"\"config_fingerprint\"", "\"iteration\"", "\"x\"",
        "\"health_rung\"", "\"steps\"", "\"discarded\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The v2 recursion state, matrices summarized by shape.
  const std::string rich = to_debug_json(matrix_snapshot());
  for (const char* key :
       {"\"kind\"", "\"z_dim\":3", "\"n\":138",
        "\"p\":\"6x6\"", "\"seed\":\"3x3\"", "\"anchor\":\"3x3\"",
        "\"hardened\":1", "\"escalation_level\":2",
        "\"last_good_x\":[", "\"fallback_gain\":\"6x3\"",
        "\"entries\":2"}) {
    EXPECT_NE(rich.find(key), std::string::npos) << key;
  }
}

// The tentpole property: checkpoint mid-stream, restore on a *different*
// DecodeServer, feed the tail — the combined trajectory is bit-identical
// to one uninterrupted run.  The restore replays nothing: it pulls K at
// exactly the snapshot iteration from the target's gain-schedule cache
// (compute K is measurement-independent, so (config, iteration, x) is the
// entire durable state).
TEST(ServeSnapshotTest, CheckpointRestoreIsBitExactAcrossServers) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kTotal = 60;
  constexpr std::size_t kCut = 23;  // mid-interleave (calc_freq 3): the
                                    // restore must resume the K pattern
  const auto zs = testing::simulate_measurements(model, kTotal, 42);

  // Uninterrupted reference.
  std::vector<Vector<double>> solo;
  {
    kalman::KalmanFilter<double> filter = cfg.filter.make_filter();
    for (const auto& z : zs) solo.push_back(filter.step(z));
  }

  DecodeServer a({/*workers=*/ServerOptions::kManual});
  Status status;
  const SessionId ida = a.open_session(cfg, &status);
  ASSERT_NE(ida, DecodeServer::kInvalidSession) << status.message();
  for (std::size_t n = 0; n < kCut; ++n)
    ASSERT_EQ(a.submit(ida, zs[n]), PushResult::kAccepted);
  a.drain();

  SessionSnapshot snap;
  ASSERT_TRUE(a.checkpoint_session(ida, &snap).ok());
  EXPECT_EQ(snap.iteration, kCut);
  EXPECT_EQ(snap.recorded_states, kCut);

  // Ship it through the wire framing, like a real migration would.
  SessionSnapshot shipped;
  ASSERT_TRUE(decode(encode(snap), &shipped).ok());

  DecodeServer b({/*workers=*/ServerOptions::kManual});
  const SessionId idb = b.restore_session(cfg, shipped, &status);
  ASSERT_NE(idb, DecodeServer::kInvalidSession) << status.message();
  for (std::size_t n = kCut; n < kTotal; ++n)
    ASSERT_EQ(b.submit(idb, zs[n]), PushResult::kAccepted);
  b.drain();

  const auto head = a.trajectory(ida);
  const auto tail = b.trajectory(idb);
  ASSERT_EQ(head.size(), kCut);
  ASSERT_EQ(tail.size(), kTotal - kCut);
  for (std::size_t n = 0; n < kTotal; ++n) {
    const auto& got = n < kCut ? head[n] : tail[n - kCut];
    for (std::size_t d = 0; d < got.size(); ++d)
      ASSERT_EQ(got[d], solo[n][d]) << "step " << n << " dim " << d;
  }

  // Carried counters resumed, not reset.
  const auto stats = b.session_stats(idb);
  EXPECT_EQ(stats.steps, kTotal);
}

TEST(ServeSnapshotTest, RestoreRejectsMismatchedSnapshots) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  const auto zs = testing::simulate_measurements(model, 8);

  DecodeServer a({/*workers=*/ServerOptions::kManual});
  const SessionId id = a.open_session(cfg);
  for (const auto& z : zs) ASSERT_EQ(a.submit(id, z), PushResult::kAccepted);
  a.drain();
  SessionSnapshot snap;
  ASSERT_TRUE(a.checkpoint_session(id, &snap).ok());

  DecodeServer b({/*workers=*/ServerOptions::kManual});
  Status status;

  // Different config => different fingerprint.
  SessionConfig other = cfg;
  other.filter.strategy.calc_freq = 5;
  EXPECT_EQ(b.restore_session(other, snap, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // Mangled state dimension.
  SessionSnapshot bad = snap;
  bad.x.push_back(0.0);
  EXPECT_EQ(b.restore_session(cfg, bad, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // Mangled measurement dimension.
  SessionSnapshot bad_z = snap;
  bad_z.z_dim += 1;
  EXPECT_EQ(b.restore_session(cfg, bad_z, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // Schedule entries that do not reach back to iteration-1.
  SessionSnapshot short_entries = snap;
  ASSERT_EQ(short_entries.kind, SnapshotKind::kSchedule);
  short_entries.entries.erase(short_entries.entries.begin());
  EXPECT_EQ(b.restore_session(cfg, short_entries, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // Recursion state that does not fit the model.
  SessionSnapshot bad_p = snap;
  bad_p.recursion.p = linalg::Matrix<double>::identity(3);
  EXPECT_EQ(b.restore_session(cfg, bad_p, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // A server without batching restores the stream too (the snapshot seeds
  // its own schedule), and it continues exactly where it left off.
  ServerOptions nobatch_options;
  nobatch_options.workers = ServerOptions::kManual;
  nobatch_options.batching = false;
  DecodeServer nobatch(nobatch_options);
  const SessionId moved = nobatch.restore_session(cfg, snap, &status);
  ASSERT_NE(moved, DecodeServer::kInvalidSession) << status.message();
  const auto more = testing::simulate_measurements(model, 12);
  kalman::KalmanFilter<double> reference = cfg.filter.make_filter();
  for (const auto& z : zs) reference.step(z);
  for (std::size_t n = zs.size(); n < more.size(); ++n) {
    ASSERT_EQ(nobatch.submit(moved, more[n]), PushResult::kAccepted);
  }
  nobatch.drain();
  const auto tail = nobatch.trajectory(moved);
  ASSERT_EQ(tail.size(), more.size() - zs.size());
  for (std::size_t n = zs.size(); n < more.size(); ++n) {
    const auto& want = reference.step(more[n]);
    for (std::size_t d = 0; d < want.size(); ++d)
      ASSERT_EQ(tail[n - zs.size()][d], want[d]) << "step " << n;
  }

  // And the happy path still works on the same server instance.
  EXPECT_NE(b.restore_session(cfg, snap, &status),
            DecodeServer::kInvalidSession)
      << status.message();
}

// --- migrated == sequential, for every kind of session ----------------------

std::vector<Vector<double>> concat(std::vector<Vector<double>> head,
                                   const std::vector<Vector<double>>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

void expect_bit_identical(const std::vector<Vector<double>>& got,
                          const std::vector<Vector<double>>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t n = 0; n < got.size(); ++n) {
    ASSERT_EQ(got[n].size(), want[n].size()) << what;
    for (std::size_t d = 0; d < got[n].size(); ++d) {
      // memcmp: NaN-safe and -0.0-exact.
      ASSERT_EQ(std::memcmp(&got[n][d], &want[n][d], sizeof(double)), 0)
          << what << " step " << n << " dim " << d;
    }
  }
}

void expect_same_counters(const SessionStatsSnapshot& got,
                          const SessionStatsSnapshot& want,
                          const std::string& what) {
  EXPECT_EQ(got.steps, want.steps) << what;
  EXPECT_EQ(got.invalid_steps, want.invalid_steps) << what;
  EXPECT_EQ(got.restarts, want.restarts) << what;
  EXPECT_EQ(got.degradations, want.degradations) << what;
  EXPECT_EQ(got.quarantine_dropped, want.quarantine_dropped) << what;
  EXPECT_EQ(got.deadline_misses, want.deadline_misses) << what;
  EXPECT_EQ(got.state, want.state) << what;
}

struct Decoded {
  std::vector<Vector<double>> trajectory;
  SessionStatsSnapshot stats;
  SessionSnapshot snap;  // as shipped (migrated runs only)
};

Decoded run_uninterrupted(const SessionConfig& cfg, ServerOptions options,
                          const std::vector<Vector<double>>& zs) {
  options.workers = ServerOptions::kManual;
  DecodeServer server(options);
  const SessionId id = server.open_session(cfg);
  EXPECT_NE(id, DecodeServer::kInvalidSession);
  for (const auto& z : zs)
    EXPECT_EQ(server.submit(id, z), PushResult::kAccepted);
  server.drain();
  return {server.trajectory(id), server.session_stats(id), {}};
}

// Decode zs[0, cut) on one server, checkpoint through the wire codec,
// restore on a fresh (cold) server and decode the rest there.
Decoded run_migrated(const SessionConfig& cfg, ServerOptions options,
                     const std::vector<Vector<double>>& zs, std::size_t cut) {
  options.workers = ServerOptions::kManual;
  Decoded out;
  DecodeServer a(options);
  const SessionId ida = a.open_session(cfg);
  EXPECT_NE(ida, DecodeServer::kInvalidSession);
  for (std::size_t n = 0; n < cut; ++n)
    EXPECT_EQ(a.submit(ida, zs[n]), PushResult::kAccepted);
  a.drain();
  SessionSnapshot snap;
  EXPECT_TRUE(a.checkpoint_session(ida, &snap).ok());
  EXPECT_TRUE(decode(encode(snap), &out.snap).ok());

  DecodeServer b(options);
  Status status;
  const SessionId idb = b.restore_session(cfg, out.snap, &status);
  EXPECT_NE(idb, DecodeServer::kInvalidSession) << status.message();
  if (idb == DecodeServer::kInvalidSession) return out;
  for (std::size_t n = cut; n < zs.size(); ++n)
    EXPECT_EQ(b.submit(idb, zs[n]), PushResult::kAccepted);
  b.drain();
  out.trajectory = concat(a.trajectory(ida), b.trajectory(idb));
  out.stats = b.session_stats(idb);
  return out;
}

void expect_migrates_bit_identical(const SessionConfig& cfg,
                                   const ServerOptions& options,
                                   const std::vector<Vector<double>>& zs,
                                   const std::vector<std::size_t>& cuts,
                                   const std::string& what) {
  const Decoded reference = run_uninterrupted(cfg, options, zs);
  for (const std::size_t cut : cuts) {
    const std::string at = what + " cut " + std::to_string(cut);
    const Decoded migrated = run_migrated(cfg, options, zs, cut);
    expect_bit_identical(migrated.trajectory, reference.trajectory, at);
    expect_same_counters(migrated.stats, reference.stats, at);
  }
}

TEST(ServeSnapshotTest, SessionOlderThanTheGainWindowMigrates) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  ServerOptions options;
  options.gain_window = 16;  // test-sized: the session outlives it
  const auto zs = testing::simulate_measurements(model, 70, 11);

  const Decoded migrated = run_migrated(cfg, options, zs, 40);
  EXPECT_EQ(migrated.snap.kind, SnapshotKind::kSchedule);
  EXPECT_EQ(migrated.snap.recursion.n, 40u);  // the schedule head
  EXPECT_EQ(migrated.stats.steps, zs.size());
  EXPECT_EQ(migrated.stats.batched_steps, zs.size());  // stayed batched
  const auto solo = testing::simulate_measurements(model, 70, 11);
  kalman::KalmanFilter<double> filter = cfg.filter.make_filter();
  std::vector<Vector<double>> sequential;
  for (const auto& z : solo) sequential.push_back(filter.step(z));
  expect_bit_identical(migrated.trajectory, sequential, "window 16 age 40");
  expect_migrates_bit_identical(cfg, options, zs, {17, 33, 69}, "window");
}

// A member behind its shared schedule's head: the snapshot carries the
// entries from its iteration up to the head, and a cold server resumes it
// from them.
TEST(ServeSnapshotTest, LaggingMemberOfASharedScheduleMigrates) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  const auto lead = testing::simulate_measurements(model, 20, 31);
  const auto zs = testing::simulate_measurements(model, 30, 32);
  constexpr std::size_t kCut = 12;

  DecodeServer a({/*workers=*/ServerOptions::kManual});
  const SessionId leader = a.open_session(cfg);
  const SessionId member = a.open_session(cfg);
  for (const auto& z : lead)
    ASSERT_EQ(a.submit(leader, z), PushResult::kAccepted);
  for (std::size_t n = 0; n < kCut; ++n)
    ASSERT_EQ(a.submit(member, zs[n]), PushResult::kAccepted);
  a.drain();
  SessionSnapshot snap, shipped;
  ASSERT_TRUE(a.checkpoint_session(member, &snap).ok());
  EXPECT_EQ(snap.kind, SnapshotKind::kSchedule);
  EXPECT_EQ(snap.iteration, kCut);
  EXPECT_EQ(snap.recursion.n, lead.size());  // the shared head
  EXPECT_EQ(snap.entries.size(), lead.size() - (kCut - 1));
  ASSERT_TRUE(decode(encode(snap), &shipped).ok());

  DecodeServer b({/*workers=*/ServerOptions::kManual});
  Status status;
  const SessionId idb = b.restore_session(cfg, shipped, &status);
  ASSERT_NE(idb, DecodeServer::kInvalidSession) << status.message();
  for (std::size_t n = kCut; n < zs.size(); ++n)
    ASSERT_EQ(b.submit(idb, zs[n]), PushResult::kAccepted);
  b.drain();
  EXPECT_EQ(b.session_stats(idb).batched_steps, zs.size());

  kalman::KalmanFilter<double> filter = cfg.filter.make_filter();
  std::vector<Vector<double>> sequential;
  for (const auto& z : zs) sequential.push_back(filter.step(z));
  expect_bit_identical(concat(a.trajectory(member), b.trajectory(idb)),
                       sequential, "lagging member");
}

// A warm restore joins the target's live group.  When that group's window
// then slides past the restored member before its next decode, it ejects
// to solo with P from its last consumed entry (carried by the snapshot),
// exactly like a member that never moved.
TEST(ServeSnapshotTest, WarmRestoreThatFallsOutOfTheWindowEjectsLikeAtHome) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  ServerOptions options;
  options.workers = ServerOptions::kManual;
  options.gain_window = 4;
  const auto lead = testing::simulate_measurements(model, 40, 41);
  const auto zs = testing::simulate_measurements(model, 20, 42);
  constexpr std::size_t kCut = 6;
  // The leader decodes 8 bins, then 20 more once the member is at kCut.
  auto feed = [&](DecodeServer& server, SessionId id, std::size_t from,
                  std::size_t to, const std::vector<Vector<double>>& bins) {
    for (std::size_t n = from; n < to; ++n)
      EXPECT_EQ(server.submit(id, bins[n]), PushResult::kAccepted);
    server.drain();
  };

  std::vector<Vector<double>> reference;
  {
    DecodeServer home(options);
    const SessionId leader = home.open_session(cfg);
    const SessionId member = home.open_session(cfg);
    feed(home, member, 0, 4, zs);
    feed(home, leader, 0, 8, lead);
    feed(home, member, 4, kCut, zs);
    feed(home, leader, 8, 28, lead);
    feed(home, member, kCut, zs.size(), zs);
    EXPECT_FALSE(home.session_stats(member).batched);  // window miss
    reference = home.trajectory(member);
  }

  DecodeServer a(options);
  const SessionId leader_a = a.open_session(cfg);
  const SessionId member = a.open_session(cfg);
  feed(a, member, 0, 4, zs);
  feed(a, leader_a, 0, 8, lead);
  feed(a, member, 4, kCut, zs);
  SessionSnapshot snap;
  ASSERT_TRUE(a.checkpoint_session(member, &snap).ok());
  ASSERT_EQ(snap.kind, SnapshotKind::kSchedule);

  DecodeServer b(options);
  const SessionId leader_b = b.open_session(cfg);
  feed(b, leader_b, 0, 8, lead);  // b's schedule covers the member's cut
  Status status;
  const SessionId idb = b.restore_session(cfg, snap, &status);
  ASSERT_NE(idb, DecodeServer::kInvalidSession) << status.message();
  EXPECT_TRUE(b.session_stats(idb).batched);
  feed(b, leader_b, 8, 28, lead);
  feed(b, idb, kCut, zs.size(), zs);
  EXPECT_FALSE(b.session_stats(idb).batched);
  expect_bit_identical(concat(a.trajectory(member), b.trajectory(idb)),
                       reference, "warm restore, then window miss");
}

// Restoring a long-lived session on a cold server seeds the schedule at the
// snapshot's head: it computes the entries the continued stream needs, not
// the session's past.  Counted, not timed.
TEST(ServeSnapshotTest, ColdRestoreOfAnOldSessionComputesNoHistory) {
  if constexpr (!telemetry::kCompiledIn) GTEST_SKIP();
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kAge = 500;
  const auto zs = testing::simulate_measurements(model, kAge + 1, 3);

  DecodeServer a({/*workers=*/ServerOptions::kManual});
  const SessionId ida = a.open_session(cfg);
  for (std::size_t n = 0; n < kAge; ++n)
    ASSERT_EQ(a.submit(ida, zs[n]), PushResult::kAccepted);
  a.drain();
  SessionSnapshot snap;
  ASSERT_TRUE(a.checkpoint_session(ida, &snap).ok());

  telemetry::Counter& inverts = telemetry::MetricsRegistry::global().counter(
      "kalmmind.kf.strategy_invert_total.interleaved");
  const std::uint64_t before = inverts.value();
  DecodeServer b({/*workers=*/ServerOptions::kManual});
  const SessionId idb = b.restore_session(cfg, snap);
  ASSERT_NE(idb, DecodeServer::kInvalidSession);
  ASSERT_EQ(b.submit(idb, zs[kAge]), PushResult::kAccepted);
  b.drain();
  const std::uint64_t computed = inverts.value() - before;
  telemetry::set_enabled(was_enabled);
  EXPECT_LE(computed, 2u) << "schedule entries computed by the restore";

  kalman::KalmanFilter<double> filter = cfg.filter.make_filter();
  for (std::size_t n = 0; n < kAge; ++n) filter.step(zs[n]);
  const auto& want = filter.step(zs[kAge]);
  const auto tail = b.trajectory(idb);
  ASSERT_EQ(tail.size(), 1u);
  for (std::size_t d = 0; d < want.size(); ++d) EXPECT_EQ(tail[0][d], want[d]);
}

// Measurements with dropouts (NaN bins) and railed channels, so the health
// monitor skips, gates and force-calculates across the cut.
std::vector<Vector<double>> faulty_stream(const kalman::KalmanModel<double>& m,
                                          std::size_t steps,
                                          std::uint64_t seed) {
  auto zs = testing::simulate_measurements(m, steps, seed);
  for (std::size_t n = 0; n < zs.size(); ++n) {
    if (n % 9 == 4) zs[n][0] = std::numeric_limits<double>::quiet_NaN();
    if (n % 7 == 3) zs[n][1] += 40.0;
  }
  return zs;
}

TEST(ServeSnapshotTest, HealthGatedSoloSessionMigrates) {
  const auto model = testing::small_model(6);
  SessionConfig cfg = interleaved_config(model);
  cfg.filter.options.health.enabled = true;
  cfg.filter.options.health.innovation_gate_sigma = 3.0;
  cfg.filter.options.health.newton_residual_limit = 1e-9;  // force calcs
  const auto zs = faulty_stream(model, 48, 5);
  for (const bool batching : {true, false}) {
    ServerOptions options;
    options.batching = batching;
    const Decoded migrated = run_migrated(cfg, options, zs, 20);
    EXPECT_EQ(migrated.snap.kind, SnapshotKind::kFilter);
    EXPECT_GT(migrated.snap.health.stats.gated_channels, 0u);
    expect_migrates_bit_identical(cfg, options, zs, {1, 4, 5, 20, 31},
                                  batching ? "gated, batching on"
                                           : "gated, batching off");
  }

  // A ladder that climbs every rung: zero symmetry tolerance faults every
  // step, so the monitor forces calculations, hardens the seed policy,
  // resets P and finally engages the SSKF fallback, which the serve layer
  // answers with quarantine and restart.  Every cut lands on another rung.
  SessionConfig ladder = cfg;
  ladder.filter.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  ladder.filter.options.health.covariance_symmetry_tol = 0.0;
  ladder.filter.options.health.newton_residual_limit = 1.0;
  ladder.self_healing.enabled = true;
  ladder.self_healing.max_restarts = 50;
  const auto clean = testing::simulate_measurements(model, 40, 8);
  const Decoded reference = run_uninterrupted(ladder, ServerOptions{}, clean);
  EXPECT_GT(reference.stats.restarts, 0u);
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 1; cut < 14; ++cut) cuts.push_back(cut);
  expect_migrates_bit_identical(ladder, ServerOptions{}, clean, cuts,
                                "ladder");
}

TEST(ServeSnapshotTest, DegradedSessionMigrates) {
  const auto model = testing::small_model(6);
  SessionConfig cfg = interleaved_config(model);
  cfg.deadline_s = 1e-12;  // every decode misses: deterministic degradation
  cfg.self_healing.enabled = true;
  cfg.self_healing.degrade_after_misses = 3;
  const auto zs = testing::simulate_measurements(model, 30, 13);
  for (const bool batching : {true, false}) {
    ServerOptions options;
    options.batching = batching;
    const Decoded reference = run_uninterrupted(cfg, options, zs);
    EXPECT_EQ(reference.stats.degradations, 1u);
    const Decoded migrated = run_migrated(cfg, options, zs, 10);
    EXPECT_EQ(migrated.snap.health_rung,
              std::uint8_t(SessionState::kDegraded));
    EXPECT_EQ(migrated.snap.kind, SnapshotKind::kFilter);
    expect_migrates_bit_identical(cfg, options, zs, {1, 2, 3, 4, 10, 29},
                                  batching ? "degraded, batching on"
                                           : "degraded, batching off");
  }
}

// Two same-config sessions on a tiny window: the second starts after the
// first has pushed the window past iteration 0, so its first decode misses
// and ejects it to a solo filter.  Cuts before the ejection (the snapshot
// captures the filter it will eject to) and after it.
TEST(ServeSnapshotTest, EjectedSessionMigrates) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  ServerOptions options;
  options.workers = ServerOptions::kManual;
  options.gain_window = 4;
  const auto lead = testing::simulate_measurements(model, 12, 21);
  const auto zs = testing::simulate_measurements(model, 20, 22);

  auto start = [&](DecodeServer& server) {
    const SessionId leader = server.open_session(cfg);
    const SessionId id = server.open_session(cfg);
    for (const auto& z : lead)
      EXPECT_EQ(server.submit(leader, z), PushResult::kAccepted);
    server.drain();
    return id;
  };
  std::vector<Vector<double>> reference;
  SessionStatsSnapshot reference_stats;
  {
    DecodeServer server(options);
    const SessionId id = start(server);
    for (const auto& z : zs)
      ASSERT_EQ(server.submit(id, z), PushResult::kAccepted);
    server.drain();
    reference = server.trajectory(id);
    reference_stats = server.session_stats(id);
    EXPECT_FALSE(reference_stats.batched);  // ejected
    EXPECT_EQ(reference_stats.batched_steps, 0u);
  }
  for (const std::size_t cut : {0u, 3u, 9u}) {
    DecodeServer a(options);
    const SessionId ida = start(a);
    for (std::size_t n = 0; n < cut; ++n)
      ASSERT_EQ(a.submit(ida, zs[n]), PushResult::kAccepted);
    a.drain();
    SessionSnapshot snap, shipped;
    ASSERT_TRUE(a.checkpoint_session(ida, &snap).ok());
    EXPECT_EQ(snap.kind, SnapshotKind::kFilter);
    ASSERT_TRUE(decode(encode(snap), &shipped).ok());
    DecodeServer b(options);
    Status status;
    const SessionId idb = b.restore_session(cfg, shipped, &status);
    ASSERT_NE(idb, DecodeServer::kInvalidSession) << status.message();
    for (std::size_t n = cut; n < zs.size(); ++n)
      ASSERT_EQ(b.submit(idb, zs[n]), PushResult::kAccepted);
    b.drain();
    const std::string what = "ejected cut " + std::to_string(cut);
    expect_bit_identical(concat(a.trajectory(ida), b.trajectory(idb)),
                         reference, what);
    expect_same_counters(b.session_stats(idb), reference_stats, what);
  }
}

TEST(ServeSnapshotTest, SessionCheckpointedMidQuarantineMigrates) {
  const auto model = testing::small_model(6);
  SessionConfig cfg = interleaved_config(model);
  cfg.self_healing.enabled = true;
  cfg.self_healing.backoff_initial_bins = 4;
  auto zs = testing::simulate_measurements(model, 30, 17);
  zs[6][2] = std::numeric_limits<double>::quiet_NaN();  // diverges: quarantine
  for (const bool batching : {true, false}) {
    ServerOptions options;
    options.batching = batching;
    const Decoded reference = run_uninterrupted(cfg, options, zs);
    EXPECT_EQ(reference.stats.restarts, 1u);
    EXPECT_EQ(reference.stats.quarantine_dropped, 4u);
    const Decoded mid = run_migrated(cfg, options, zs, 9);
    EXPECT_EQ(mid.snap.health_rung, std::uint8_t(SessionState::kQuarantined));
    EXPECT_EQ(mid.snap.backoff_remaining, 2u);
    std::vector<std::size_t> cuts;
    for (std::size_t cut = 5; cut < 14; ++cut) cuts.push_back(cut);
    expect_migrates_bit_identical(cfg, options, zs, cuts,
                                  batching ? "quarantine, batching on"
                                           : "quarantine, batching off");
  }
}

TEST(ServeSnapshotTest, CheckpointCapturesHealthGatedStreams) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = interleaved_config(model);
  // Health-gated filters take measurement-dependent gain paths: their
  // snapshot is the solo filter's own recursion and health state.
  cfg.filter.options.health.enabled = true;

  DecodeServer server({/*workers=*/ServerOptions::kManual});
  Status status;
  const SessionId id = server.open_session(cfg, &status);
  ASSERT_NE(id, DecodeServer::kInvalidSession) << status.message();
  const auto zs = testing::simulate_measurements(model, 5);
  for (const auto& z : zs)
    ASSERT_EQ(server.submit(id, z), PushResult::kAccepted);
  server.drain();
  SessionSnapshot snap;
  ASSERT_TRUE(server.checkpoint_session(id, &snap).ok());
  EXPECT_EQ(snap.kind, SnapshotKind::kFilter);
  EXPECT_EQ(snap.iteration, zs.size());
  EXPECT_EQ(snap.recursion.n, zs.size());
  EXPECT_EQ(snap.recursion.p.rows(), model.x_dim());
  EXPECT_EQ(snap.recursion.strategy.seed.rows(), model.z_dim());
  EXPECT_TRUE(snap.health.has_last_good);
  EXPECT_TRUE(snap.entries.empty());
}

// TSan target: a pool worker decodes a health-gated solo session while
// another thread checkpoints it.  The step guard must make every snapshot a
// state between two whole bins: each one, restored on a fresh server,
// continues bit-identical to the uninterrupted reference from its iteration.
TEST(ServeSnapshotTest, CheckpointWhileDecodingIsConsistent) {
  const auto model = testing::small_model(6);
  SessionConfig cfg = interleaved_config(model);
  cfg.filter.options.health.enabled = true;
  cfg.filter.options.health.innovation_gate_sigma = 3.0;
  constexpr std::size_t kBins = 160;
  const auto zs = faulty_stream(model, kBins, 29);
  const Decoded reference = run_uninterrupted(cfg, ServerOptions{}, zs);
  ASSERT_EQ(reference.trajectory.size(), kBins);

  ServerOptions pool;
  pool.workers = 2;
  pool.max_batch = 3;
  DecodeServer server(pool);
  const SessionId id = server.open_session(cfg);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> taken{0};
  std::vector<SessionSnapshot> snaps;
  std::thread checkpointer([&] {
    do {
      SessionSnapshot snap;
      EXPECT_TRUE(server.checkpoint_session(id, &snap).ok());
      if (snaps.empty() || snaps.back().iteration != snap.iteration)
        snaps.push_back(std::move(snap));
      taken.fetch_add(1);
      std::this_thread::yield();
    } while (!done.load());
  });
  for (std::size_t k = 0; k < zs.size(); ++k) {
    // Halfway, wait for the checkpointer so a loaded host cannot starve it
    // of every checkpoint while bins are in flight.
    if (k == zs.size() / 2)
      while (taken.load() == 0) std::this_thread::yield();
    ASSERT_EQ(server.submit(id, zs[k]), PushResult::kAccepted);
    std::this_thread::yield();
  }
  server.drain();
  done.store(true);
  checkpointer.join();
  expect_bit_identical(server.trajectory(id), reference.trajectory, "pool");

  ASSERT_FALSE(snaps.empty());
  for (const SessionSnapshot& snap : snaps) {
    const std::size_t n = std::size_t(snap.iteration);
    ASSERT_EQ(snap.steps, n);  // no quarantine: one decode per bin
    ASSERT_EQ(snap.kind, SnapshotKind::kFilter);
    ASSERT_EQ(snap.recursion.n, n);
    DecodeServer b({/*workers=*/ServerOptions::kManual});
    Status status;
    const SessionId idb = b.restore_session(cfg, snap, &status);
    ASSERT_NE(idb, DecodeServer::kInvalidSession) << status.message();
    for (std::size_t k = n; k < kBins; ++k)
      ASSERT_EQ(b.submit(idb, zs[k]), PushResult::kAccepted);
    b.drain();
    const std::vector<Vector<double>> want(
        reference.trajectory.begin() + std::ptrdiff_t(n),
        reference.trajectory.end());
    expect_bit_identical(b.trajectory(idb), want,
                         "snapshot at " + std::to_string(n));
  }
}


// --- restores that must be refused, and group choice on restore ------------

// Checkpoint a session of `cfg` after `bins` bins on a server with
// `options` (manual mode).
SessionSnapshot checkpoint_after(const SessionConfig& cfg,
                                 ServerOptions options,
                                 const std::vector<Vector<double>>& zs,
                                 std::size_t bins) {
  options.workers = ServerOptions::kManual;
  DecodeServer server(options);
  const SessionId id = server.open_session(cfg);
  for (std::size_t n = 0; n < bins; ++n)
    EXPECT_EQ(server.submit(id, zs[n]), PushResult::kAccepted);
  server.drain();
  SessionSnapshot snap;
  EXPECT_TRUE(server.checkpoint_session(id, &snap).ok());
  return snap;
}

// A frame that passes the checksum but lacks a matrix its flags or kind
// require: the wire codec or the restore refuses it.  Should a restore
// admit it anyway, the bins stepped here would reach the missing matrix
// inside a worker.
void expect_refused(const SessionConfig& cfg, const SessionSnapshot& snap,
                    const std::vector<Vector<double>>& zs,
                    const std::string& what) {
  for (const bool wire : {false, true}) {
    const std::string at = what + (wire ? " (wire)" : " (in process)");
    SessionSnapshot shipped = snap;
    if (wire && !decode(encode(snap), &shipped).ok()) continue;
    DecodeServer b({/*workers=*/ServerOptions::kManual});
    Status status;
    const SessionId id = b.restore_session(cfg, shipped, &status);
    EXPECT_EQ(id, DecodeServer::kInvalidSession) << at;
    if (id == DecodeServer::kInvalidSession) {
      EXPECT_FALSE(status.ok()) << at;
      continue;
    }
    for (std::size_t n = 0; n < 4; ++n) (void)b.submit(id, zs[n]);
    b.drain();
  }
}

TEST(ServeSnapshotTest, RestoreRefusesMissingRecursionMatrices) {
  const auto model = testing::small_model(6);
  const auto zs = testing::simulate_measurements(model, 24, 51);
  const SessionConfig interleaved = interleaved_config(model);
  SessionConfig taylor = interleaved;
  taylor.filter.strategy = kalman::StrategySpec{};
  taylor.filter.strategy.kind = kalman::StrategyKind::kTaylor;
  SessionConfig gated = interleaved;
  gated.filter.options.health.enabled = true;

  {
    SessionSnapshot snap = checkpoint_after(interleaved, {}, zs, 10);
    ASSERT_EQ(snap.kind, SnapshotKind::kSchedule);
    ASSERT_TRUE(snap.recursion.strategy.seed_ready);
    snap.recursion.strategy.seed = linalg::Matrix<double>();
    expect_refused(interleaved, snap, zs, "interleaved seed_ready, no seed");
  }
  {
    SessionSnapshot snap = checkpoint_after(taylor, {}, zs, 10);
    ASSERT_TRUE(snap.recursion.strategy.seed_ready);
    SessionSnapshot no_anchor = snap;
    no_anchor.recursion.strategy.anchor = linalg::Matrix<double>();
    expect_refused(taylor, no_anchor, zs, "taylor seed_ready, no anchor");
    snap.recursion.strategy.seed = linalg::Matrix<double>();
    expect_refused(taylor, snap, zs, "taylor seed_ready, no seed");
  }
  {
    const SessionSnapshot snap = checkpoint_after(interleaved, {}, zs, 10);
    ASSERT_FALSE(snap.entries.empty());
    for (const int which : {0, 1, 2}) {
      SessionSnapshot bad = snap;
      auto e = std::make_shared<kalman::GainSchedule::Entry>(*bad.entries[0]);
      if (which == 0) e->k = linalg::Matrix<double>();
      if (which == 1) e->p_after = linalg::Matrix<double>();
      bad.entries[0] = which == 2 ? nullptr : std::move(e);
      // A null entry cannot be encoded; it only exists in process.
      if (which == 2) {
        DecodeServer b({/*workers=*/ServerOptions::kManual});
        EXPECT_EQ(b.restore_session(interleaved, bad),
                  DecodeServer::kInvalidSession);
        continue;
      }
      expect_refused(interleaved, bad, zs,
                     which == 0 ? "entry without K" : "entry without P");
    }
  }
  {
    const SessionSnapshot snap = checkpoint_after(gated, {}, zs, 10);
    ASSERT_EQ(snap.kind, SnapshotKind::kFilter);
    SessionSnapshot bad = snap;
    bad.recursion.p = linalg::Matrix<double>();
    expect_refused(gated, bad, zs, "filter without P");
    bad = snap;
    bad.health.has_last_good = true;
    bad.health.last_good_x = Vector<double>();
    expect_refused(gated, bad, zs, "has_last_good, no estimate");
    bad = snap;
    bad.health.stats.fallback_active = true;
    bad.health.fallback_gain = linalg::Matrix<double>();
    expect_refused(gated, bad, zs, "fallback_active, no gain");
  }
}

// A cold restore decodes on a schedule seeded at its snapshot's head, in a
// group of its own: a fresh session of the same config opened afterwards
// still gets a schedule that starts at iteration 0 and is batched.
TEST(ServeSnapshotTest, FreshSessionAfterAColdRestoreIsBatched) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  const auto zs = testing::simulate_measurements(model, 40, 61);
  constexpr std::size_t kCut = 25;
  const SessionSnapshot snap = checkpoint_after(cfg, {}, zs, kCut);
  ASSERT_EQ(snap.kind, SnapshotKind::kSchedule);

  DecodeServer b({/*workers=*/ServerOptions::kManual});
  const SessionId restored = b.restore_session(cfg, snap);
  ASSERT_NE(restored, DecodeServer::kInvalidSession);
  for (std::size_t n = kCut; n < zs.size(); ++n)
    ASSERT_EQ(b.submit(restored, zs[n]), PushResult::kAccepted);
  b.drain();
  const SessionId fresh = b.open_session(cfg);
  const SessionId fresh2 = b.open_session(cfg);
  for (const auto& z : zs) {
    ASSERT_EQ(b.submit(fresh, z), PushResult::kAccepted);
    ASSERT_EQ(b.submit(fresh2, z), PushResult::kAccepted);
  }
  b.drain();

  kalman::KalmanFilter<double> filter = cfg.filter.make_filter();
  std::vector<Vector<double>> sequential;
  for (const auto& z : zs) sequential.push_back(filter.step(z));
  for (const SessionId id : {fresh, fresh2}) {
    const SessionStatsSnapshot st = b.session_stats(id);
    EXPECT_TRUE(st.batched);
    EXPECT_EQ(st.batched_steps, zs.size());
    expect_bit_identical(b.trajectory(id), sequential, "fresh");
  }
  EXPECT_EQ(b.session_stats(restored).batched_steps, zs.size());
  const std::vector<Vector<double>> tail(
      sequential.begin() + std::ptrdiff_t(kCut), sequential.end());
  expect_bit_identical(b.trajectory(restored), tail, "restored");
}

// ServerStats::batch_groups counts every group a session decodes in: the
// cold restore's seeded one-member group (never registered for fresh
// sessions to join) and the fresh sessions' group both decode here.
TEST(ServeSnapshotTest, SeededAndFreshGroupsAreBothCounted) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  const auto zs = testing::simulate_measurements(model, 30, 62);
  constexpr std::size_t kCut = 20;
  const SessionSnapshot snap = checkpoint_after(cfg, {}, zs, kCut);
  ASSERT_EQ(snap.kind, SnapshotKind::kSchedule);

  DecodeServer b({/*workers=*/ServerOptions::kManual});
  const SessionId restored = b.restore_session(cfg, snap);
  ASSERT_NE(restored, DecodeServer::kInvalidSession);
  const SessionId fresh = b.open_session(cfg);
  for (std::size_t n = kCut; n < zs.size(); ++n)
    ASSERT_EQ(b.submit(restored, zs[n]), PushResult::kAccepted);
  for (const auto& z : zs) ASSERT_EQ(b.submit(fresh, z), PushResult::kAccepted);
  b.drain();

  const ServerStats stats = b.stats();
  EXPECT_EQ(stats.batched_sessions, 2u);
  EXPECT_EQ(stats.batch_groups, 2u);
  EXPECT_EQ(b.session_stats(restored).batched_steps, zs.size());
  EXPECT_EQ(b.session_stats(fresh).batched_steps, zs.size());
}

// A restore ahead of the target's live group of the same config joins that
// group instead of decoding on a schedule of its own: the group computes
// the iterations between its head and the snapshot once, for every member,
// so no iteration is computed twice.  A checkpoint taken before the
// restored session's first decode there still resumes bit for bit.
TEST(ServeSnapshotTest, RestoreAheadOfALiveGroupJoinsIt) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  const auto zs = testing::simulate_measurements(model, 50, 71);
  const auto young = testing::simulate_measurements(model, 60, 72);
  constexpr std::size_t kCut = 30;
  constexpr std::size_t kYoungAge = 5;
  const SessionSnapshot snap = checkpoint_after(cfg, {}, zs, kCut);

  kalman::KalmanFilter<double> filter = cfg.filter.make_filter();
  std::vector<Vector<double>> sequential;
  for (const auto& z : zs) sequential.push_back(filter.step(z));
  const std::vector<Vector<double>> tail(
      sequential.begin() + std::ptrdiff_t(kCut), sequential.end());

  telemetry::Counter& inverts = telemetry::MetricsRegistry::global().counter(
      "kalmmind.kf.strategy_invert_total.interleaved");
  DecodeServer b({/*workers=*/ServerOptions::kManual});
  const SessionId y = b.open_session(cfg);
  for (std::size_t n = 0; n < kYoungAge; ++n)
    ASSERT_EQ(b.submit(y, young[n]), PushResult::kAccepted);
  b.drain();
  const std::uint64_t before = inverts.value();
  const SessionId restored = b.restore_session(cfg, snap);
  ASSERT_NE(restored, DecodeServer::kInvalidSession);
  EXPECT_TRUE(b.session_stats(restored).batched);

  // Checkpointed again before its first decode on b.
  SessionSnapshot again;
  ASSERT_TRUE(b.checkpoint_session(restored, &again).ok());
  EXPECT_EQ(again.kind, SnapshotKind::kSchedule);
  EXPECT_EQ(again.iteration, kCut);

  for (std::size_t n = kCut; n < zs.size(); ++n)
    ASSERT_EQ(b.submit(restored, zs[n]), PushResult::kAccepted);
  for (std::size_t n = kYoungAge; n < young.size(); ++n)
    ASSERT_EQ(b.submit(y, young[n]), PushResult::kAccepted);
  b.drain();
  const std::uint64_t computed = inverts.value() - before;
  telemetry::set_enabled(was_enabled);
  if constexpr (telemetry::kCompiledIn) {
    EXPECT_EQ(computed, young.size() - kYoungAge) << "schedule entries";
  }
  EXPECT_EQ(b.stats().batch_groups, 1u);
  EXPECT_EQ(b.session_stats(restored).batched_steps, zs.size());
  expect_bit_identical(b.trajectory(restored), tail, "joined");
  kalman::KalmanFilter<double> young_filter = cfg.filter.make_filter();
  std::vector<Vector<double>> young_sequential;
  for (const auto& z : young) young_sequential.push_back(young_filter.step(z));
  expect_bit_identical(b.trajectory(y), young_sequential, "young member");

  DecodeServer c({/*workers=*/ServerOptions::kManual});
  const SessionId id = c.restore_session(cfg, again);
  ASSERT_NE(id, DecodeServer::kInvalidSession);
  for (std::size_t n = kCut; n < zs.size(); ++n)
    ASSERT_EQ(c.submit(id, zs[n]), PushResult::kAccepted);
  c.drain();
  expect_bit_identical(c.trajectory(id), tail, "re-checkpointed");
}

}  // namespace
}  // namespace kalmmind::serve
