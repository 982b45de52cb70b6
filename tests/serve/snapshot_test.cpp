// SessionSnapshot: the versioned, self-framing binary codec plus
// DecodeServer checkpoint/restore.  Round-trip fidelity, a corrupted-frame
// corpus (every malformed frame must come back as a Status, never UB), and
// the tentpole property: a checkpointed session restored on a fresh server
// continues bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "serve/serve.hpp"
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

  for (const auto& c : corpus) {
    const Status s = decode(c.frame, &out);
    EXPECT_FALSE(s.ok()) << c.name;
    EXPECT_NE(s.message(), std::string()) << c.name;
  }
}

// Any single corrupted byte anywhere in the frame is caught (the trailing
// FNV-1a checksum covers header and payload; flips inside the checksum
// itself mismatch trivially).
TEST(ServeSnapshotTest, EverySingleByteFlipIsDetected) {
  const std::vector<std::uint8_t> good = encode(sample_snapshot());
  SessionSnapshot out;
  for (std::size_t i = 0; i < good.size(); ++i) {
    auto f = good;
    f[i] ^= 0x40;
    EXPECT_FALSE(decode(f, &out).ok()) << "byte " << i;
  }
}

TEST(ServeSnapshotTest, DebugJsonNamesTheDurableFields) {
  const std::string json = to_debug_json(sample_snapshot());
  for (const char* key :
       {"\"config_fingerprint\"", "\"iteration\"", "\"x\"",
        "\"health_rung\"", "\"steps\"", "\"discarded\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
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

  // A server without batching cannot replay bit-exact: refused, not
  // silently degraded.
  ServerOptions nobatch_options;
  nobatch_options.workers = ServerOptions::kManual;
  nobatch_options.batching = false;
  DecodeServer nobatch(nobatch_options);
  EXPECT_EQ(nobatch.restore_session(cfg, snap, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // And the happy path still works on the same server instance.
  EXPECT_NE(b.restore_session(cfg, snap, &status),
            DecodeServer::kInvalidSession)
      << status.message();
}

TEST(ServeSnapshotTest, CheckpointRefusesNonReplayableStreams) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = interleaved_config(model);
  // Health-gated filters take measurement-dependent gain paths: their
  // trajectory is not a pure function of (config, iteration, x).
  cfg.filter.options.health.enabled = true;

  DecodeServer server({/*workers=*/ServerOptions::kManual});
  Status status;
  const SessionId id = server.open_session(cfg, &status);
  ASSERT_NE(id, DecodeServer::kInvalidSession) << status.message();
  SessionSnapshot snap;
  EXPECT_FALSE(server.checkpoint_session(id, &snap).ok());
}

}  // namespace
}  // namespace kalmmind::serve
