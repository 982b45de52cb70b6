// Versioned, self-framing session snapshots — the durable state of a live
// decode stream, and the failover currency of the sharded cluster
// (serve/cluster.hpp).
//
// The paper's measurement-independence of `compute K` (PAPER.md pillar 1)
// means a session is fully described by its covariance recursion's state
// (n, P, the inverse strategy's seed and recovery flags — kalman::
// RecursionState) plus its estimate x, health rung and stat carryovers.  A
// snapshot carries exactly that, so a restore seeds the recursion at n
// instead of replaying it from iteration 0: O(1) recursion steps at any
// session age, and the restored trajectory continues bit-identical to the
// uninterrupted run (tests/serve/snapshot_test.cpp).  Two kinds:
//
//   kSchedule  a batched session: `recursion` is its GainSchedule's head
//              (at n >= iteration) and `entries` the K/P entries of
//              iterations [iteration-1, n) (from 0 when iteration == 0),
//              shared with the schedule, not copied.  Restore joins the
//              live group of the config or seeds a schedule at the head.
//   kFilter    a solo session (health-gated, degraded, ejected, or on a
//              server without batching): `recursion` and `health` are its
//              own filter's.  Restore builds the solo filter directly.
//
// Wire format (little-endian, self-framing so a stream reader can split
// frames without parsing the payload; the future UDP transport PR reuses
// this framing for measurement ingestion):
//
//   offset 0   char[4]  magic "KMSN"
//          4   u16      version (kSnapshotVersion = 2)
//          6   u16      flags (0; reserved)
//          8   u32      payload_len (bytes that follow the 12-byte header)
//         12   payload
//   12+len     u64      FNV-1a checksum over bytes [0, 12+payload_len)
//
// The payload is snapshot_detail::transfer(), field by field: words are
// u64 (doubles by bit pattern; enums and flags range-checked), and
//   vec = u32 size, then size f64;
//   mat = u32 rows, u32 cols, then rows*cols f64 row-major, exactly its
//         expected shape — entry P x_dim^2 and entry K x_dim x z_dim, and
//         (or empty) P x_dim^2, the seed and anchor z_dim^2 and the
//         fallback gain x_dim x z_dim — which decode() checks before it
//         allocates.  A restore rejects an empty P or a seed its flags
//         require but the frame lacks.
// Order: fingerprint, iteration, vec x, the rung and kind words,
// backoff and the SessionCounters words, recorded_states (the v1 payload
// ends here, so x_dim keeps its v1 offset), z_dim, the deadline streaks,
// then the recursion state (n, P, the strategy's three flags, seed,
// anchor), the health state (fault bits, counts, the seven recovery
// counts, rung, flags, vec last_good_x, fallback gain) and the u32-counted
// schedule entries (path, Newton iterations, K, P).
//
// Size at the paper's motor dims (x=6, z=164): the seed is 164^2 doubles,
// ~215 KB, and dominates; P adds 288 B and each schedule entry ~8.2 KB
// (K is 6x164).  A batched session that is the only member of its
// schedule carries one entry, so either kind is ~216-224 KB (a v1 frame
// was ~200 B).
//
// decode() is the trust boundary: every malformed frame — short, bad
// magic, a v1 or unknown version, truncated or oversized payload, checksum
// mismatch, a matrix whose shape disagrees with x_dim/z_dim, payload
// under/overrun — is rejected with a Status, never UB.  Status carries
// string literals only, so rejection is allocation-free.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fingerprint.hpp"
#include "common/status.hpp"
#include "kalman/gain_schedule.hpp"
#include "kalman/health.hpp"
#include "kalman/recursion.hpp"
#include "serve/stats.hpp"

namespace kalmmind::serve {

inline constexpr std::uint16_t kSnapshotVersion = 2;
inline constexpr char kSnapshotMagic[4] = {'K', 'M', 'S', 'N'};
inline constexpr std::size_t kSnapshotHeaderBytes = 12;
inline constexpr std::size_t kSnapshotChecksumBytes = 8;
// Sanity bound on the state dimension (paper dims are x=6; nothing in the
// repo exceeds a few thousand).  Guards the decoder against allocating
// gigabytes for a corrupted length field.
inline constexpr std::size_t kSnapshotMaxStateDim = 1u << 20;
// Same guard for the measurement dimension.  It also keeps every element
// count overflow-free in 64 bits: z^2 <= 2^32, x^2 <= 2^40, x*z <= 2^36.
inline constexpr std::size_t kSnapshotMaxMeasurementDim = 1u << 16;

// Where a snapshot's recursion state came from (see the header comment).
enum class SnapshotKind : std::uint8_t {
  kSchedule = 0,  // batched: the gain schedule's head + resident entries
  kFilter = 1,    // solo: the session's own filter (+ its health monitor)
};

// The durable state of one session.  `iteration` is the gain-schedule
// iteration the *next* decode runs at; `x` is the estimate after decode
// iteration-1 (x0 when iteration == 0).  The counters (SessionCounters) are
// lifetime carryovers: a restored session resumes them so cluster
// accounting stays closed across migrations.
struct SessionSnapshot : SessionCounters {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t iteration = 0;
  std::vector<double> x;

  // Health rung (SessionState) + quarantine backoff at capture time.
  std::uint8_t health_rung = 0;
  std::uint64_t backoff_remaining = 0;

  // Trajectory entries recorded at capture time — the owner (cluster) uses
  // this to copy a consistent prefix for post-failover concatenation.
  std::uint64_t recorded_states = 0;

  // --- v2: the recursion state (see the header comment) -------------------
  SnapshotKind kind = SnapshotKind::kSchedule;
  std::uint64_t z_dim = 0;
  kalman::RecursionState<double> recursion;
  kalman::HealthState<double> health;  // kFilter only
  // kSchedule only: entries of iterations [recursion.n - entries.size(),
  // recursion.n), starting at iteration-1 (0 when iteration == 0).
  std::vector<std::shared_ptr<const kalman::GainSchedule::Entry>> entries;
  // Deadline ladder streaks that decide the next degrade/recover.  (A
  // kDegraded rung means the solo filter runs the constant steady-state
  // gain; recursion.strategy.seed is that constant inverse.)
  std::uint64_t consecutive_misses = 0;
  std::uint64_t consecutive_hits = 0;
};

namespace snapshot_detail {

using Entries = std::vector<std::shared_ptr<const kalman::GainSchedule::Entry>>;

inline std::uint64_t checksum(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = FingerprintHasher::kOffset;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= FingerprintHasher::kPrime;
  }
  return h;
}

template <typename T>
std::uint64_t bits_of(const T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<std::uint64_t>(double(v));
  } else {
    return std::uint64_t(v);
  }
}

// The v2 payload, described once.  encode() runs it with a Writer, decode()
// with a Reader that checks every count and shape before it allocates, and
// to_debug_json() with a JsonWriter — so the debug view names every
// durable field by construction.  Words are u64, counts u32.
template <typename Io, typename Snap>
void transfer(Io& io, Snap& s) {
  io.word("config_fingerprint", s.config_fingerprint);
  io.word("iteration", s.iteration);
  io.vector("x", s.x, kSnapshotMaxStateDim, /*exact=*/false);
  const std::size_t x = s.x.size();
  io.word("health_rung", s.health_rung, std::size_t(SessionState::kFailed));
  io.word("kind", s.kind, std::size_t(SnapshotKind::kFilter));
  io.word("backoff_remaining", s.backoff_remaining);
  io.word("steps", s.steps);
  io.word("batched_steps", s.batched_steps);
  io.word("deadline_misses", s.deadline_misses);
  io.word("invalid_steps", s.invalid_steps);
  io.word("restarts", s.restarts);
  io.word("degradations", s.degradations);
  io.word("quarantine_dropped", s.quarantine_dropped);
  io.word("rejected", s.rejected);
  io.word("dropped", s.dropped);
  io.word("discarded", s.discarded);
  io.word("sum_step_s", s.sum_step_s);
  io.word("worst_step_s", s.worst_step_s);
  io.word("recorded_states", s.recorded_states);  // v1 payload ends here
  io.word("z_dim", s.z_dim, kSnapshotMaxMeasurementDim);
  const std::size_t z = std::size_t(s.z_dim);
  io.word("consecutive_misses", s.consecutive_misses);
  io.word("consecutive_hits", s.consecutive_hits);
  auto& rec = s.recursion;
  io.word("n", rec.n);
  io.matrix("p", rec.p, x, x, /*optional=*/true);
  io.word("seed_ready", rec.strategy.seed_ready, 1);
  io.word("force_calculation", rec.strategy.force_calculation, 1);
  io.word("hardened", rec.strategy.hardened, 1);
  io.matrix("seed", rec.strategy.seed, z, z, /*optional=*/true);
  io.matrix("anchor", rec.strategy.anchor, z, z, /*optional=*/true);
  auto& health = s.health;
  io.word("last_faults", health.stats.last_faults);
  io.word("faulty_steps", health.stats.faulty_steps);
  io.word("gated_channels", health.stats.gated_channels);
  for (std::size_t i = 0; i < kalman::kRecoveryActionCount; ++i)
    io.word(kalman::to_string(kalman::RecoveryAction(i)),
            health.stats.recoveries[i]);
  io.word("escalation_level", health.stats.escalation_level);
  io.word("fallback_active", health.stats.fallback_active, 1);
  io.word("consecutive_healthy", health.consecutive_healthy);
  io.word("has_last_good", health.has_last_good, 1);
  io.vector("last_good_x", health.last_good_x, x, /*exact=*/true);
  io.matrix("fallback_gain", health.fallback_gain, x, z, /*optional=*/true);
  io.entries("entries", s.entries, x, z);
}

// One schedule entry of transfer()'s entry list.
template <typename Io, typename Entry>
void transfer_entry(Io& io, Entry& e, std::size_t x, std::size_t z) {
  io.word("path", e.event.path, std::size_t(kalman::InversePath::kNone));
  io.word("newton_iterations", e.event.newton_iterations);
  io.matrix("k", e.k, x, z, /*optional=*/false);
  io.matrix("p_after", e.p_after, x, x, /*optional=*/false);
}

// Appends the payload, little-endian.
struct Writer {
  std::vector<std::uint8_t>& out;

  void put(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
  }
  template <typename T>
  void word(const char*, const T& v, std::size_t = 0) {
    put(bits_of(v), 8);
  }
  template <typename V>
  void vector(const char*, const V& v, std::size_t, bool) {
    put(v.size(), 4);
    for (std::size_t i = 0; i < v.size(); ++i) put(bits_of(v[i]), 8);
  }
  void matrix(const char*, const linalg::Matrix<double>& m, std::size_t,
              std::size_t, bool) {
    put(m.rows(), 4);
    put(m.cols(), 4);
    for (std::size_t i = 0; i < m.size(); ++i) put(bits_of(m.data()[i]), 8);
  }
  void entries(const char*, const Entries& es, std::size_t x, std::size_t z) {
    put(es.size(), 4);
    for (const auto& e : es) transfer_entry(*this, *e, x, z);
  }
};

// Bounded little-endian reader over [data, len).  The first failure sets
// `error` and poisons every later read (which then returns zeros and
// allocates nothing), so the caller checks once at the end.
struct Reader {
  const std::uint8_t* data;
  std::size_t len;
  std::size_t pos = 0;
  const char* error = nullptr;

  bool fail(const char* why) {
    if (!error) error = why;
    return false;
  }
  std::uint64_t get(std::size_t bytes) {
    if (error || len - pos < bytes) return fail("snapshot: truncated payload");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i)
      v |= std::uint64_t(data[pos + i]) << (8 * i);
    pos += bytes;
    return v;
  }
  // Reads `n` doubles into `dst` once the frame is known to hold them, so
  // a corrupted count never reaches the allocator.
  template <typename Resize>
  void doubles(std::uint64_t n, Resize&& resize) {
    if (error || (len - pos) / 8 < n)
      return void(fail("snapshot: truncated payload"));
    double* dst = resize();
    for (std::uint64_t i = 0; i < n; ++i)
      dst[i] = std::bit_cast<double>(get(8));
  }
  // `max` (when non-zero) bounds the value: a dimension cap, the last
  // enumerator, or 1 for a flag.
  template <typename T>
  void word(const char*, T& v, std::size_t max = 0) {
    const std::uint64_t b = get(8);
    if (max != 0 && b > max) {
      fail("snapshot: field out of range (dimension, rung, kind or flag)");
    } else if constexpr (std::is_floating_point_v<T>) {
      v = std::bit_cast<double>(b);
    } else {
      v = T(b);
    }
  }
  // `limit` bounds the size, or is the only non-zero size when `exact`.
  template <typename V>
  void vector(const char*, V& v, std::size_t limit, bool exact) {
    const std::uint64_t n = get(4);
    if (exact ? (n != 0 && n != limit) : n > limit)
      return void(fail("snapshot: vector size out of range"));
    doubles(n, [&] {
      v.resize(std::size_t(n));
      return v.data();
    });
  }
  // Exactly rows x cols, or empty when `optional` (the product fits in 64
  // bits).
  void matrix(const char*, linalg::Matrix<double>& m, std::size_t rows,
              std::size_t cols, bool optional) {
    const std::uint64_t r = get(4);
    const std::uint64_t c = get(4);
    if (!(optional && r == 0 && c == 0) && (r != rows || c != cols))
      return void(fail("snapshot: matrix shape disagrees with x_dim/z_dim"));
    doubles(r * c, [&] {
      m.resize_for_overwrite(std::size_t(r), std::size_t(c));
      return m.data();
    });
  }
  void entries(const char*, Entries& es, std::size_t x, std::size_t z) {
    const std::uint64_t n = get(4);
    // An entry takes at least two words and two matrix headers.
    if (n > (len - pos) / 32)
      return void(fail("snapshot: schedule entry count out of range"));
    for (std::uint64_t i = 0; i < n && !error; ++i) {
      auto e = std::make_shared<kalman::GainSchedule::Entry>();
      transfer_entry(*this, *e, x, z);
      es.push_back(std::move(e));
    }
  }
};

// Flat single-line JSON; matrices appear as their shape, entries as a count.
struct JsonWriter {
  std::string out = "{";

  void key(const char* name) {
    out += out.size() > 1 ? ",\"" : "\"";
    out += name;
    out += "\":";
  }
  void number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  }
  template <typename T>
  void word(const char* name, const T& v, std::size_t = 0) {
    key(name);
    if constexpr (std::is_floating_point_v<T>) {
      number(v);
    } else {
      out += std::to_string(bits_of(v));
    }
  }
  template <typename V>
  void vector(const char* name, const V& v, std::size_t, bool) {
    key(name);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += i ? ',' : '[';
      number(v[i]);
    }
    out += v.size() ? "]" : "[]";
  }
  void matrix(const char* name, const linalg::Matrix<double>& m, std::size_t,
              std::size_t, bool) {
    key(name);
    out += '"' + std::to_string(m.rows()) + 'x' + std::to_string(m.cols());
    out += '"';
  }
  void entries(const char* name, const Entries& es, std::size_t,
               std::size_t) {
    word(name, es.size());
  }
};

}  // namespace snapshot_detail

// Serialize to one self-framing binary frame.
inline std::vector<std::uint8_t> encode(const SessionSnapshot& s) {
  std::vector<std::uint8_t> out;
  snapshot_detail::Writer w{out};
  for (char c : kSnapshotMagic) out.push_back(std::uint8_t(c));
  w.put(kSnapshotVersion, 2);
  w.put(0, 2);  // flags
  w.put(0, 4);  // payload_len, patched below
  snapshot_detail::transfer(w, s);
  const std::uint64_t payload_len = out.size() - kSnapshotHeaderBytes;
  for (int i = 0; i < 4; ++i) out[8 + i] = std::uint8_t(payload_len >> (8 * i));
  w.put(snapshot_detail::checksum(out.data(), out.size()), 8);
  return out;
}

// Parse one frame.  On any malformation returns a non-ok Status and leaves
// `out` untouched; never UB regardless of input bytes.
[[nodiscard]] inline Status decode(const std::uint8_t* data,
                                   std::size_t len,
                     SessionSnapshot* out) {
  namespace d = snapshot_detail;
  if (data == nullptr || out == nullptr)
    return Status::Invalid("snapshot: null frame or output");
  if (len < kSnapshotHeaderBytes + kSnapshotChecksumBytes)
    return Status::Invalid("snapshot: frame shorter than header");
  if (std::memcmp(data, kSnapshotMagic, 4) != 0)
    return Status::Invalid("snapshot: bad magic");
  d::Reader header{data, len, 4};
  const std::uint64_t version = header.get(2);
  header.get(2);  // flags, reserved
  const std::uint64_t payload_len = header.get(4);
  if (version == 1)
    return Status::Invalid(
        "snapshot: version 1 frame (no recursion state) is no longer "
        "supported; re-checkpoint the session");
  if (version != kSnapshotVersion)
    return Status::Invalid("snapshot: unsupported version");
  if (payload_len != len - kSnapshotHeaderBytes - kSnapshotChecksumBytes)
    return Status::Invalid("snapshot: payload length disagrees with frame");
  const std::size_t body = kSnapshotHeaderBytes + std::size_t(payload_len);
  d::Reader tail{data, len, body};
  if (tail.get(8) != d::checksum(data, body))
    return Status::Invalid("snapshot: checksum mismatch");

  d::Reader r{data, body, kSnapshotHeaderBytes};
  SessionSnapshot s;
  d::transfer(r, s);
  if (!r.error && r.pos != body) r.fail("snapshot: trailing bytes in payload");
  if (r.error) return Status::Invalid(r.error);
  *out = std::move(s);
  return Status::Ok();
}

[[nodiscard]] inline Status decode(const std::vector<std::uint8_t>& frame,
                     SessionSnapshot* out) {
  return decode(frame.data(), frame.size(), out);
}

// Human-readable mirror of one snapshot (debugging / CLI), single line.
inline std::string to_debug_json(const SessionSnapshot& s) {
  snapshot_detail::JsonWriter json;
  snapshot_detail::transfer(json, s);
  return json.out + "}";
}

}  // namespace kalmmind::serve
