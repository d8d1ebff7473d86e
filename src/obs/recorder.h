// Flight recorder: always-on, fixed-size in-memory telemetry ring.
//
// The sinks in obs/sink.h are write-ahead: they stream every event to a
// file chosen at startup. The flight recorder is the complement — a
// bounded ring of the *most recent* events, kept in memory at all times,
// so that when a run crashes, a CONGEST/read-k violation fires, or a
// certification fails, the events leading up to the failure can be
// dumped after the fact. Events are stored pre-encoded in the ARBMISEV
// binary record layout by the encoder BinaryWriter also calls
// (obs/sink.h), bounded by BYTES rather than event count,
// evicting oldest-first; a dump is therefore a standard binary event
// artifact (magic, manifest record, event records, plus a trailing
// kRecorderDump event describing the ring state) that
// tools/trace_inspect.py validates, summarizes, and diffs like any other
// event file.
//
// Determinism contract: recording preserves emission order and encodes
// logical time only, so after identical runs the ring's record bytes
// (ring_bytes()) are byte-identical across executor thread counts and
// inbox implementations — tests/test_parallel_equivalence.cpp enforces
// this alongside the sink-stream byte-identity.
//
// Crash path: dump_to_fd() is async-signal-safe best effort — it takes
// no lock, allocates nothing, and writes only via write(2) to an fd the
// host opened ahead of time (tools/arbmis_serve.cpp --crash-dump). If the
// fatal signal interrupted record() mid-update the tail of the dump may
// be truncated; trace_inspect.py still decodes the intact prefix.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/events.h"
#include "obs/manifest.h"

namespace arbmis::obs {

/// Per-event text payloads are truncated to this many bytes before
/// encoding, so one pathological log line cannot flush the whole ring
/// (and so record() can encode into a fixed stack buffer).
inline constexpr std::size_t kMaxRecorderText = 4096;

struct RecorderConfig {
  /// Ring capacity in encoded-record bytes (allocated once, up front).
  std::size_t max_bytes = std::size_t{1} << 20;
  /// Category filter, mirroring SinkConfig. exec defaults to off for the
  /// same reason as sinks: lane events vary by thread count and would
  /// break the ring's byte-identity across executors.
  bool semantic = true;
  bool log_text = true;
  bool exec = false;
  /// Auto-dump target for the failure seams (ModelChecker violations,
  /// resilient_mis certification failure). Empty disables auto dumps.
  std::string dump_path;
};

struct RecorderStats {
  std::uint64_t recorded_events = 0;   ///< accepted by the filter, ever
  std::uint64_t buffered_events = 0;   ///< currently held in the ring
  std::uint64_t buffered_bytes = 0;    ///< encoded bytes currently held
  std::uint64_t evicted_events = 0;    ///< displaced oldest-first
  std::uint64_t evicted_bytes = 0;
  std::uint64_t dropped_oversized = 0; ///< single record > capacity
  std::uint64_t dumps = 0;             ///< dump()/auto_dump() successes
};

class FlightRecorder {
 public:
  explicit FlightRecorder(RecorderConfig config = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Filter, encode, and append one event, evicting oldest records until
  /// it fits. Thread-safe; allocation-free (fixed stack encode buffer).
  void record(const Event& e);

  /// Replaces the pre-rendered stream header every dump re-emits. The
  /// constructor installs make_manifest("flight_recorder") so a dump is
  /// always a valid artifact even when the host never attaches one.
  void attach_manifest(const Manifest& m);

  const RecorderConfig& config() const noexcept { return config_; }
  RecorderStats stats() const;

  /// Full ARBMISEV artifact: header + manifest record, the ring's records
  /// oldest-first, then one kRecorderDump trailer event carrying `reason`
  /// and the ring state.
  std::string snapshot(std::string_view reason) const;

  /// The ring's concatenated event-record bytes, oldest-first, with no
  /// header or trailer — the unit of cross-executor byte comparison.
  std::string ring_bytes() const;

  /// snapshot() written to `path`. Returns false on I/O failure.
  bool dump(const std::string& path, std::string_view reason);

  /// dump() to config().dump_path; no-op returning false when unset.
  bool auto_dump(std::string_view reason);

  /// Async-signal-safe best-effort dump to an already-open fd: header,
  /// then every intact ring record, then the kRecorderDump trailer. No
  /// locking or allocation; see the file comment for the caveat.
  void dump_to_fd(int fd, std::string_view reason) const noexcept;

  /// Drops all buffered records (cumulative counters are kept).
  void clear();

 private:
  bool accepts(EventKind kind) const noexcept;
  /// Under mu_: frees >= needed bytes by evicting oldest records.
  void evict_for(std::size_t needed);
  /// Under mu_ (or lock-free from the signal path): byte at ring offset.
  unsigned char at(std::size_t logical) const noexcept {
    return buf_[(head_ + logical) % buf_.size()];
  }
  /// The little-endian 4-byte record length prefix at ring offset `pos`.
  std::uint32_t length_at(std::size_t pos) const noexcept {
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(at(pos + i)) << (8 * i);
    }
    return len;
  }
  /// Under mu_: appends every intact ring record, oldest-first.
  void append_ring(std::string& out) const;

  RecorderConfig config_;
  mutable std::mutex mu_;
  std::vector<unsigned char> buf_;  ///< flat ring storage
  std::size_t head_ = 0;            ///< offset of the oldest byte
  std::size_t size_ = 0;            ///< bytes in use
  RecorderStats stats_;
  std::string header_bytes_;        ///< magic + version + manifest record
};

/// Process-wide recorder, or nullptr when detached. Independent of the
/// sink: obs::emit() forwards every event to both.
FlightRecorder* recorder() noexcept;

/// RAII attachment mirroring ScopedSink. Non-owning; restores the
/// previous recorder on destruction.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(FlightRecorder* r);
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  FlightRecorder* prev_;
};

/// Failure-seam helper: auto-dump the attached recorder, if any. Returns
/// true when a dump file was actually written.
bool recorder_auto_dump(std::string_view reason);

}  // namespace arbmis::obs
