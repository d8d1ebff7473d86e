// Event sinks: where telemetry events go.
//
// A sink is attached process-wide with ScopedSink (mirroring
// sim::ScopedNumThreads / ScopedInboxImpl); instrumentation sites check
// `obs::sink() != nullptr` — a single relaxed atomic load — so a build
// with no sink attached pays one predictable branch per serial
// instrumentation point and nothing per message or per node.
//
// Filtering happens in the base class before the write virtual: a
// SinkConfig selects event categories (executor-internal kinds are off by
// default to keep streams byte-identical across thread counts) and can
// subsample per-round kinds (kRound / kFaultRound / kLaneMerge) to every
// Nth round for long runs. Run-boundary and phase events always pass.
//
// Writers re-emit the attached Manifest at the head of every file,
// including each file produced by rotate(), so any artifact on disk is
// self-describing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/events.h"
#include "obs/manifest.h"
#include "util/log.h"

namespace arbmis::obs {

struct SinkConfig {
  bool semantic = true;   ///< kSemantic kinds (deterministic run facts)
  bool log_text = true;   ///< kLog (routed util/log lines)
  bool exec = false;      ///< kExec kinds; vary by thread count
  /// Keep per-round kinds only for rounds where round % round_sample == 0
  /// (0 is treated as 1, i.e. keep everything).
  std::uint32_t round_sample = 1;

  bool accepts_category(EventCategory category) const noexcept;
};

/// True for kinds emitted once per round barrier — the only kinds subject
/// to round sampling.
bool is_per_round(EventKind kind) noexcept;

/// The ARBMISEV v1 binary layout, encoded only here: BinaryWriter and the
/// flight recorder (obs/recorder.h) both call these functions.
///   artifact := kBinaryMagic, then records
///   manifest := 0x00, varint length, manifest JSON
///   event    := 0x01, kind byte, varint round, varint num_values,
///               num_values varints, varint text length, text
/// Varints are unsigned LEB128. The encoders write into the caller's
/// buffer, never allocate, and stop before the text or JSON, which the
/// caller appends: the recorder truncates text, the file writer does not.
inline constexpr std::string_view kBinaryMagic{"ARBMISEV\x01", 9};
/// Worst-case size of any record before its text or JSON.
inline constexpr std::size_t kMaxRecordHeadBytes =
    2 + (kMaxEventValues + 3) * 10;
/// Writes event record `e` through the length of its `text_len`-byte text.
std::size_t encode_event_head(const Event& e, std::size_t text_len,
                              unsigned char* out) noexcept;
/// Writes a manifest record through the length of its JSON.
std::size_t encode_manifest_head(std::size_t json_len,
                                 unsigned char* out) noexcept;

/// Base sink: thread-safe filtered emission. Derived classes implement
/// write()/write_manifest(), which are always called under the sink lock.
class EventSink {
 public:
  explicit EventSink(SinkConfig config = {}) : config_(config) {}
  virtual ~EventSink() = default;
  EventSink(const EventSink&) = delete;
  EventSink& operator=(const EventSink&) = delete;

  /// Filter by config, then hand to the writer. Safe from any thread.
  void emit(const Event& e);

  /// Attach the run manifest; written immediately as the file header and
  /// re-written by rotating writers on each new file.
  void attach_manifest(const Manifest& m);

  const SinkConfig& config() const noexcept { return config_; }

  virtual void flush() {}

 protected:
  virtual void write(const Event& e) = 0;
  virtual void write_manifest(const Manifest& m) { (void)m; }

  const std::optional<Manifest>& manifest() const noexcept {
    return manifest_;
  }
  std::mutex& mutex() noexcept { return mu_; }

 private:
  SinkConfig config_;
  std::optional<Manifest> manifest_;
  std::mutex mu_;
};

/// One JSON object per line; first line is the manifest.
class JsonlWriter : public EventSink {
 public:
  explicit JsonlWriter(std::string path, SinkConfig config = {});
  ~JsonlWriter() override;

  /// Close the current file and continue into `new_path`, re-emitting the
  /// manifest header so the new file stands alone.
  void rotate(std::string new_path);

  const std::string& path() const noexcept { return path_; }
  void flush() override;

 protected:
  void write(const Event& e) override;
  void write_manifest(const Manifest& m) override;

 private:
  std::string path_;
  std::ofstream out_;
};

/// Compact binary stream in the ARBMISEV v1 layout above: the magic, then
/// one manifest record per attach_manifest() and one event record per
/// event, text unbounded. Allocation-free per event.
class BinaryWriter : public EventSink {
 public:
  explicit BinaryWriter(std::string path, SinkConfig config = {});
  ~BinaryWriter() override;

  const std::string& path() const noexcept { return path_; }
  void flush() override;

 protected:
  void write(const Event& e) override;
  void write_manifest(const Manifest& m) override;

 private:
  std::string path_;
  std::ofstream out_;
};

/// In-memory capture for tests and the differential harness.
class VectorSink : public EventSink {
 public:
  explicit VectorSink(SinkConfig config = {}) : EventSink(config) {}

  std::vector<OwnedEvent> events() const;
  std::size_t size() const;

  /// The captured stream rendered exactly as JsonlWriter would write it
  /// (manifest excluded) — the unit of comparison for event-stream
  /// equality in tests/test_parallel_equivalence.cpp.
  std::string to_jsonl() const;

 protected:
  void write(const Event& e) override;

 private:
  mutable std::mutex events_mu_;
  std::vector<OwnedEvent> events_;
};

/// Process-wide sink, or nullptr when telemetry is detached (the common,
/// zero-cost case).
EventSink* sink() noexcept;

/// Emit to the attached sink and flight recorder, if any. The two null
/// checks are the entire cost of a disabled instrumentation point.
void emit(const Event& e);

/// True when any consumer — sink or flight recorder (obs/recorder.h) —
/// is attached. Instrumentation sites that gather data before building
/// events should test this rather than sink() alone, so a recorder-only
/// process (the serving daemon's default) still observes the run.
bool telemetry_attached() noexcept;

/// RAII attachment of a sink (and of the util/log → event bridge, so log
/// lines become kLog events while attached). Non-owning; restores the
/// previous sink and log hook on destruction. Mirrors the repo's other
/// scoped process-wide overrides.
class ScopedSink {
 public:
  explicit ScopedSink(EventSink* s);
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  EventSink* prev_;
  util::LogEventHook prev_hook_;
};

}  // namespace arbmis::obs
