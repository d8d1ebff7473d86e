// Tests for the telemetry subsystem (src/obs): event schemas and JSON
// rendering, sink filtering/sampling/rotation, the binary wire format,
// the util/log → event bridge, the flight-recorder ring, the metrics
// registry, profiling scopes, and the simulator's emission contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/bounded_arb.h"
#include "core/params.h"
#include "fault/adversary.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "mis/luby.h"
#include "mis/metivier.h"
#include "obs/events.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "sim/network.h"
#include "util/log.h"

namespace arbmis {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// RAII guard restoring the log level and capturing std::clog, so the
/// log-bridge tests do not spam test output (mirrors test_log.cpp).
class LogCapture {
 public:
  LogCapture()
      : previous_level_(util::log_level()), old_buffer_(std::clog.rdbuf()) {
    std::clog.rdbuf(captured_.rdbuf());
  }
  ~LogCapture() {
    std::clog.rdbuf(old_buffer_);
    util::set_log_level(previous_level_);
  }
  std::string text() const { return captured_.str(); }

 private:
  util::LogLevel previous_level_;
  std::streambuf* old_buffer_;
  std::ostringstream captured_;
};

// ---------------------------------------------------------------------------
// Events: schema table and JSON rendering.
// ---------------------------------------------------------------------------

TEST(ObsEvents, EveryKindHasASchema) {
  for (std::uint8_t k = 0;
       k < static_cast<std::uint8_t>(obs::EventKind::kCount); ++k) {
    const obs::EventSchema& schema =
        obs::event_schema(static_cast<obs::EventKind>(k));
    EXPECT_NE(schema.name, nullptr) << "kind " << static_cast<int>(k);
    EXPECT_LE(schema.num_fields, obs::kMaxEventValues);
    for (std::uint32_t i = 0; i < schema.num_fields; ++i) {
      EXPECT_NE(schema.fields[i], nullptr)
          << schema.name << " field " << i;
    }
  }
}

TEST(ObsEvents, CategoryPartition) {
  EXPECT_EQ(obs::event_category(obs::EventKind::kRound),
            obs::EventCategory::kSemantic);
  EXPECT_EQ(obs::event_category(obs::EventKind::kPhase),
            obs::EventCategory::kSemantic);
  EXPECT_EQ(obs::event_category(obs::EventKind::kLog),
            obs::EventCategory::kLogText);
  EXPECT_EQ(obs::event_category(obs::EventKind::kLaneMerge),
            obs::EventCategory::kExec);
}

TEST(ObsEvents, JsonLineMatchesSchemaFieldOrder) {
  const obs::Event recovery =
      obs::make_event(obs::EventKind::kFaultRecovery, 2, {}, 7);
  EXPECT_EQ(obs::to_json_line(recovery),
            "{\"ev\":\"fault_recovery\",\"round\":2,\"node\":7}");

  const obs::Event phase =
      obs::make_event(obs::EventKind::kPhase, 0, "vlo", 2, 10, 3, 5);
  EXPECT_EQ(obs::to_json_line(phase),
            "{\"ev\":\"phase\",\"round\":0,\"index\":2,\"set_size\":10,"
            "\"rounds\":3,\"messages\":5,\"name\":\"vlo\"}");
}

TEST(ObsEvents, EscapesJsonText) {
  std::string out;
  obs::append_json_escaped(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001f");
}

// ---------------------------------------------------------------------------
// Sinks: filtering, sampling, rotation, binary round-trip, log bridge.
// ---------------------------------------------------------------------------

TEST(ObsSink, DefaultConfigExcludesExecutorKinds) {
  obs::VectorSink capture;
  capture.emit(obs::make_event(obs::EventKind::kRound, 1, {}, 0, 4));
  capture.emit(
      obs::make_event(obs::EventKind::kLaneMerge, 1, {}, 0, 2, 2, 0));
  ASSERT_EQ(capture.size(), 1u);
  EXPECT_EQ(capture.events()[0].kind, obs::EventKind::kRound);

  obs::SinkConfig exec_on;
  exec_on.exec = true;
  obs::VectorSink full(exec_on);
  full.emit(obs::make_event(obs::EventKind::kLaneMerge, 1, {}, 0, 2, 2, 0));
  EXPECT_EQ(full.size(), 1u);
}

TEST(ObsSink, RoundSamplingKeepsBoundaries) {
  obs::SinkConfig config;
  config.round_sample = 3;
  obs::VectorSink capture(config);
  capture.emit(obs::make_event(obs::EventKind::kRunBegin, 0, "x", 8, 7, 1,
                               100, 1));
  for (std::uint32_t r = 1; r <= 9; ++r) {
    capture.emit(obs::make_event(obs::EventKind::kRound, r, {}, 0, 1));
  }
  capture.emit(
      obs::make_event(obs::EventKind::kRunEnd, 9, {}, 9, 9, 72, 1, 1, 0));
  // Kept: run_begin, rounds 3/6/9, run_end — boundaries always pass.
  const std::vector<obs::OwnedEvent> events = capture.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.front().kind, obs::EventKind::kRunBegin);
  EXPECT_EQ(events[1].round, 3u);
  EXPECT_EQ(events[2].round, 6u);
  EXPECT_EQ(events[3].round, 9u);
  EXPECT_EQ(events.back().kind, obs::EventKind::kRunEnd);
}

TEST(ObsSink, ScopedSinkInstallsAndRestores) {
  EXPECT_EQ(obs::sink(), nullptr);
  obs::VectorSink outer;
  {
    const obs::ScopedSink attach_outer(&outer);
    EXPECT_EQ(obs::sink(), &outer);
    obs::VectorSink inner;
    {
      const obs::ScopedSink attach_inner(&inner);
      EXPECT_EQ(obs::sink(), &inner);
      obs::emit(obs::make_event(obs::EventKind::kFaultRecovery, 1, {}, 3));
    }
    EXPECT_EQ(obs::sink(), &outer);
    EXPECT_EQ(inner.size(), 1u);
    EXPECT_EQ(outer.size(), 0u);
  }
  EXPECT_EQ(obs::sink(), nullptr);
  // Detached emission is a no-op, not a crash.
  obs::emit(obs::make_event(obs::EventKind::kFaultRecovery, 1, {}, 3));
}

TEST(ObsSink, LogLinesBecomeEventsWhileAttached) {
  LogCapture quiet;
  util::set_log_level(util::LogLevel::kInfo);
  obs::VectorSink capture;
  {
    const obs::ScopedSink attach(&capture);
    ARBMIS_LOG(Warn) << "telemetry bridge check " << 42;
  }
  ARBMIS_LOG(Warn) << "after detach";  // must NOT land in the sink

  const std::vector<obs::OwnedEvent> events = capture.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kLog);
  EXPECT_EQ(events[0].values[0],
            static_cast<std::uint64_t>(util::LogLevel::kWarn));
  EXPECT_NE(events[0].text.find("telemetry bridge check 42"),
            std::string::npos);
  // The clog line still goes out — the bridge tees, it does not reroute.
  EXPECT_NE(quiet.text().find("telemetry bridge check 42"),
            std::string::npos);
}

TEST(ObsSink, LogTextCategoryCanBeDisabled) {
  LogCapture quiet;
  util::set_log_level(util::LogLevel::kInfo);
  obs::SinkConfig config;
  config.log_text = false;
  obs::VectorSink capture(config);
  {
    const obs::ScopedSink attach(&capture);
    ARBMIS_LOG(Warn) << "should be filtered";
  }
  EXPECT_EQ(capture.size(), 0u);
}

TEST(ObsSink, JsonlWriterRotatesWithManifestHeader) {
  const std::string path_a = tmp_path("obs_rotate_a.jsonl");
  const std::string path_b = tmp_path("obs_rotate_b.jsonl");
  {
    obs::JsonlWriter writer(path_a);
    obs::Manifest m = obs::make_manifest("test_obs");
    m.workload = "rotation";
    m.seed = 7;
    writer.attach_manifest(m);
    writer.emit(obs::make_event(obs::EventKind::kFaultRecovery, 1, {}, 3));
    writer.rotate(path_b);
    EXPECT_EQ(writer.path(), path_b);
    writer.emit(obs::make_event(obs::EventKind::kFaultRecovery, 2, {}, 4));
    writer.flush();
  }
  const std::string file_a = read_file(path_a);
  const std::string file_b = read_file(path_b);
  // Both files are self-describing: manifest first, then events.
  EXPECT_EQ(file_a.rfind("{\"manifest\":{\"schema\":\"arbmis.obs.v1\"", 0),
            0u);
  EXPECT_EQ(file_b.rfind("{\"manifest\":{\"schema\":\"arbmis.obs.v1\"", 0),
            0u);
  EXPECT_NE(file_a.find("\"ev\":\"fault_recovery\",\"round\":1"),
            std::string::npos);
  EXPECT_EQ(file_a.find("\"round\":2,"), std::string::npos);
  EXPECT_NE(file_b.find("\"ev\":\"fault_recovery\",\"round\":2"),
            std::string::npos);
}

namespace binary {

std::uint64_t read_varint(const std::string& buf, std::size_t& pos) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    const auto byte = static_cast<unsigned char>(buf.at(pos++));
    value |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) break;
    shift += 7;
  }
  return value;
}

}  // namespace binary

TEST(ObsSink, BinaryWriterRoundTrips) {
  const std::string path = tmp_path("obs_roundtrip.bin");
  const obs::Event phase =
      obs::make_event(obs::EventKind::kPhase, 0, "shatter", 1, 200, 31, 4096);
  const obs::Event round = obs::make_event(obs::EventKind::kRound, 300, {},
                                           12, 345, 6789, 0, 24, 18, 2);
  {
    obs::BinaryWriter writer(path);
    obs::Manifest m = obs::make_manifest("test_obs");
    m.seed = 99;
    writer.attach_manifest(m);
    writer.emit(phase);
    writer.emit(round);
    writer.flush();
  }
  const std::string buf = read_file(path);
  ASSERT_GE(buf.size(), 9u);
  EXPECT_EQ(buf.substr(0, 8), "ARBMISEV");
  EXPECT_EQ(buf[8], '\x01');

  std::size_t pos = 9;
  // Manifest record.
  ASSERT_EQ(buf.at(pos++), '\x00');
  const std::uint64_t manifest_len = binary::read_varint(buf, pos);
  const std::string manifest_json =
      buf.substr(pos, static_cast<std::size_t>(manifest_len));
  pos += static_cast<std::size_t>(manifest_len);
  EXPECT_EQ(manifest_json.rfind("{\"manifest\":", 0), 0u);
  EXPECT_NE(manifest_json.find("\"seed\":99"), std::string::npos);

  // Event records, decoded back into Events.
  for (const obs::Event& expected : {phase, round}) {
    ASSERT_EQ(buf.at(pos++), '\x01');
    const auto kind = static_cast<obs::EventKind>(
        static_cast<unsigned char>(buf.at(pos++)));
    const auto round_no =
        static_cast<std::uint32_t>(binary::read_varint(buf, pos));
    const std::uint64_t num_values = binary::read_varint(buf, pos);
    EXPECT_EQ(kind, expected.kind);
    EXPECT_EQ(round_no, expected.round);
    ASSERT_EQ(num_values, expected.num_values);
    for (std::uint32_t i = 0; i < expected.num_values; ++i) {
      EXPECT_EQ(binary::read_varint(buf, pos), expected.values[i]) << i;
    }
    const std::uint64_t text_len = binary::read_varint(buf, pos);
    EXPECT_EQ(buf.substr(pos, static_cast<std::size_t>(text_len)),
              expected.text);
    pos += static_cast<std::size_t>(text_len);
  }
  EXPECT_EQ(pos, buf.size());
}

// ---------------------------------------------------------------------------
// Flight recorder: ring eviction, truncation, dumps (obs/recorder.h).
// ---------------------------------------------------------------------------

struct DecodedRecord {
  obs::EventKind kind;
  std::uint32_t round;
  std::vector<std::uint64_t> values;
  std::string text;
};

/// Decodes concatenated ARBMISEV 0x01 event records starting at `pos`.
std::vector<DecodedRecord> decode_records(const std::string& buf,
                                          std::size_t pos = 0) {
  std::vector<DecodedRecord> out;
  while (pos < buf.size()) {
    EXPECT_EQ(buf.at(pos), '\x01');
    ++pos;
    DecodedRecord rec;
    rec.kind = static_cast<obs::EventKind>(
        static_cast<unsigned char>(buf.at(pos++)));
    rec.round = static_cast<std::uint32_t>(binary::read_varint(buf, pos));
    const std::uint64_t num_values = binary::read_varint(buf, pos);
    for (std::uint64_t i = 0; i < num_values; ++i) {
      rec.values.push_back(binary::read_varint(buf, pos));
    }
    const std::uint64_t text_len = binary::read_varint(buf, pos);
    rec.text = buf.substr(pos, static_cast<std::size_t>(text_len));
    pos += static_cast<std::size_t>(text_len);
    out.push_back(std::move(rec));
  }
  return out;
}

/// Checks the artifact header (magic, version, manifest record) and
/// returns the offset of the first event record.
std::size_t skip_header(const std::string& buf) {
  EXPECT_GE(buf.size(), 10u);
  EXPECT_EQ(buf.substr(0, 8), "ARBMISEV");
  EXPECT_EQ(buf[8], '\x01');
  std::size_t pos = 9;
  EXPECT_EQ(buf.at(pos++), '\x00');
  const std::uint64_t manifest_len = binary::read_varint(buf, pos);
  EXPECT_EQ(buf.substr(pos, 12), "{\"manifest\":");
  return pos + static_cast<std::size_t>(manifest_len);
}

TEST(ObsRecorder, ScopedRecorderReceivesEmitsAlongsideSink) {
  EXPECT_EQ(obs::recorder(), nullptr);
  EXPECT_FALSE(obs::telemetry_attached());
  obs::FlightRecorder recorder;
  obs::VectorSink sink_capture;
  {
    const obs::ScopedRecorder attach(&recorder);
    EXPECT_EQ(obs::recorder(), &recorder);
    // Recorder-only attachment still counts as telemetry: the simulator's
    // emission guards must not skip event assembly.
    EXPECT_TRUE(obs::telemetry_attached());
    const obs::ScopedSink attach_sink(&sink_capture);
    obs::emit(obs::make_event(obs::EventKind::kFaultRecovery, 1, {}, 3));
  }
  EXPECT_EQ(obs::recorder(), nullptr);
  EXPECT_EQ(recorder.stats().recorded_events, 1u);
  EXPECT_EQ(sink_capture.size(), 1u);  // emit() fans out to both globals
}

TEST(ObsRecorder, WrapAroundEvictsOldestFirst) {
  obs::RecorderConfig config;
  config.max_bytes = 64;  // each fault_recovery record is 6 + 4 bytes
  obs::FlightRecorder recorder(config);
  for (std::uint32_t r = 1; r <= 20; ++r) {
    recorder.record(obs::make_event(obs::EventKind::kFaultRecovery, r, {}, 2));
  }
  const obs::RecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.recorded_events, 20u);
  EXPECT_EQ(stats.buffered_events, 6u);
  EXPECT_EQ(stats.evicted_events, 14u);
  EXPECT_EQ(stats.buffered_bytes, 36u);
  EXPECT_EQ(stats.evicted_bytes, 84u);
  EXPECT_EQ(stats.dropped_oversized, 0u);

  // Only the newest six survive, in emission order.
  const std::vector<DecodedRecord> records =
      decode_records(recorder.ring_bytes());
  ASSERT_EQ(records.size(), 6u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].kind, obs::EventKind::kFaultRecovery);
    EXPECT_EQ(records[i].round, 15u + i);
  }
}

TEST(ObsRecorder, OversizedEventIsDroppedNotBuffered) {
  obs::RecorderConfig config;
  config.max_bytes = 64;
  obs::FlightRecorder recorder(config);
  recorder.record(obs::make_event(obs::EventKind::kFaultRecovery, 1, {}, 2));
  recorder.record(obs::make_event(obs::EventKind::kLog, 0,
                                  std::string(100, 'x'), 2));
  const obs::RecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.recorded_events, 2u);
  EXPECT_EQ(stats.dropped_oversized, 1u);
  // The oversized record neither lands nor evicts what was already there.
  EXPECT_EQ(stats.buffered_events, 1u);
  EXPECT_EQ(stats.evicted_events, 0u);
  const std::vector<DecodedRecord> records =
      decode_records(recorder.ring_bytes());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, obs::EventKind::kFaultRecovery);
}

TEST(ObsRecorder, PathologicalLogTextIsTruncated) {
  obs::RecorderConfig config;
  config.max_bytes = 16u << 10;
  obs::FlightRecorder recorder(config);
  recorder.record(obs::make_event(obs::EventKind::kLog, 0,
                                  std::string(5000, 'y'), 1));
  const std::vector<DecodedRecord> records =
      decode_records(recorder.ring_bytes());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].text.size(), obs::kMaxRecorderText);
}

TEST(ObsRecorder, DumpWhileAttachedIsAValidArtifactWithTrailer) {
  const std::string path = tmp_path("obs_recorder_dump.flightrec");
  obs::FlightRecorder recorder;
  {
    const obs::ScopedRecorder attach(&recorder);
    obs::emit(obs::make_event(obs::EventKind::kFaultRecovery, 1, {}, 3));
    obs::emit(obs::make_event(obs::EventKind::kFaultRecovery, 2, {}, 4));
    // Dumping while attached must not disturb recording.
    ASSERT_TRUE(recorder.dump(path, "unit_test"));
    obs::emit(obs::make_event(obs::EventKind::kFaultRecovery, 3, {}, 5));
  }
  EXPECT_EQ(recorder.stats().dumps, 1u);
  EXPECT_EQ(recorder.stats().buffered_events, 3u);

  const std::string buf = read_file(path);
  const std::vector<DecodedRecord> records =
      decode_records(buf, skip_header(buf));
  ASSERT_EQ(records.size(), 3u);  // two events + the kRecorderDump trailer
  EXPECT_EQ(records[0].round, 1u);
  EXPECT_EQ(records[1].round, 2u);
  const DecodedRecord& trailer = records.back();
  EXPECT_EQ(trailer.kind, obs::EventKind::kRecorderDump);
  EXPECT_EQ(trailer.text, "unit_test");
  ASSERT_EQ(trailer.values.size(), 4u);
  EXPECT_EQ(trailer.values[0], 2u);  // buffered events at dump time
  EXPECT_EQ(trailer.values[2], 0u);  // nothing evicted
}

TEST(ObsRecorder, ClearDropsBufferedButKeepsCumulativeCounters) {
  obs::FlightRecorder recorder;
  recorder.record(obs::make_event(obs::EventKind::kFaultRecovery, 1, {}, 2));
  recorder.clear();
  const obs::RecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.buffered_events, 0u);
  EXPECT_EQ(stats.buffered_bytes, 0u);
  EXPECT_EQ(stats.recorded_events, 1u);
  EXPECT_TRUE(recorder.ring_bytes().empty());
  // The ring keeps working after a clear.
  recorder.record(obs::make_event(obs::EventKind::kFaultRecovery, 2, {}, 2));
  EXPECT_EQ(recorder.stats().buffered_events, 1u);
}

TEST(ObsRecorder, AutoDumpWithoutPathIsANoOp) {
  obs::FlightRecorder recorder;  // default config: no dump_path
  recorder.record(obs::make_event(obs::EventKind::kFaultRecovery, 1, {}, 2));
  EXPECT_FALSE(recorder.auto_dump("nowhere"));
  EXPECT_EQ(recorder.stats().dumps, 0u);
  // Detached helper is a safe no-op too.
  EXPECT_FALSE(obs::recorder_auto_dump("nobody_attached"));
}

TEST(ObsSink, BinaryWriterAndRecorderEncodeIdenticalRecords) {
  // A .bin file and a recorder snapshot are the same ARBMISEV artifact:
  // equal header for the same manifest, equal record bytes for the same
  // events. Covers every kind, every value count, varints at their length
  // edges, and empty and longest-untruncated text; the FNV-1a pin freezes
  // the record bytes themselves.
  constexpr std::uint64_t kEdges[] = {0, 127, 128, std::uint64_t{1} << 63};
  constexpr std::uint32_t kRounds[] = {0, 127, 128, ~std::uint32_t{0}};
  const std::string long_text(obs::kMaxRecorderText - 1, 'z');
  const std::string path = tmp_path("obs_identical_records.bin");

  obs::SinkConfig every_kind;
  every_kind.exec = true;
  obs::RecorderConfig recorder_config;
  recorder_config.exec = true;
  obs::FlightRecorder recorder(recorder_config);
  obs::Manifest manifest = obs::make_manifest("test_obs");
  manifest.seed = 7;
  recorder.attach_manifest(manifest);

  std::size_t emitted = 0;
  {
    obs::BinaryWriter writer(path, every_kind);
    writer.attach_manifest(manifest);
    for (std::uint8_t k = 0;
         k < static_cast<std::uint8_t>(obs::EventKind::kCount); ++k) {
      for (const std::string_view text : {std::string_view{},
                                          std::string_view{long_text}}) {
        for (std::uint32_t i = 0; i < 4; ++i) {
          obs::Event e;
          e.kind = static_cast<obs::EventKind>(k);
          e.round = kRounds[(i + k) % 4];
          e.text = text;
          e.num_values = static_cast<std::uint32_t>(
              (k + 3 * i) % (obs::kMaxEventValues + 1));
          for (std::uint32_t j = 0; j < e.num_values; ++j) {
            e.values[j] = kEdges[(i + j) % 4];
          }
          writer.emit(e);
          recorder.record(e);
          ++emitted;
        }
      }
    }
  }

  const std::string file = read_file(path);
  const std::size_t header_end = skip_header(file);
  const std::string ring = recorder.ring_bytes();
  EXPECT_EQ(file.substr(header_end), ring);
  const std::string snapshot = recorder.snapshot("identical");
  EXPECT_EQ(snapshot.substr(0, header_end), file.substr(0, header_end));
  EXPECT_EQ(snapshot.substr(header_end, ring.size()), ring);
  EXPECT_EQ(decode_records(ring).size(), emitted);
  EXPECT_EQ(recorder.stats().evicted_events, 0u);

  // Pinned over the records and the dump trailer.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : snapshot.substr(header_end)) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0xa465e63e0621e744ULL) << std::hex << hash;
}

// ---------------------------------------------------------------------------
// Registry: counters, gauges, histograms, round series, JSON stability.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, CountersGaugesAndHistograms) {
  obs::Registry reg;
  reg.add("sim.messages", 5);
  reg.add("sim.messages", 2);
  reg.add("sim.runs");
  reg.set("sim.model.k", -3);
  reg.observe("sim.message_bits", 9);
  reg.observe("sim.message_bits", 1024);
  reg.observe_linear("core.balance", 0.0, 1.0, 4, 0.3);

  EXPECT_EQ(reg.counter("sim.messages"), 7u);
  EXPECT_EQ(reg.counter("sim.runs"), 1u);
  EXPECT_EQ(reg.counter("missing"), 0u);
  EXPECT_EQ(reg.gauge("sim.model.k"), -3);

  const std::string json = reg.to_json();
  EXPECT_EQ(json.rfind("{\"schema\":\"arbmis.metrics.v1\"", 0), 0u);
  EXPECT_NE(json.find("\"manifest\":null"), std::string::npos);
  EXPECT_NE(json.find("\"sim.messages\":7"), std::string::npos);
  EXPECT_NE(json.find("\"sim.model.k\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"log2\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"linear\""), std::string::npos);
  // map storage ⇒ byte-stable key order regardless of insertion order.
  obs::Registry mirrored;
  mirrored.observe_linear("core.balance", 0.0, 1.0, 4, 0.3);
  mirrored.observe("sim.message_bits", 9);
  mirrored.observe("sim.message_bits", 1024);
  mirrored.set("sim.model.k", -3);
  mirrored.add("sim.runs");
  mirrored.add("sim.messages", 7);
  EXPECT_EQ(mirrored.to_json(), json);
}

TEST(ObsRegistry, BulkObserveMatchesSingleObserves) {
  std::vector<std::uint64_t> counts(73, 0);
  obs::Registry bulk;
  bulk.observe_counts("sim.message_bits", counts);  // all zero: no-op
  EXPECT_EQ(bulk.to_json(), obs::Registry{}.to_json());

  counts[8] = 3;
  counts[13] = 1;
  counts[72] = 2;
  bulk.observe_counts("sim.message_bits", counts);
  obs::Registry single;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    for (std::uint64_t i = 0; i < counts[v]; ++i) {
      single.observe("sim.message_bits", v);
    }
  }
  EXPECT_EQ(bulk.to_json(), single.to_json());
}

TEST(ObsRegistry, RoundSeriesRespectsSampling) {
  obs::Registry reg(/*round_sample=*/2);
  reg.track_round_series("sim.messages");
  reg.add("sim.messages", 5);
  reg.snapshot_round(1);  // skipped: 1 % 2 != 0
  reg.add("sim.messages", 3);
  reg.snapshot_round(2);  // delta since start: 8
  reg.add("sim.messages", 2);
  reg.snapshot_round(3);  // skipped
  reg.add("sim.messages", 1);
  reg.snapshot_round(4);  // delta since round 2: 3

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"sample\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sampled\":[2,4]"), std::string::npos);
  EXPECT_NE(json.find("\"sim.messages\":[8,3]"), std::string::npos);
}

TEST(ObsRegistry, ScopedRegistryInstallsAndRestores) {
  EXPECT_EQ(obs::registry(), nullptr);
  obs::Registry reg;
  {
    const obs::ScopedRegistry attach(&reg);
    EXPECT_EQ(obs::registry(), &reg);
  }
  EXPECT_EQ(obs::registry(), nullptr);
}

TEST(ObsRegistry, EmbedsManifestWhenGiven) {
  obs::Registry reg;
  reg.add("sim.runs");
  obs::Manifest m = obs::make_manifest("test_obs");
  m.workload = "gnp(150,0.05)";
  const std::string json = reg.to_json(&m);
  EXPECT_NE(json.find("\"manifest\":{\"schema\":\"arbmis.obs.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"workload\":\"gnp(150,0.05)\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

TEST(ObsManifest, JsonShapes) {
  obs::Manifest m = obs::make_manifest("test_obs");
  m.workload = "path(64)";
  m.seed = 7;
  m.nodes = 64;
  m.edges = 63;
  m.threads = 4;
  m.inbox = "arena";
  EXPECT_EQ(m.schema, std::string(obs::kSchemaVersion));
  EXPECT_FALSE(m.build_type.empty());
  EXPECT_EQ(m.tool, "test_obs");

  const std::string object = obs::to_json_object(m);
  EXPECT_EQ(object.front(), '{');
  EXPECT_EQ(object.back(), '}');
  EXPECT_NE(object.find("\"tool\":\"test_obs\""), std::string::npos);
  EXPECT_NE(object.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(object.find("\"inbox\":\"arena\""), std::string::npos);
  EXPECT_EQ(obs::to_json_line(m), "{\"manifest\":" + object + "}");
}

// ---------------------------------------------------------------------------
// Profiler.
// ---------------------------------------------------------------------------

TEST(ObsProfiler, RecordsScopesAndExportsChromeTrace) {
  obs::Profiler profiler;
  EXPECT_EQ(obs::Profiler::active(), nullptr);
  {
    const obs::ScopedProfiler attach(&profiler);
    ASSERT_EQ(obs::Profiler::active(), &profiler);
    OBS_SCOPE("outer");
    { OBS_SCOPE("inner"); }
  }
  EXPECT_EQ(obs::Profiler::active(), nullptr);
  EXPECT_EQ(profiler.span_count(), 2u);

  const std::string json = profiler.to_chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(ObsProfiler, ScopeStraddlingDetachDropsItsSpan) {
  obs::Profiler profiler;
  auto attach = std::make_unique<obs::ScopedProfiler>(&profiler);
  {
    const obs::ProfileScope straddler("straddle");
    attach.reset();  // detach before the scope closes
  }
  EXPECT_EQ(profiler.span_count(), 0u);
}

TEST(ObsProfiler, DisabledScopeIsANoOp) {
  ASSERT_EQ(obs::Profiler::active(), nullptr);
  OBS_SCOPE("no profiler attached");
}

// ---------------------------------------------------------------------------
// Simulator emission contract.
// ---------------------------------------------------------------------------

TEST(ObsNetwork, EmitsRunEventsIdenticallyAcrossThreadCounts) {
  const graph::Graph g = graph::gen::path(32);
  const auto run_with = [&](std::uint32_t threads) {
    const sim::ScopedNumThreads scoped(threads);
    obs::VectorSink capture;
    sim::RunStats stats;
    {
      const obs::ScopedSink attach(&capture);
      mis::LubyBMis algorithm(g);
      sim::Network net(g, /*seed=*/11);
      stats = net.run(algorithm, 1u << 12);
    }
    return std::make_pair(stats, capture.to_jsonl());
  };

  const auto [stats, serial] = run_with(0);
  EXPECT_TRUE(stats.all_halted);
  EXPECT_EQ(serial.rfind("{\"ev\":\"run_begin\"", 0), 0u);
  EXPECT_NE(serial.find("\"ev\":\"run_end\""), std::string::npos);
  EXPECT_NE(serial.find("\"ev\":\"model_check\""), std::string::npos);
  // One round event per round barrier: the on_start flush (round 0) plus
  // one per counted round.
  std::size_t rounds_seen = 0;
  for (std::size_t at = serial.find("{\"ev\":\"round\"");
       at != std::string::npos;
       at = serial.find("{\"ev\":\"round\"", at + 1)) {
    ++rounds_seen;
  }
  EXPECT_EQ(rounds_seen, stats.rounds + 1);
  for (const std::uint32_t threads : {1u, 4u}) {
    EXPECT_EQ(serial, run_with(threads).second) << threads;
  }
}

TEST(ObsNetwork, FeedsAttachedRegistry) {
  const graph::Graph g = graph::gen::path(24);
  obs::Registry reg;
  sim::RunStats stats;
  {
    const obs::ScopedRegistry attach(&reg);
    mis::LubyBMis algorithm(g);
    sim::Network net(g, /*seed=*/5);
    stats = net.run(algorithm, 1u << 12);
  }
  EXPECT_EQ(reg.counter("sim.runs"), 1u);
  EXPECT_EQ(reg.counter("sim.rounds"), stats.rounds);
  EXPECT_EQ(reg.counter("sim.messages"), stats.messages);
  // The counter sums actual per-message widths, which are bounded by the
  // nominal per-message budget RunStats charges.
  EXPECT_GT(reg.counter("sim.payload_bits"), 0u);
  EXPECT_LE(reg.counter("sim.payload_bits"), stats.payload_bits);
  EXPECT_NE(reg.to_json().find("\"sim.message_bits\""), std::string::npos);
}

TEST(ObsNetwork, RegistryDocumentIdenticalAcrossExecutors) {
  // The whole metrics document — counters, gauges, the sim.message_bits
  // histogram and the per-round sampling — must not depend on the
  // executor or the inbox implementation. The faulty run duplicates
  // messages past the arena's per-edge capacity (the overflow inbox).
  util::Rng forest_rng(3);
  const graph::Graph forests =
      graph::gen::union_of_random_forests(300, 2, forest_rng);
  util::Rng gnp_rng(4);
  const graph::Graph gnp = graph::gen::gnp(150, 0.05, gnp_rng);
  const core::Params params = core::Params::practical(2, gnp.max_degree());

  const auto document = [&](std::uint32_t threads, sim::InboxImpl inbox) {
    obs::Registry reg;
    const obs::ScopedRegistry attach(&reg);
    sim::NetworkOptions options;
    options.num_threads = threads;
    options.inbox = inbox;
    {
      mis::MetivierMis algorithm(forests);
      sim::Network net(forests, /*seed=*/21, options);
      EXPECT_TRUE(net.run(algorithm, 1u << 12).all_halted);
    }
    {
      core::BoundedArbIndependentSet algorithm(gnp, params);
      sim::Network net(gnp, /*seed=*/22, options);
      net.run(algorithm, params.total_rounds());
    }
    {
      fault::IidAdversary adversary({.drop_rate = 0.1,
                                     .duplicate_rate = 0.2,
                                     .crash_rate = 0.0,
                                     .recovery_delay = 0});
      fault::FaultPlan plan(forests, /*seed=*/23, adversary);
      sim::NetworkOptions faulty = options;
      faulty.fault = &plan;
      mis::LubyBMis algorithm(forests);
      sim::Network net(forests, /*seed=*/23, faulty);
      net.run(algorithm, 512);
      EXPECT_GT(plan.totals().duplicates, 0u);
    }
    return reg.to_json();
  };

  const std::string serial = document(0, sim::InboxImpl::kArena);
  EXPECT_NE(serial.find("\"sim.message_bits\""), std::string::npos);
  for (const sim::InboxImpl inbox :
       {sim::InboxImpl::kArena, sim::InboxImpl::kReferenceVectors}) {
    for (const std::uint32_t threads : {0u, 1u, 2u, 4u, 8u}) {
      EXPECT_EQ(serial, document(threads, inbox))
          << "threads " << threads << " inbox "
          << static_cast<int>(inbox);
    }
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : serial) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0xecca9ce7e72d7d34ULL) << std::hex << hash;
}

}  // namespace
}  // namespace arbmis
