#include "obs/sink.h"

#include <atomic>
#include <utility>

#include "obs/recorder.h"

namespace arbmis::obs {

namespace {

std::atomic<EventSink*> g_sink{nullptr};

void log_hook(util::LogLevel level, std::string_view message) {
  emit(make_event(EventKind::kLog, /*round=*/0, message,
                  static_cast<std::uint64_t>(level)));
}

std::size_t put_varint(unsigned char* out, std::uint64_t v) noexcept {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<unsigned char>(v) | 0x80u;
    v >>= 7;
  }
  out[n++] = static_cast<unsigned char>(v);
  return n;
}

}  // namespace

std::size_t encode_event_head(const Event& e, std::size_t text_len,
                              unsigned char* out) noexcept {
  std::size_t n = 0;
  out[n++] = 0x01;
  out[n++] = static_cast<unsigned char>(e.kind);
  n += put_varint(out + n, e.round);
  n += put_varint(out + n, e.num_values);
  for (std::uint32_t i = 0; i < e.num_values; ++i) {
    n += put_varint(out + n, e.values[i]);
  }
  return n + put_varint(out + n, text_len);
}

std::size_t encode_manifest_head(std::size_t json_len,
                                 unsigned char* out) noexcept {
  out[0] = 0x00;
  return 1 + put_varint(out + 1, json_len);
}

bool SinkConfig::accepts_category(EventCategory category) const noexcept {
  switch (category) {
    case EventCategory::kSemantic: return semantic;
    case EventCategory::kLogText: return log_text;
    case EventCategory::kExec: return exec;
  }
  return false;
}

bool is_per_round(EventKind kind) noexcept {
  return kind == EventKind::kRound || kind == EventKind::kFaultRound ||
         kind == EventKind::kLaneMerge;
}

void EventSink::emit(const Event& e) {
  if (!config_.accepts_category(event_category(e.kind))) return;
  if (is_per_round(e.kind) && config_.round_sample > 1 &&
      e.round % config_.round_sample != 0) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  write(e);
}

void EventSink::attach_manifest(const Manifest& m) {
  const std::lock_guard<std::mutex> lock(mu_);
  manifest_ = m;
  write_manifest(m);
}

JsonlWriter::JsonlWriter(std::string path, SinkConfig config)
    : EventSink(config), path_(std::move(path)), out_(path_) {}

JsonlWriter::~JsonlWriter() = default;

void JsonlWriter::rotate(std::string new_path) {
  const std::lock_guard<std::mutex> lock(mutex());
  out_.close();
  path_ = std::move(new_path);
  out_.open(path_);
  if (manifest()) write_manifest(*manifest());
}

void JsonlWriter::flush() {
  const std::lock_guard<std::mutex> lock(mutex());
  out_.flush();
}

void JsonlWriter::write(const Event& e) { out_ << to_json_line(e) << '\n'; }

void JsonlWriter::write_manifest(const Manifest& m) {
  out_ << to_json_line(m) << '\n';
}

BinaryWriter::BinaryWriter(std::string path, SinkConfig config)
    : EventSink(config), path_(std::move(path)),
      out_(path_, std::ios::binary) {
  out_.write(kBinaryMagic.data(),
             static_cast<std::streamsize>(kBinaryMagic.size()));
}

BinaryWriter::~BinaryWriter() = default;

void BinaryWriter::flush() {
  const std::lock_guard<std::mutex> lock(mutex());
  out_.flush();
}

void BinaryWriter::write(const Event& e) {
  unsigned char head[kMaxRecordHeadBytes];
  const std::size_t n = encode_event_head(e, e.text.size(), head);
  out_.write(reinterpret_cast<const char*>(head),
             static_cast<std::streamsize>(n));
  out_.write(e.text.data(), static_cast<std::streamsize>(e.text.size()));
}

void BinaryWriter::write_manifest(const Manifest& m) {
  const std::string json = to_json_line(m);
  unsigned char head[kMaxRecordHeadBytes];
  const std::size_t n = encode_manifest_head(json.size(), head);
  out_.write(reinterpret_cast<const char*>(head),
             static_cast<std::streamsize>(n));
  out_.write(json.data(), static_cast<std::streamsize>(json.size()));
}

std::vector<OwnedEvent> VectorSink::events() const {
  const std::lock_guard<std::mutex> lock(events_mu_);
  return events_;
}

std::size_t VectorSink::size() const {
  const std::lock_guard<std::mutex> lock(events_mu_);
  return events_.size();
}

std::string VectorSink::to_jsonl() const {
  const std::lock_guard<std::mutex> lock(events_mu_);
  std::string out;
  for (const OwnedEvent& e : events_) {
    out += to_json_line(e.view());
    out += '\n';
  }
  return out;
}

void VectorSink::write(const Event& e) {
  const std::lock_guard<std::mutex> lock(events_mu_);
  events_.emplace_back(e);
}

EventSink* sink() noexcept { return g_sink.load(std::memory_order_acquire); }

void emit(const Event& e) {
  if (EventSink* s = sink()) s->emit(e);
  if (FlightRecorder* r = recorder()) r->record(e);
}

bool telemetry_attached() noexcept {
  return sink() != nullptr || recorder() != nullptr;
}

ScopedSink::ScopedSink(EventSink* s)
    : prev_(g_sink.exchange(s, std::memory_order_acq_rel)),
      prev_hook_(util::set_log_event_hook(s != nullptr ? &log_hook
                                                       : nullptr)) {}

ScopedSink::~ScopedSink() {
  util::set_log_event_hook(prev_hook_);
  g_sink.store(prev_, std::memory_order_release);
}

}  // namespace arbmis::obs
