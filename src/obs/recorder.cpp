#include "obs/recorder.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>

#include "obs/sink.h"

namespace arbmis::obs {

namespace {

std::atomic<FlightRecorder*> g_recorder{nullptr};

/// Worst-case encoded record: the event head plus truncated text.
constexpr std::size_t kEncodeBufBytes = kMaxRecordHeadBytes + kMaxRecorderText;

/// Encodes one event record with its text truncated to kMaxRecorderText
/// into `out`, which must hold kEncodeBufBytes. Allocation-free so both
/// the record path and the signal-handler trailer can use it.
std::size_t encode_record(const Event& e, unsigned char* out) noexcept {
  const std::size_t text_len = std::min(e.text.size(), kMaxRecorderText);
  const std::size_t n = encode_event_head(e, text_len, out);
  if (text_len != 0) std::memcpy(out + n, e.text.data(), text_len);
  return n + text_len;
}

/// Async-signal-safe full write; ignores errors beyond giving up (the
/// crash path cannot do better than best effort).
void write_all(int fd, const unsigned char* data, std::size_t n) noexcept {
  std::size_t done = 0;
  while (done < n) {
    const ::ssize_t w = ::write(fd, data + done, n - done);
    if (w <= 0) return;
    done += static_cast<std::size_t>(w);
  }
}

}  // namespace

FlightRecorder::FlightRecorder(RecorderConfig config)
    : config_(std::move(config)),
      buf_(std::max<std::size_t>(config_.max_bytes, 64)) {
  attach_manifest(make_manifest("flight_recorder"));
}

bool FlightRecorder::accepts(EventKind kind) const noexcept {
  switch (event_category(kind)) {
    case EventCategory::kSemantic: return config_.semantic;
    case EventCategory::kLogText: return config_.log_text;
    case EventCategory::kExec: return config_.exec;
  }
  return false;
}

void FlightRecorder::attach_manifest(const Manifest& m) {
  const std::string json = to_json_line(m);
  unsigned char head[kMaxRecordHeadBytes];
  const std::size_t n = encode_manifest_head(json.size(), head);
  std::string header(kBinaryMagic);
  header.append(reinterpret_cast<const char*>(head), n);
  header += json;
  const std::lock_guard<std::mutex> lock(mu_);
  header_bytes_ = std::move(header);
}

void FlightRecorder::evict_for(std::size_t needed) {
  while (buf_.size() - size_ < needed && size_ > 0) {
    const std::uint32_t len = length_at(0);
    head_ = (head_ + 4 + len) % buf_.size();
    size_ -= 4 + len;
    --stats_.buffered_events;
    stats_.buffered_bytes -= len;
    ++stats_.evicted_events;
    stats_.evicted_bytes += len;
  }
}

void FlightRecorder::record(const Event& e) {
  if (!accepts(e.kind)) return;
  // The ring entry: a little-endian 4-byte length prefix, then the record.
  unsigned char entry[4 + kEncodeBufBytes];
  const std::size_t len = encode_record(e, entry + 4);
  for (std::size_t i = 0; i < 4; ++i) {
    entry[i] = static_cast<unsigned char>((len >> (8 * i)) & 0xFFu);
  }

  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.recorded_events;
  if (len + 4 > buf_.size()) {
    ++stats_.dropped_oversized;
    return;
  }
  evict_for(len + 4);
  std::size_t tail = (head_ + size_) % buf_.size();
  for (std::size_t i = 0; i < len + 4; ++i) {
    buf_[tail] = entry[i];
    tail = (tail + 1) % buf_.size();
  }
  size_ += len + 4;
  ++stats_.buffered_events;
  stats_.buffered_bytes += len;
}

RecorderStats FlightRecorder::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void FlightRecorder::append_ring(std::string& out) const {
  std::size_t pos = 0;
  while (pos + 4 <= size_) {
    const std::uint32_t len = length_at(pos);
    if (pos + 4 + len > size_) break;
    for (std::size_t i = 0; i < len; ++i) {
      out += static_cast<char>(at(pos + 4 + i));
    }
    pos += 4 + len;
  }
}

std::string FlightRecorder::ring_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(stats_.buffered_bytes);
  append_ring(out);
  return out;
}

std::string FlightRecorder::snapshot(std::string_view reason) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(header_bytes_.size() + size_ + 128);
  out = header_bytes_;
  append_ring(out);
  const Event trailer = make_event(
      EventKind::kRecorderDump, /*round=*/0, reason,
      stats_.buffered_events, stats_.buffered_bytes,
      stats_.evicted_events, stats_.evicted_bytes);
  unsigned char rec[kEncodeBufBytes];
  const std::size_t len = encode_record(trailer, rec);
  out.append(reinterpret_cast<const char*>(rec), len);
  return out;
}

bool FlightRecorder::dump(const std::string& path, std::string_view reason) {
  const std::string bytes = snapshot(reason);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) return false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.dumps;
  }
  return true;
}

bool FlightRecorder::auto_dump(std::string_view reason) {
  if (config_.dump_path.empty()) return false;
  return dump(config_.dump_path, reason);
}

void FlightRecorder::dump_to_fd(int fd, std::string_view reason)
    const noexcept {
  // NO lock and no allocation: this runs from fatal-signal context. The
  // fields below may be mid-update; the per-record length check below
  // stops the walk at the first implausible prefix.
  write_all(fd, reinterpret_cast<const unsigned char*>(header_bytes_.data()),
            header_bytes_.size());
  const std::size_t cap = buf_.size();
  const std::size_t size = std::min(size_, cap);
  std::size_t pos = 0;
  while (pos + 4 <= size) {
    const std::uint32_t len = length_at(pos);
    if (len > kEncodeBufBytes || pos + 4 + len > size) break;
    const std::size_t start = (head_ + pos + 4) % cap;
    const std::size_t seg1 = std::min<std::size_t>(len, cap - start);
    write_all(fd, buf_.data() + start, seg1);
    if (seg1 < len) write_all(fd, buf_.data(), len - seg1);
    pos += 4 + len;
  }
  const Event trailer = make_event(
      EventKind::kRecorderDump, /*round=*/0, reason,
      stats_.buffered_events, stats_.buffered_bytes,
      stats_.evicted_events, stats_.evicted_bytes);
  unsigned char rec[kEncodeBufBytes];
  const std::size_t len = encode_record(trailer, rec);
  write_all(fd, rec, len);
}

void FlightRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  size_ = 0;
  stats_.buffered_events = 0;
  stats_.buffered_bytes = 0;
}

FlightRecorder* recorder() noexcept {
  return g_recorder.load(std::memory_order_acquire);
}

ScopedRecorder::ScopedRecorder(FlightRecorder* r)
    : prev_(g_recorder.exchange(r, std::memory_order_acq_rel)) {}

ScopedRecorder::~ScopedRecorder() {
  g_recorder.store(prev_, std::memory_order_release);
}

bool recorder_auto_dump(std::string_view reason) {
  if (FlightRecorder* r = recorder()) return r->auto_dump(reason);
  return false;
}

}  // namespace arbmis::obs
