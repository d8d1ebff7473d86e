#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace arbmis::util {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(std::max<std::size_t>(buckets, 1), 0) {
  if (hi_ <= lo_) hi_ = lo_ + 1.0;
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::size_t>((x - lo_) / width);
  idx = std::min(idx, counts_.size() - 1);
  ++counts_[idx];
}

double Histogram::bucket_lo(std::size_t i) const noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bucket_hi(std::size_t i) const noexcept {
  return bucket_lo(i + 1);
}

namespace {
std::string bar(std::uint64_t count, std::uint64_t max_count,
                std::size_t width) {
  if (max_count == 0) return {};
  const auto len = static_cast<std::size_t>(
      std::llround(static_cast<double>(count) /
                   static_cast<double>(max_count) * static_cast<double>(width)));
  return std::string(len, '#');
}
}  // namespace

std::string Histogram::to_string(std::size_t bar_width) const {
  std::uint64_t max_count = 0;
  for (auto c : counts_) max_count = std::max(max_count, c);
  std::ostringstream out;
  if (underflow_ > 0) out << "  < " << lo_ << ": " << underflow_ << '\n';
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    out << "  [" << bucket_lo(i) << ", " << bucket_hi(i) << "): " << counts_[i]
        << ' ' << bar(counts_[i], max_count, bar_width) << '\n';
  }
  if (overflow_ > 0) out << "  >= " << hi_ << ": " << overflow_ << '\n';
  return out.str();
}

void Log2Histogram::add(std::uint64_t x, std::uint64_t count) noexcept {
  if (count == 0) return;
  total_ += count;
  max_value_ = std::max(max_value_, x);
  if (x == 0) {
    zero_ += count;
    return;
  }
  const auto b = static_cast<std::size_t>(std::bit_width(x) - 1);
  if (b >= counts_.size()) counts_.resize(b + 1, 0);
  counts_[b] += count;
}

std::string Log2Histogram::to_string(std::size_t bar_width) const {
  std::uint64_t max_count = zero_;
  for (auto c : counts_) max_count = std::max(max_count, c);
  std::ostringstream out;
  if (zero_ > 0) out << "  0: " << zero_ << ' ' << bar(zero_, max_count, bar_width) << '\n';
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    out << "  [" << (1ULL << b) << ", " << (1ULL << (b + 1)) << "): "
        << counts_[b] << ' ' << bar(counts_[b], max_count, bar_width) << '\n';
  }
  return out.str();
}

}  // namespace arbmis::util
