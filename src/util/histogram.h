// Histograms for experiment outputs: a fixed-width linear histogram and a
// power-of-two (log-bucket) histogram for heavy-tailed quantities such as
// bad-set component sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace arbmis::util {

/// Linear histogram over [lo, hi) with `buckets` equal-width cells plus
/// underflow/overflow counters.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;

  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const noexcept { return counts_[i]; }
  double bucket_lo(std::size_t i) const noexcept;
  double bucket_hi(std::size_t i) const noexcept;
  std::uint64_t underflow() const noexcept { return underflow_; }
  std::uint64_t overflow() const noexcept { return overflow_; }
  std::uint64_t total() const noexcept { return total_; }

  /// Multi-line ASCII rendering (one row per non-empty bucket).
  std::string to_string(std::size_t bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Log2 histogram for nonnegative integers: bucket b counts values in
/// [2^b, 2^(b+1)), with a dedicated zero bucket.
class Log2Histogram {
 public:
  void add(std::uint64_t x) noexcept { add(x, 1); }
  /// `count` observations of `x` at once; add(x, 0) changes nothing.
  void add(std::uint64_t x, std::uint64_t count) noexcept;

  std::uint64_t zero_count() const noexcept { return zero_; }
  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t bucket(std::size_t b) const noexcept {
    return b < counts_.size() ? counts_[b] : 0;
  }
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t max_value() const noexcept { return max_value_; }

  std::string to_string(std::size_t bar_width = 40) const;

  friend bool operator==(const Log2Histogram&,
                         const Log2Histogram&) = default;

 private:
  std::uint64_t zero_ = 0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t max_value_ = 0;
};

}  // namespace arbmis::util
