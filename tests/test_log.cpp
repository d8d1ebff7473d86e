// Tests for the leveled logger.
#include <gtest/gtest.h>

#include <sstream>

#include "util/log.h"

namespace arbmis::util {
namespace {

/// RAII guard restoring the log level and capturing std::clog.
class LogCapture {
 public:
  LogCapture() : previous_level_(log_level()), old_buffer_(std::clog.rdbuf()) {
    std::clog.rdbuf(captured_.rdbuf());
  }
  ~LogCapture() {
    std::clog.rdbuf(old_buffer_);
    set_log_level(previous_level_);
  }
  std::string text() const { return captured_.str(); }

 private:
  LogLevel previous_level_;
  std::streambuf* old_buffer_;
  std::ostringstream captured_;
};

TEST(Log, RespectsThreshold) {
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  ARBMIS_LOG(Info) << "should not appear";
  ARBMIS_LOG(Warn) << "warning line";
  ARBMIS_LOG(Error) << "error line";
  const std::string text = capture.text();
  EXPECT_EQ(text.find("should not appear"), std::string::npos);
  EXPECT_NE(text.find("warning line"), std::string::npos);
  EXPECT_NE(text.find("error line"), std::string::npos);
  EXPECT_NE(text.find("[WARN ]"), std::string::npos);
}

TEST(Log, OffSilencesEverything) {
  LogCapture capture;
  set_log_level(LogLevel::kOff);
  ARBMIS_LOG(Error) << "silent";
  EXPECT_TRUE(capture.text().empty());
}

TEST(Log, StreamsValues) {
  LogCapture capture;
  set_log_level(LogLevel::kDebug);
  ARBMIS_LOG(Debug) << "x=" << 42 << " y=" << 2.5;
  EXPECT_NE(capture.text().find("x=42 y=2.5"), std::string::npos);
}

TEST(Log, DisabledSideIsNotEvaluated) {
  LogCapture capture;
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("value");
  };
  // The macro tests the level before the statement, so a filtered line
  // evaluates none of its operands.
  ARBMIS_LOG(Info) << expensive();
  EXPECT_TRUE(capture.text().empty());
  EXPECT_EQ(evaluations, 0);
  set_log_level(LogLevel::kInfo);
  ARBMIS_LOG(Info) << expensive();
  EXPECT_EQ(evaluations, 1);
  EXPECT_NE(capture.text().find("value"), std::string::npos);
}

TEST(Log, LevelRoundTrips) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(before);
}

}  // namespace
}  // namespace arbmis::util
