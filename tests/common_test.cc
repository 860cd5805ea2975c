// Tests for the common runtime: Status, Result, string utils, tables,
// timers.
#include <chrono>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "common/timer.h"

namespace freshen {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::FailedPrecondition("early").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("missing").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("far").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("todo").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("bug").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Internal("bug").message(), "bug");
  EXPECT_EQ(Status::Unavailable("down").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("slow").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("full").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, TransportCodesRenderTheirNames) {
  EXPECT_EQ(Status::Unavailable("origin down").ToString(),
            "Unavailable: origin down");
  EXPECT_EQ(Status::DeadlineExceeded("stalled").ToString(),
            "DeadlineExceeded: stalled");
  EXPECT_EQ(Status::ResourceExhausted("queue full").ToString(),
            "ResourceExhausted: queue full");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("negative rate").ToString(),
            "InvalidArgument: negative rate");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, StreamOperatorRendersToString) {
  std::ostringstream os;
  os << Status::OutOfRange("theta");
  EXPECT_EQ(os.str(), "OutOfRange: theta");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> result(Status::NotFound("gone"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<double> result(2.5);
  EXPECT_DOUBLE_EQ(result.value_or(0.0), 2.5);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  std::string taken = std::move(result).value();
  EXPECT_EQ(taken, "payload");
}

TEST(ResultTest, ArrowOperatorReachesMembers) {
  Result<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  FRESHEN_ASSIGN_OR_RETURN(int half, Half(x));
  FRESHEN_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagatesErrors) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd.
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringUtilTest, StrFormatLongOutput) {
  const std::string long_arg(1000, 'a');
  EXPECT_EQ(StrFormat("[%s]", long_arg.c_str()).size(), 1002u);
}

TEST(StringUtilTest, FormatDoubleRespectsPrecision) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(StringUtilTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "", "c"};
  EXPECT_EQ(Join(parts, ","), "a,,c");
  EXPECT_EQ(Split("a,,c", ','), parts);
  EXPECT_EQ(Split("", ','), std::vector<std::string>{""});
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("freshen", "fresh"));
  EXPECT_FALSE(StartsWith("fresh", "freshen"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(TableWriterTest, AlignsColumns) {
  TableWriter table({"name", "value"});
  table.AddRow({"pf", "0.5"});
  table.AddRow({"general_freshness", "0.25"});
  const std::string text = table.ToText();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("general_freshness"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(TableWriterTest, PadsShortRows) {
  TableWriter table({"a", "b", "c"});
  table.AddRow({"1"});
  EXPECT_EQ(table.num_rows(), 1u);
  const std::string csv = table.ToCsv();
  EXPECT_EQ(csv, "a,b,c\n1,,\n");
}

TEST(TableWriterTest, CsvEscapesSpecialCharacters) {
  TableWriter table({"k"});
  table.AddRow({"a,b\"c"});
  EXPECT_EQ(table.ToCsv(), "k\n\"a,b\"\"c\"\n");
}

TEST(TableWriterTest, NumericRowFormatsWithPrecision) {
  TableWriter table({"x", "y"});
  table.AddNumericRow({1.23456, 2.0}, 2);
  EXPECT_EQ(table.ToCsv(), "x,y\n1.23,2.00\n");
}

TEST(TimerTest, ElapsedIsMonotoneAndRestartable) {
  WallTimer timer;
  const double t0 = timer.ElapsedSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double t1 = timer.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  EXPECT_GT(t1, t0);
  EXPECT_GE(t1, 0.004);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), t1);
  EXPECT_NEAR(timer.ElapsedMillis(), timer.ElapsedSeconds() * 1e3,
              timer.ElapsedMillis());
}

}  // namespace
}  // namespace freshen
