// Tests for catalog CSV parsing/serialization and the file helpers.
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "io/catalog_io.h"
#include "stats/descriptive.h"

namespace freshen {
namespace {

TEST(CatalogCsvTest, ParsesMinimalCatalog) {
  const auto catalog = ParseCatalogCsv(
                           "change_rate,access_prob\n"
                           "2.0,0.5\n"
                           "1.0,0.5\n")
                           .value();
  ASSERT_EQ(catalog.size(), 2u);
  EXPECT_DOUBLE_EQ(catalog[0].change_rate, 2.0);
  EXPECT_DOUBLE_EQ(catalog[0].access_prob, 0.5);
  EXPECT_DOUBLE_EQ(catalog[0].size, 1.0);
}

TEST(CatalogCsvTest, NormalizesRawAccessCounts) {
  const auto catalog = ParseCatalogCsv(
                           "change_rate,access_prob\n"
                           "1.0,30\n"
                           "1.0,10\n")
                           .value();
  EXPECT_DOUBLE_EQ(catalog[0].access_prob, 0.75);
  EXPECT_DOUBLE_EQ(catalog[1].access_prob, 0.25);
}

TEST(CatalogCsvTest, ColumnsInAnyOrderWithExtras) {
  const auto catalog = ParseCatalogCsv(
                           "url,size,access_prob,change_rate\n"
                           "http://a,2.0,0.6,3.0\n"
                           "http://b,4.0,0.4,1.0\n")
                           .value();
  ASSERT_EQ(catalog.size(), 2u);
  EXPECT_DOUBLE_EQ(catalog[0].size, 2.0);
  EXPECT_DOUBLE_EQ(catalog[0].change_rate, 3.0);
  EXPECT_DOUBLE_EQ(catalog[1].access_prob, 0.4);
}

TEST(CatalogCsvTest, HeaderIsCaseAndSpaceInsensitive) {
  const auto catalog = ParseCatalogCsv(
                           " Change_Rate , ACCESS_PROB \r\n"
                           "1.5,1.0\n")
                           .value();
  ASSERT_EQ(catalog.size(), 1u);
  EXPECT_DOUBLE_EQ(catalog[0].change_rate, 1.5);
}

TEST(CatalogCsvTest, SkipsBlankLines) {
  const auto catalog = ParseCatalogCsv(
                           "change_rate,access_prob\n"
                           "1.0,1.0\n"
                           "\n"
                           "2.0,1.0\n"
                           "\n")
                           .value();
  EXPECT_EQ(catalog.size(), 2u);
}

TEST(CatalogCsvTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCatalogCsv("").ok());
  EXPECT_FALSE(ParseCatalogCsv("change_rate,access_prob\n").ok());
  EXPECT_FALSE(ParseCatalogCsv("foo,bar\n1,2\n").ok());  // Wrong header.
  EXPECT_FALSE(
      ParseCatalogCsv("change_rate,access_prob\nnot_a_number,1\n").ok());
  EXPECT_FALSE(ParseCatalogCsv("change_rate,access_prob\n-1,1\n").ok());
  EXPECT_FALSE(ParseCatalogCsv("change_rate,access_prob\n1\n").ok());
  EXPECT_FALSE(
      ParseCatalogCsv("change_rate,access_prob,size\n1,1,0\n").ok());
  // All-zero access weights cannot be normalized.
  EXPECT_FALSE(ParseCatalogCsv("change_rate,access_prob\n1,0\n2,0\n").ok());
}

TEST(CatalogCsvTest, AcceptsIdColumnWithUniqueIds) {
  const auto catalog = ParseCatalogCsv(
                           "id,change_rate,access_prob\n"
                           "0,2.0,0.5\n"
                           "7,1.0,0.5\n")
                           .value();
  EXPECT_EQ(catalog.size(), 2u);
}

TEST(CatalogCsvTest, RejectsDuplicateIdsWithBothLineNumbers) {
  const auto result = ParseCatalogCsv(
      "id,change_rate,access_prob\n"
      "3,2.0,0.5\n"
      "1,1.0,0.2\n"
      "3,1.0,0.3\n");
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("line 4: duplicate element id 3"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("first declared on line 2"), std::string::npos)
      << message;
}

TEST(CatalogCsvTest, RejectsMalformedIds) {
  EXPECT_FALSE(
      ParseCatalogCsv("id,change_rate,access_prob\nx,1,1\n").ok());
  EXPECT_FALSE(
      ParseCatalogCsv("id,change_rate,access_prob\n-2,1,1\n").ok());
  EXPECT_FALSE(
      ParseCatalogCsv("id,change_rate,access_prob\n1.5,1,1\n").ok());
}

TEST(CatalogCsvTest, RejectsNonFiniteValuesWithDiagnostic) {
  const auto nan_result =
      ParseCatalogCsv("change_rate,access_prob\nnan,1\n");
  ASSERT_FALSE(nan_result.ok());
  EXPECT_NE(nan_result.status().ToString().find("is not a finite number"),
            std::string::npos)
      << nan_result.status().ToString();
  EXPECT_FALSE(ParseCatalogCsv("change_rate,access_prob\ninf,1\n").ok());
  EXPECT_FALSE(ParseCatalogCsv("change_rate,access_prob\n1,nan\n").ok());
  EXPECT_FALSE(
      ParseCatalogCsv("change_rate,access_prob,size\n1,1,inf\n").ok());
  EXPECT_FALSE(ParseCatalogCsv("change_rate,access_prob\n1e999,1\n").ok());
  // Negative probabilities are rejected even though they are finite.
  EXPECT_FALSE(ParseCatalogCsv("change_rate,access_prob\n1,-0.5\n").ok());
}

TEST(CatalogCsvTest, RoundTripsThroughSerialization) {
  const ElementSet original =
      MakeElementSet({1.25, 3.5, 0.125}, {0.5, 0.25, 0.25}, {1.0, 2.5, 0.5});
  const auto parsed = ParseCatalogCsv(CatalogToCsv(original)).value();
  ASSERT_EQ(parsed.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed[i].change_rate, original[i].change_rate);
    EXPECT_DOUBLE_EQ(parsed[i].access_prob, original[i].access_prob);
    EXPECT_DOUBLE_EQ(parsed[i].size, original[i].size);
  }
}

TEST(CatalogCsvTest, PlanCsvHasExpectedColumns) {
  const ElementSet elements = MakeElementSet({1.0, 2.0}, {0.5, 0.5},
                                             {1.0, 4.0});
  const std::string csv = PlanToCsv(elements, {2.0, 0.0});
  EXPECT_NE(csv.find("element,frequency,interval,bandwidth"),
            std::string::npos);
  EXPECT_NE(csv.find("0,2,0.5,2"), std::string::npos);
  EXPECT_NE(csv.find("1,0,0,0"), std::string::npos);
}

TEST(FileIoTest, RoundTripsThroughDisk) {
  const std::string path = ::testing::TempDir() + "/freshen_io_test.csv";
  const ElementSet original = MakeElementSet({2.0, 4.0}, {0.3, 0.7});
  ASSERT_TRUE(SaveCatalogCsv(original, path).ok());
  const auto loaded = LoadCatalogCsv(path).value();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[1].change_rate, 4.0);
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsNotFound) {
  const auto result = LoadCatalogCsv("/nonexistent/freshen/having.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(FileIoTest, LoadErrorMentionsPath) {
  const std::string path = ::testing::TempDir() + "/freshen_bad.csv";
  ASSERT_TRUE(WriteStringToFile("bogus\n1,2\n", path).ok());
  const auto result = LoadCatalogCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

size_t OpenFileDescriptors() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator()));
}

// A write that comes up short (the device is full) is an Internal error
// and still closes the file, so repeated failures leak no descriptor.
TEST(FileIoTest, ShortWriteFailsAndClosesTheFile) {
  if (!std::filesystem::exists("/dev/full") ||
      !std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "needs /dev/full and /proc/self/fd";
  }
  const std::string text(size_t{1} << 20, 'x');
  const size_t before = OpenFileDescriptors();
  for (int attempt = 0; attempt < 5; ++attempt) {
    const Status status = WriteStringToFile(text, "/dev/full");
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
  }
  EXPECT_EQ(OpenFileDescriptors(), before);
}

}  // namespace
}  // namespace freshen
