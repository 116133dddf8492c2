#include "util/csv.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace gva {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Named after the test, not the fixture's address: ctest runs each
    // test in its own process, and under ASan's deterministic allocator
    // those processes place the fixture at the same address, so parallel
    // tests would share one file.
    path_ = ::testing::TempDir() + "/gva_csv_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& contents) {
    std::ofstream out(path_);
    out << contents;
  }

  std::string path_;
};

TEST_F(CsvTest, ParseDoubleAcceptsCommonForms) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -2 "), -2.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e-3"), 0.001);
}

TEST_F(CsvTest, ParseDoubleAcceptsFiniteUnderflow) {
  // strtod flags underflow with ERANGE; the values are still finite.
  auto small = ParseDouble("1e-310");
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_EQ(*small, std::strtod("1e-310", nullptr));
  EXPECT_GT(*small, 0.0);
  auto subnormal = ParseDouble("4.9e-324");
  ASSERT_TRUE(subnormal.ok()) << subnormal.status();
  EXPECT_EQ(*subnormal, std::numeric_limits<double>::denorm_min());
  auto zero = ParseDouble("1e-400");
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(*zero, 0.0);
  // Overflow saturates to infinity and stays rejected.
  EXPECT_EQ(ParseDouble("1e309").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("-1e309").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.2x").ok());
  for (const char* non_finite : {"nan", "inf", "-inf"}) {
    EXPECT_EQ(ParseDouble(non_finite).status().code(),
              StatusCode::kInvalidArgument)
        << non_finite;
  }
}

TEST_F(CsvTest, ReadsSingleColumn) {
  WriteFile("1.0\n2.5\n-3\n");
  auto values = ReadCsvColumn(path_);
  ASSERT_TRUE(values.ok()) << values.status();
  EXPECT_EQ(*values, (std::vector<double>{1.0, 2.5, -3.0}));
}

TEST_F(CsvTest, SkipsBlankAndCommentLines) {
  WriteFile("# header comment\n1\n\n2\n   \n3\n");
  auto values = ReadCsvColumn(path_);
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*values, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST_F(CsvTest, ToleratesHeaderRow) {
  WriteFile("value\n1\n2\n");
  auto values = ReadCsvColumn(path_);
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*values, (std::vector<double>{1.0, 2.0}));
}

TEST_F(CsvTest, ReadsRequestedColumn) {
  WriteFile("t,v\n0,10\n1,20\n2,30\n");
  auto values = ReadCsvColumn(path_, 1);
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*values, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST_F(CsvTest, FailsOnMissingColumn) {
  WriteFile("1,2\n3\n");
  auto values = ReadCsvColumn(path_, 1);
  EXPECT_FALSE(values.ok());
  EXPECT_EQ(values.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, FailsOnMalformedDataLine) {
  WriteFile("1\nnot_a_number\n3\n");
  auto values = ReadCsvColumn(path_);
  EXPECT_FALSE(values.ok());
}

TEST_F(CsvTest, FailsOnMissingFile) {
  auto values = ReadCsvColumn("/nonexistent/path/file.csv");
  EXPECT_FALSE(values.ok());
  EXPECT_EQ(values.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, WriteReadRoundTrip) {
  std::vector<double> values{1.5, -2.25, 1e-6, 123456.789};
  ASSERT_TRUE(WriteCsvColumn(path_, values, "v").ok());
  auto back = ReadCsvColumn(path_);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ((*back)[i], values[i]);
  }
}

TEST_F(CsvTest, WritesMultipleColumns) {
  ASSERT_TRUE(
      WriteCsvColumns(path_, {"a", "b"}, {{1.0, 2.0}, {3.0, 4.0}}).ok());
  auto a = ReadCsvColumn(path_, 0);
  auto b = ReadCsvColumn(path_, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(*b, (std::vector<double>{3.0, 4.0}));
}

TEST_F(CsvTest, RejectsMismatchedColumns) {
  EXPECT_FALSE(WriteCsvColumns(path_, {"a"}, {{1.0}, {2.0}}).ok());
  EXPECT_FALSE(WriteCsvColumns(path_, {"a", "b"}, {{1.0}, {2.0, 3.0}}).ok());
}

TEST(ParseUnsignedTest, AcceptsDigitsUpToMax) {
  EXPECT_EQ(*ParseUnsigned("0", 10), 0u);
  EXPECT_EQ(*ParseUnsigned("10", 10), 10u);
  EXPECT_EQ(*ParseUnsigned("007", 10), 7u);
  EXPECT_EQ(*ParseUnsigned("65535", 65535), 65535u);
  EXPECT_EQ(*ParseUnsigned("18446744073709551615", UINT64_MAX), UINT64_MAX);
}

TEST(ParseUnsignedTest, RejectsEverythingElse) {
  for (const char* text :
       {"", "abc", "-1", "+1", " 1", "1 ", "\t1", "1x", "0x10", "1.5", "1e3",
        "18446744073709551616", "99999999999999999999999"}) {
    const StatusOr<uint64_t> parsed = ParseUnsigned(text, UINT64_MAX);
    ASSERT_FALSE(parsed.ok()) << "'" << text << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(ParseUnsignedTest, RejectsValuesAboveMax) {
  const StatusOr<uint64_t> port = ParseUnsigned("65536", 65535);
  ASSERT_FALSE(port.ok());
  EXPECT_EQ(port.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(port.status().message().find("65535"), std::string::npos);
  EXPECT_FALSE(ParseUnsigned("11", 10).ok());
  EXPECT_TRUE(ParseUnsigned("0", 0).ok());
  EXPECT_FALSE(ParseUnsigned("1", 0).ok());
}

}  // namespace
}  // namespace gva
