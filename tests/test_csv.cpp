#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.hpp"

namespace laacad {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// One file per case: ctest runs each case as its own process, so a shared
// path let one case's TearDown delete another's file under `ctest -j`.
class CsvFile : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ =
      ::testing::TempDir() + "csv_writer_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(CsvFile, PlainFieldsPassThrough) {
  {
    CsvWriter csv(path_, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.add_row({"1", "2.5"});
  }
  EXPECT_EQ(slurp(path_), "a,b\n1,2.5\n");
}

TEST_F(CsvFile, FieldsWithCommasQuotesNewlinesAreQuoted) {
  {
    CsvWriter csv(path_, {"metric", "value"});
    csv.add_row({"load, max", "12"});
    csv.add_row({"say \"hi\"", "multi\nline"});
  }
  EXPECT_EQ(slurp(path_),
            "metric,value\n"
            "\"load, max\",12\n"
            "\"say \"\"hi\"\"\",\"multi\nline\"\n");
}

TEST_F(CsvFile, ShortRowsArePaddedToHeaderWidth) {
  {
    CsvWriter csv(path_, {"a", "b", "c"});
    csv.add_row({"1"});
  }
  EXPECT_EQ(slurp(path_), "a,b,c\n1,,\n");
}

TEST(CsvEscape, Rules) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape(""), "");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
  EXPECT_EQ(CsvWriter::escape("a\rb"), "\"a\rb\"");
  EXPECT_EQ(CsvWriter::escape("\""), "\"\"\"\"");
}

}  // namespace
}  // namespace laacad
