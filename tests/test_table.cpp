#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/rational.hpp"

namespace resched {
namespace {

TEST(Table, HeaderOnly) {
  Table table({"a", "bb"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| a | bb |"), std::string::npos);
  EXPECT_EQ(table.rows(), 0u);
}

TEST(Table, AlignsColumns) {
  Table table({"x", "value"});
  table.add_row({"longer", "1"});
  table.add_row({"s", "22"});
  const std::string out = table.to_string();
  // Every line has the same length.
  std::istringstream is(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, MixedCellTypesViaAdd) {
  Table table({"name", "count", "ratio"});
  table.add("row", 42, 3.14159);
  EXPECT_EQ(table.rows(), 1u);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.1416"), std::string::npos);  // 4-digit default
}

TEST(Table, RationalCellsViaToString) {
  Table table({"bound"});
  table.add(Rational(31, 6));
  EXPECT_NE(table.to_string().find("31/6"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, PrintMatchesToString) {
  Table table({"h"});
  table.add_row({"v"});
  std::ostringstream os;
  table.print(os);
  EXPECT_EQ(os.str(), table.to_string());
}

TEST(Table, CsvQuotesOnlyCellsThatNeedIt) {
  Table table({"order / algorithm", "ratio"});
  table.add("local-search(lpt,100)", Rational(31, 6));
  table.add("say \"hi\"", 2);
  EXPECT_EQ(table.to_csv(),
            "order / algorithm,ratio\n"
            "\"local-search(lpt,100)\",31/6\n"
            "\"say \"\"hi\"\"\",2\n");
}

}  // namespace
}  // namespace resched
