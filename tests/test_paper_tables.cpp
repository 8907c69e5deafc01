// Reproduction check: the paper's tables, as report/paper_tables builds them
// and the bench binaries print them, match tests/data/paper_tables.txt byte
// for byte. A tie-break or generator change that moves a paper number fails
// here; BUILDING.md says how to regenerate the file when the move is meant.
#include "report/paper_tables.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace resched {
namespace {

std::string read_golden() {
  std::ifstream is(std::string(RESCHED_TEST_DATA_DIR) + "/paper_tables.txt");
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

TEST(PaperTables, MatchTheGolden) {
  std::ostringstream actual;
  try {
    write_paper_tables(actual);
  } catch (const std::logic_error& error) {
    FAIL() << error.what();
  }
  const std::string golden = read_golden();
  ASSERT_FALSE(golden.empty()) << "tests/data/paper_tables.txt is missing";
  if (actual.str() == golden) return;

  // Name the first line that moved; the whole output goes to the working
  // directory for a full diff.
  std::ofstream("paper_tables.actual.txt") << actual.str();
  std::istringstream got(actual.str());
  std::istringstream want(golden);
  std::string got_line;
  std::string want_line;
  int line = 0;
  while (true) {
    ++line;
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    if (!more_got || !more_want || got_line != want_line) {
      FAIL() << "paper_tables.txt line " << line << " moved\n  golden: "
             << (more_want ? want_line : "<end of file>")
             << "\n  actual: " << (more_got ? got_line : "<end of output>")
             << "\n(full output written to paper_tables.actual.txt)";
    }
  }
}

// A figure's table list holds the tables its text prints, in order.
TEST(PaperTables, TablesAreThePrintedOnes) {
  const PaperFigure fig4 = fig4_bounds();
  ASSERT_EQ(fig4.tables.size(), 2u);
  EXPECT_EQ(fig4.tables[0].label, "curve");
  EXPECT_LT(fig4.text.find(fig4.tables[0].table.to_string()),
            fig4.text.find(fig4.tables[1].table.to_string()));
  EXPECT_NE(fig4.text.find(fig4.tables[1].table.to_string()),
            std::string::npos);
}

TEST(PaperTables, KeepTheInstancesBehindTheRows) {
  const PaperFigure fig3 = fig3_adversarial();
  ASSERT_EQ(fig3.instances.size(), fig3.tables.front().table.rows());
  EXPECT_EQ(fig3.instances[4].first, "prop2_k6");
  EXPECT_EQ(fig3.instances[4].second.m(), 180);

  const PaperFigure sweep = alpha_sweep();
  EXPECT_EQ(sweep.tables.size(), 5u);     // one per scheduler
  EXPECT_EQ(sweep.instances.size(), 70u);  // 7 alphas x 10 seeds
  EXPECT_EQ(sweep.instances.front().first, "alpha_1_8_seed1");
}

}  // namespace
}  // namespace resched
