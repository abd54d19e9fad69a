#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "harness/cases.hpp"
#include "harness/experiment_config.hpp"
#include "harness/monte_carlo.hpp"
#include "harness/table.hpp"
#include "processes/target_density.hpp"

namespace wde {
namespace harness {
namespace {

TEST(ParallelForTest, CoversAllIndicesOnce) {
  for (int threads : {1, 4}) {
    std::vector<std::atomic<int>> hits(100);
    ParallelFor(100, threads, [&](int i) { hits[static_cast<size_t>(i)]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  ParallelFor(0, 4, [](int) { FAIL() << "must not be called"; });
}

TEST(CollectCurvesTest, RepsGetDistinctStreams) {
  const std::vector<std::vector<double>> rows = CollectCurves(
      8, 7, 1, 1, [](stats::Rng& rng, int) {
        return std::vector<double>{rng.UniformDouble()};
      });
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      EXPECT_NE(rows[i][0], rows[j][0]);
    }
  }
}

TEST(MeanCurveTest, AveragesRows) {
  const std::vector<double> mean = MeanCurve(
      4, 1, 1, 3, [](stats::Rng&, int rep) {
        return std::vector<double>{static_cast<double>(rep), 1.0, 2.0 * rep};
      });
  EXPECT_DOUBLE_EQ(mean[0], 1.5);
  EXPECT_DOUBLE_EQ(mean[1], 1.0);
  EXPECT_DOUBLE_EQ(mean[2], 3.0);
}

TEST(CollectCurvesTest, ShapeAndDeterminism) {
  const auto body = [](stats::Rng& rng, int) {
    return std::vector<double>{rng.UniformDouble(), rng.UniformDouble()};
  };
  const auto rows1 = CollectCurves(5, 3, 1, 2, body);
  const auto rows2 = CollectCurves(5, 3, 2, 2, body);
  EXPECT_EQ(rows1, rows2);
  EXPECT_EQ(rows1.size(), 5u);
}

TEST(ExperimentConfigTest, EnvOverrides) {
  ::setenv("WDE_N", "256", 1);
  ::setenv("WDE_REPS", "17", 1);
  ::setenv("WDE_SEED", "5", 1);
  ::setenv("WDE_GRID", "129", 1);
  ::setenv("WDE_THREADS", "2", 1);
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  EXPECT_EQ(config.n, 256u);
  EXPECT_EQ(config.replicates, 17);
  EXPECT_EQ(config.seed, 5u);
  EXPECT_EQ(config.grid_points, 129u);
  EXPECT_EQ(config.threads, 2);
  ::unsetenv("WDE_N");
  ::unsetenv("WDE_REPS");
  ::unsetenv("WDE_SEED");
  ::unsetenv("WDE_GRID");
  ::unsetenv("WDE_THREADS");
  const ExperimentConfig defaults = ExperimentConfig::FromEnv(2048, 100, 513);
  EXPECT_EQ(defaults.n, 2048u);
  EXPECT_EQ(defaults.replicates, 100);
  EXPECT_EQ(defaults.grid_points, 513u);
  EXPECT_FALSE(defaults.Describe().empty());
}

TEST(TextTableTest, AlignedOutput) {
  TextTable table({"case", "value"});
  table.AddRow({"Case 1", "0.10"});
  table.AddRow({"Case 22", "0.2"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("case"), std::string::npos);
  EXPECT_NE(out.find("Case 22"), std::string::npos);
  // Four lines: header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TextTableDeathTest, RejectsRaggedRows) {
  TextTable table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "row width");
}

TEST(PrintSeriesTest, FormatsColumns) {
  std::ostringstream os;
  PrintSeries(os, "demo", {0.0, 0.5},
              {{"f", {1.0, 2.0}}, {"g", {3.0, 4.0}}});
  const std::string out = os.str();
  EXPECT_NE(out.find("# demo"), std::string::npos);
  EXPECT_NE(out.find("x f g"), std::string::npos);
  EXPECT_NE(out.find("0.5 2 4"), std::string::npos);
}

TEST(CasesTest, NamesAndConstruction) {
  auto target = std::make_shared<const processes::UniformDensity>();
  for (DependenceCase c : kAllCases) {
    EXPECT_NE(std::string(CaseName(c)).find("Case"), std::string::npos);
    const processes::TransformedProcess process = MakeCase(c, target);
    stats::Rng rng(1);
    EXPECT_EQ(process.Sample(16, rng).size(), 16u);
  }
}

}  // namespace
}  // namespace harness
}  // namespace wde
