// Tests for the shared bench workload builder (bench/common).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/workloads.h"
#include "util/error.h"

namespace cs::bench {
namespace {

TEST(Workloads, DeterministicForSeed) {
  const model::ProblemSpec a = make_eval_spec(8, 6, 0.1, 42);
  const model::ProblemSpec b = make_eval_spec(8, 6, 0.1, 42);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows.flow(static_cast<model::FlowId>(f)),
              b.flows.flow(static_cast<model::FlowId>(f)));
  }
  EXPECT_EQ(a.connectivity.sorted(), b.connectivity.sorted());
  EXPECT_EQ(a.network.link_count(), b.network.link_count());
}

TEST(Workloads, DifferentSeedsDiffer) {
  const model::ProblemSpec a = make_eval_spec(8, 6, 0.1, 1);
  const model::ProblemSpec b = make_eval_spec(8, 6, 0.1, 2);
  // Flow sets almost surely differ (counts or contents).
  bool differ = a.flows.size() != b.flows.size();
  if (!differ) {
    for (std::size_t f = 0; f < a.flows.size() && !differ; ++f)
      differ = !(a.flows.flow(static_cast<model::FlowId>(f)) ==
                 b.flows.flow(static_cast<model::FlowId>(f)));
  }
  EXPECT_TRUE(differ);
}

TEST(Workloads, RespectsMethodologyBounds) {
  const model::ProblemSpec spec = make_eval_spec(10, 8, 0.2, 7);
  EXPECT_EQ(spec.network.host_count(), 10u);
  EXPECT_EQ(spec.network.router_count(), 8u);
  // 1..3 services per ordered pair.
  EXPECT_GE(spec.flows.size(), 90u);
  EXPECT_LE(spec.flows.size(), 270u);
  const auto expected_cr = static_cast<std::size_t>(
      0.2 * static_cast<double>(spec.flows.size()) + 0.5);
  EXPECT_EQ(spec.connectivity.size(), expected_cr);
  EXPECT_NO_THROW(spec.validate());
}

TEST(Workloads, RunSynthesisProducesVerdictAndTiming) {
  model::ProblemSpec spec = make_eval_spec(6, 5, 0.1, 3);
  const TimedRun run = run_synthesis(
      spec, model::Sliders{util::Fixed::from_int(2),
                           util::Fixed::from_int(3),
                           util::Fixed::from_int(80)});
  EXPECT_NE(run.status, smt::CheckResult::kUnknown);
  EXPECT_GT(run.seconds, 0.0);
  EXPECT_GE(run.seconds, run.encode_seconds);
  if (run.status == smt::CheckResult::kSat) {
    EXPECT_TRUE(run.design.has_value());
  }
}

TEST(Workloads, EmitWritesCsv) {
  const std::string name = ::testing::TempDir() + "/cs_bench_emit_test";
  emit(name, "test table", {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  std::ifstream in(name + ".csv");
  ASSERT_TRUE(static_cast<bool>(in));
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::filesystem::remove(name + ".csv");
}

TEST(Workloads, EmitWritesJsonRunsFromTheSameCells) {
  const std::string name = ::testing::TempDir() + "/cs_bench_emit_json";
  const std::string json = name + ".json";
  emit(name, "test table", {"label", "count", "rate"},
       {{"say \"hi\"", 3, number(2.0 / 3.0, 3)},
        {"b", std::int64_t{-7}, number(1.5, 1)}},
       "cs-bench-test-v1", json);

  std::ifstream in(json);
  ASSERT_TRUE(static_cast<bool>(in));
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(),
            "{\n"
            "  \"schema\": \"cs-bench-test-v1\",\n"
            "  \"runs\": [\n"
            "    {\"label\": \"say \\\"hi\\\"\", \"count\": 3, "
            "\"rate\": 0.667},\n"
            "    {\"label\": \"b\", \"count\": -7, \"rate\": 1.5}\n"
            "  ]\n"
            "}\n");

  // The CSV carries the same cell text.
  std::ifstream csv(name + ".csv");
  std::string line;
  std::getline(csv, line);
  EXPECT_EQ(line, "label,count,rate");
  std::getline(csv, line);
  EXPECT_EQ(line, "\"say \"\"hi\"\"\",3,0.667");
  std::filesystem::remove(json);
  std::filesystem::remove(name + ".csv");
}

TEST(Workloads, EmitThrowsOnUnwritablePaths) {
  const std::string dir = ::testing::TempDir() + "/cs_bench_no_such_dir";
  const std::string name = ::testing::TempDir() + "/cs_bench_emit_unwritable";
  EXPECT_THROW(emit(name, "t", {"a"}, {{1}}, "cs-bench-test-v1",
                    dir + "/BENCH_x.json"),
               util::Error);
  EXPECT_THROW(emit(dir + "/t", "t", {"a"}, {{1}}), util::Error);
  std::filesystem::remove(name + ".csv");
}

TEST(Workloads, FmtSeconds) {
  EXPECT_EQ(fmt_seconds(1.5), "1.500");
  EXPECT_EQ(fmt_seconds(0.0), "0.000");
}

}  // namespace
}  // namespace cs::bench
