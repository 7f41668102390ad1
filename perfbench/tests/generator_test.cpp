// Properties of the benchmark's seeded workload generator: a seed fixes
// every byte the program receives, the declared mixes come out exactly,
// and another seed gives other networks.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>

#include "generator.h"

namespace perfbench {
namespace {

std::vector<std::string> cold_lines(const ColdStream& s) {
  std::vector<std::string> out;
  for (const auto& conn : s.connections)
    for (const ColdRequest& r : conn) out.push_back(r.line);
  return out;
}

std::vector<std::string> hot_lines(const HotStream& s) {
  std::vector<std::string> out;
  for (const auto& conn : s.connections)
    for (const HotSlot& slot : conn) out.push_back(s.lines[slot.line]);
  return out;
}

TEST(Generator, SameSeedGivesByteIdenticalStreams) {
  EXPECT_EQ(cold_lines(make_serve_cold(7, 4, 60)),
            cold_lines(make_serve_cold(7, 4, 60)));
  EXPECT_EQ(hot_lines(make_serve_hot(7, 4, 400)),
            hot_lines(make_serve_hot(7, 4, 400)));
  const ChurnStream a = make_churn(7, 100, 400);
  const ChurnStream b = make_churn(7, 100, 400);
  EXPECT_EQ(a.deltas, b.deltas);
  EXPECT_EQ(a.fabric.links, b.fabric.links);
}

TEST(Generator, LongerStreamsExtendShorterOnes) {
  // A run that consumes more of a stream sees the same prefix.
  const auto short_cold = make_serve_cold(3, 2, 40);
  const auto long_cold = make_serve_cold(3, 2, 100);
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t i = 0; i < 40; ++i)
      EXPECT_EQ(short_cold.connections[c][i].line,
                long_cold.connections[c][i].line);
  const auto short_hot = make_serve_hot(3, 2, 100);
  const auto long_hot = make_serve_hot(3, 2, 300);
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t i = 0; i < 100; ++i)
      EXPECT_EQ(short_hot.lines[short_hot.connections[c][i].line],
                long_hot.lines[long_hot.connections[c][i].line]);
  const auto short_churn = make_churn(3, 100, 100);
  const auto long_churn = make_churn(3, 100, 300);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(short_churn.deltas[i], long_churn.deltas[i]);
}

TEST(Generator, DeclaredMixesComeOutExactly) {
  constexpr int kBlocks = 12;
  const ColdStream cold = make_serve_cold(11, 4, kBlocks * kColdBlock);
  for (const auto& conn : cold.connections) {
    std::array<int, kColdKinds> got{};
    for (const ColdRequest& r : conn) ++got[static_cast<std::size_t>(r.kind)];
    for (std::size_t k = 0; k < got.size(); ++k)
      EXPECT_EQ(got[k], kBlocks * kColdMix[k])
          << cold_kind_name(static_cast<ColdKind>(k));
  }

  const HotStream hot = make_serve_hot(11, 4, kBlocks * kHotBlock);
  std::array<int, kHotKinds> got_hot{};
  for (const HotKind k : hot.schedule) ++got_hot[static_cast<std::size_t>(k)];
  for (std::size_t k = 0; k < got_hot.size(); ++k)
    EXPECT_EQ(got_hot[k], kBlocks * kHotMix[k])
        << hot_kind_name(static_cast<HotKind>(k));

  const ChurnStream churn = make_churn(11, 100, kBlocks * kChurnBlock);
  std::array<int, kChurnClasses> got_churn{};
  for (std::size_t i = 0; i < churn.deltas.size(); ++i) {
    const ChurnClass c = churn.classes[i];
    ++got_churn[static_cast<std::size_t>(c)];
    // Each delta is one op of its declared class.
    const std::string& delta = churn.deltas[i];
    const std::string op = delta.substr(0, delta.find(','));
    static const std::array<std::set<std::string>, kChurnClasses> kOps = {{
        {"retune"},
        {"add-uic", "remove-uic"},
        {"add-flow", "remove-flow"},
        {"fail-link", "restore-link"},
        {"add-host", "remove-host"},
    }};
    EXPECT_TRUE(kOps[static_cast<std::size_t>(c)].contains(op)) << delta;
    EXPECT_EQ(delta.find(';'), std::string::npos);
  }
  for (std::size_t k = 0; k < got_churn.size(); ++k)
    EXPECT_EQ(got_churn[k], kBlocks * kChurnMix[k])
        << churn_class_name(static_cast<ChurnClass>(k));
}

TEST(Generator, ServeColdSizesAreStratifiedPerBlock) {
  const ColdStream cold = make_serve_cold(5, 1, 3 * kColdBlock);
  for (int b = 0; b < 3; ++b) {
    std::multiset<int> feasible;
    for (int i = 0; i < kColdBlock; ++i) {
      const ColdRequest& r =
          cold.connections[0][static_cast<std::size_t>(b * kColdBlock + i)];
      if (r.kind == ColdKind::kFeasible) feasible.insert(r.hosts);
    }
    std::multiset<int> want;
    for (int h = 8; h < 8 + kColdMix[0]; ++h) want.insert(h);
    EXPECT_EQ(feasible, want);
  }
}

TEST(Generator, AnotherSeedChangesTheSpecs) {
  const auto a = cold_lines(make_serve_cold(7, 4, 20));
  const auto b = cold_lines(make_serve_cold(8, 4, 20));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NE(a[i], b[i]);
  EXPECT_NE(make_serve_hot(7, 4, 20).base_texts,
            make_serve_hot(8, 4, 20).base_texts);
  EXPECT_NE(make_churn(7, 100, 40).deltas, make_churn(8, 100, 40).deltas);
}

TEST(Generator, EveryServeColdSpecIsNew) {
  const ColdStream cold = make_serve_cold(9, 4, 200);
  std::set<std::string> specs;
  for (const auto& conn : cold.connections)
    for (const ColdRequest& r : conn)
      EXPECT_TRUE(specs.insert(r.line.substr(0, r.line.find(' '))).second);
}

TEST(Generator, ServeHotKeysOutnumberTheCache) {
  const HotStream hot = make_serve_hot(9, 4, 2000);
  EXPECT_GT(static_cast<int>(hot.keys.size()), 256);
  EXPECT_EQ(hot.base_texts.size(), static_cast<std::size_t>(kHotBases));
  // The first request of each connection anchors its delta chain.
  EXPECT_NE(hot.schedule.front(), HotKind::kDelta);
}

TEST(Generator, Rendering) {
  EXPECT_EQ(base64("Man"), "TWFu");
  EXPECT_EQ(base64("Ma"), "TWE=");
  EXPECT_EQ(base64("M"), "TQ==");
  EXPECT_EQ(fixed3(3250), "3.250");
  EXPECT_EQ(fixed_canonical(3250), "3.25");
  EXPECT_EQ(fixed_canonical(2000), "2");
  Point p{false, 1500, 2000, 960000};
  EXPECT_EQ(request_line("inline:QQ==", p),
            "inline:QQ== feasibility 1.500 2.000 960.000");
}

TEST(Generator, TableIvTextListsEveryLinkAndRequirement) {
  Rng rng(1);
  const TableSpec spec = make_table_spec(Family::kFatTree, 12, rng);
  const std::string text = table_iv_text(spec);
  const auto has_line = [&](const std::string& line) {
    return text.find("\n" + line + "\n") != std::string::npos;
  };
  EXPECT_TRUE(has_line("12 " + std::to_string(spec.routers)));
  EXPECT_TRUE(has_line(std::to_string(spec.links.size())));
  EXPECT_EQ(spec.crs.size(), static_cast<std::size_t>(12 * 11 / 10));
}

}  // namespace
}  // namespace perfbench
