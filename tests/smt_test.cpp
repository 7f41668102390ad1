// Backend-equivalence tests: the Z3 backend and the from-scratch MiniPB
// backend must return the same verdict on every instance, and their models
// must satisfy the emitted constraints. Plus Z3's 32-bit cap conversion.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "smt/ir.h"
#include "spec_helpers.h"
#include "synth/synthesizer.h"
#include "util/error.h"
#include "util/rng.h"

namespace cs::smt {
namespace {

class BackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  std::unique_ptr<Backend> backend_ = make_backend(GetParam());
};

TEST_P(BackendTest, NameRoundTrips) {
  EXPECT_EQ(backend_from_name(backend_name(GetParam())), GetParam());
}

TEST(BackendName, RejectsUnknownSpellings) {
  for (const char* name : {"race", "mini"})
    EXPECT_THROW(backend_from_name(name), util::SpecError) << name;
}

TEST_P(BackendTest, ClauseBasics) {
  Backend& b = *backend_;
  const BoolVar x = b.new_bool("x");
  const BoolVar y = b.new_bool("y");
  b.add_clause({pos(x), pos(y)});
  b.add_unit(neg(x));
  ASSERT_EQ(b.check(), CheckResult::kSat);
  EXPECT_FALSE(b.model_value(x));
  EXPECT_TRUE(b.model_value(y));
}

TEST_P(BackendTest, ImplicationChain) {
  Backend& b = *backend_;
  std::vector<BoolVar> v;
  for (int i = 0; i < 10; ++i) v.push_back(b.new_bool(""));
  for (int i = 0; i + 1 < 10; ++i)
    b.add_implies(pos(v[static_cast<std::size_t>(i)]),
                  pos(v[static_cast<std::size_t>(i + 1)]));
  b.add_unit(pos(v[0]));
  ASSERT_EQ(b.check(), CheckResult::kSat);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(b.model_value(v[static_cast<std::size_t>(i)]));
}

TEST_P(BackendTest, AtMostOne) {
  Backend& b = *backend_;
  std::vector<Lit> lits;
  std::vector<BoolVar> vars;
  for (int i = 0; i < 5; ++i) {
    vars.push_back(b.new_bool(""));
    lits.push_back(pos(vars.back()));
  }
  b.add_at_most_one(lits);
  // Force at least two true -> unsat.
  std::vector<Term> terms;
  for (const BoolVar v : vars) terms.push_back(Term{pos(v), 1});
  b.add_linear_ge(terms, 2);
  EXPECT_EQ(b.check(), CheckResult::kUnsat);
}

TEST_P(BackendTest, LinearGeAndLe) {
  Backend& b = *backend_;
  std::vector<Term> terms;
  std::vector<BoolVar> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(b.new_bool(""));
    terms.push_back(Term{pos(vars.back()), i + 1});  // weights 1..4
  }
  b.add_linear_ge(terms, 6);
  b.add_linear_le(terms, 6);
  ASSERT_EQ(b.check(), CheckResult::kSat);
  std::int64_t sum = 0;
  for (int i = 0; i < 4; ++i)
    sum += b.model_value(vars[static_cast<std::size_t>(i)]) ? (i + 1) : 0;
  EXPECT_EQ(sum, 6);
}

TEST_P(BackendTest, NegativeCoefficients) {
  // 3x - 2y >= 1: x must be true whenever y is true; x alone ok.
  Backend& b = *backend_;
  const BoolVar x = b.new_bool("x");
  const BoolVar y = b.new_bool("y");
  b.add_linear_ge({Term{pos(x), 3}, Term{pos(y), -2}}, 1);
  b.add_unit(pos(y));
  ASSERT_EQ(b.check(), CheckResult::kSat);
  EXPECT_TRUE(b.model_value(x));
}

TEST_P(BackendTest, GuardedConstraintsToggle) {
  Backend& b = *backend_;
  const BoolVar g = b.new_bool("guard");
  std::vector<Term> terms;
  std::vector<BoolVar> vars;
  for (int i = 0; i < 3; ++i) {
    vars.push_back(b.new_bool(""));
    terms.push_back(Term{pos(vars.back()), 1});
  }
  // Guarded: all three true. Unguarded store also forbids var0.
  b.add_guarded_linear_ge(pos(g), terms, 3);
  b.add_unit(neg(vars[0]));
  // Without assuming the guard: satisfiable.
  EXPECT_EQ(b.check(), CheckResult::kSat);
  // Assuming the guard: 3 of 3 needed but var0 is false -> unsat, and the
  // core mentions the guard.
  ASSERT_EQ(b.check({pos(g)}), CheckResult::kUnsat);
  const auto core = b.unsat_core();
  ASSERT_FALSE(core.empty());
  EXPECT_EQ(core[0].var, g);
  EXPECT_FALSE(core[0].negated);
}

TEST_P(BackendTest, GuardedLeToggle) {
  Backend& b = *backend_;
  const BoolVar g = b.new_bool("guard");
  const BoolVar x = b.new_bool("x");
  const BoolVar y = b.new_bool("y");
  b.add_guarded_linear_le(pos(g), {Term{pos(x), 5}, Term{pos(y), 4}}, 3);
  b.add_clause({pos(x), pos(y)});
  EXPECT_EQ(b.check(), CheckResult::kSat);
  EXPECT_EQ(b.check({pos(g)}), CheckResult::kUnsat);
}

TEST_P(BackendTest, TriviallyTrueGuardedConstraintIsDropped) {
  Backend& b = *backend_;
  const BoolVar g = b.new_bool("guard");
  const BoolVar x = b.new_bool("x");
  b.add_guarded_linear_ge(pos(g), {Term{pos(x), 1}}, 0);  // always true
  EXPECT_EQ(b.check({pos(g)}), CheckResult::kSat);
}

TEST_P(BackendTest, ReusableAcrossChecks) {
  Backend& b = *backend_;
  const BoolVar x = b.new_bool("x");
  const BoolVar y = b.new_bool("y");
  b.add_clause({pos(x), pos(y)});
  EXPECT_EQ(b.check({neg(x)}), CheckResult::kSat);
  EXPECT_TRUE(b.model_value(y));
  EXPECT_EQ(b.check({neg(x), neg(y)}), CheckResult::kUnsat);
  EXPECT_EQ(b.check({pos(x)}), CheckResult::kSat);
}

TEST_P(BackendTest, MemoryReported) {
  EXPECT_GE(backend_->memory_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values(BackendKind::kZ3,
                                           BackendKind::kMiniPb),
                         [](const auto& info) {
                           return info.param == BackendKind::kZ3 ? "z3"
                                                                 : "minipb";
                         });

TEST(Z3Caps, CapAboveThirtyTwoBitsSaturatesInsteadOfWrapping) {
  // Z3 takes its caps as unsigned, so a cap above 2^32 must saturate: a
  // wrapped 2^32 + 1 is an rlimit of 1, which leaves the example undecided.
  const model::ProblemSpec spec = cs::testing::make_example_spec();
  synth::SynthesisOptions options;
  options.backend = BackendKind::kZ3;
  options.check_conflict_limit = (std::int64_t{1} << 32) + 1;
  synth::Synthesizer synthesizer(spec, options);
  EXPECT_EQ(synthesizer.synthesize().status, CheckResult::kSat);
}

// Randomized cross-backend agreement.
class CrossBackendTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossBackendTest, VerdictsAgree) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  auto z3 = make_backend(BackendKind::kZ3);
  auto mini = make_backend(BackendKind::kMiniPb);

  const int vars = static_cast<int>(rng.uniform(3, 8));
  for (int v = 0; v < vars; ++v) {
    z3->new_bool("");
    mini->new_bool("");
  }
  const auto rand_lit = [&] {
    const BoolVar v = static_cast<BoolVar>(rng.uniform(0, vars - 1));
    return rng.chance(0.5) ? pos(v) : neg(v);
  };

  const int clauses = static_cast<int>(rng.uniform(1, 15));
  for (int c = 0; c < clauses; ++c) {
    std::vector<Lit> lits;
    const int len = static_cast<int>(rng.uniform(1, 3));
    for (int l = 0; l < len; ++l) lits.push_back(rand_lit());
    z3->add_clause(lits);
    mini->add_clause(lits);
  }
  const int linears = static_cast<int>(rng.uniform(0, 4));
  for (int p = 0; p < linears; ++p) {
    std::vector<Term> terms;
    const int len = static_cast<int>(rng.uniform(1, 4));
    std::int64_t max_total = 0;
    for (int t = 0; t < len; ++t) {
      const std::int64_t coeff = rng.uniform(-3, 5);
      terms.push_back(Term{rand_lit(), coeff});
      max_total += coeff > 0 ? coeff : 0;
    }
    const std::int64_t bound = rng.uniform(0, std::max<std::int64_t>(
                                                  max_total, 1));
    if (rng.chance(0.5)) {
      z3->add_linear_ge(terms, bound);
      mini->add_linear_ge(terms, bound);
    } else {
      z3->add_linear_le(terms, bound);
      mini->add_linear_le(terms, bound);
    }
  }

  std::vector<Lit> assumptions;
  if (rng.chance(0.5)) assumptions.push_back(rand_lit());

  const CheckResult rz = z3->check(assumptions);
  const CheckResult rm = mini->check(assumptions);
  ASSERT_NE(rz, CheckResult::kUnknown);
  ASSERT_NE(rm, CheckResult::kUnknown);
  EXPECT_EQ(rz, rm);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrossBackendTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace cs::smt
