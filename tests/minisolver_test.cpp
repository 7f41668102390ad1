// Unit and property tests for the MiniPB CDCL solver.
//
// The property suites cross-check the solver against brute-force
// enumeration on small random instances — every SAT answer must produce a
// model satisfying all constraints, and every UNSAT answer must match the
// enumerator's verdict.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "minisolver/pb_constraint.h"
#include "minisolver/solver.h"
#include "util/error.h"
#include "util/rng.h"

namespace cs::minisolver {
namespace {

using Result = Solver::Result;

TEST(Literal, Packing) {
  const Lit p = Lit::pos(7);
  const Lit n = Lit::neg(7);
  EXPECT_EQ(p.var(), 7);
  EXPECT_EQ(n.var(), 7);
  EXPECT_FALSE(p.is_neg());
  EXPECT_TRUE(n.is_neg());
  EXPECT_EQ(~p, n);
  EXPECT_EQ(~n, p);
  EXPECT_NE(p.index(), n.index());
}

TEST(NormalizePb, MergesAndFlips) {
  // 2x0 + 3(~x0) >= 4  ->  x0 with signed coeff -1, const +3:
  // -(x0) >= 1  ->  (~x0) >= 2 ... compute: signed: +2-3=-1; bound 4-3=1;
  // flip: 1*(~x0) >= 1+1 = 2 -> trivially false (max sum 1 < 2).
  const PbConstraint pb = normalize_pb(
      {{Lit::pos(0), 2}, {Lit::neg(0), 3}}, 4);
  EXPECT_TRUE(pb.trivially_false());
}

TEST(NormalizePb, CancellingPairIsTrivial) {
  // x + ~x >= 1 is always true.
  const PbConstraint pb = normalize_pb(
      {{Lit::pos(0), 1}, {Lit::neg(0), 1}}, 1);
  EXPECT_TRUE(pb.trivially_true());
}

TEST(NormalizePb, SortsDescending) {
  const PbConstraint pb = normalize_pb(
      {{Lit::pos(0), 1}, {Lit::pos(1), 5}, {Lit::pos(2), 3}}, 2);
  ASSERT_EQ(pb.size(), 3u);
  ASSERT_EQ(pb.coeffs.size(), 3u);
  EXPECT_GE(pb.coeffs[0], pb.coeffs[1]);
  EXPECT_GE(pb.coeffs[1], pb.coeffs[2]);
}

TEST(NormalizePb, OverflowingSumsThrowInsteadOfWrapping) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() / 2 + 1;
  // Three negated terms shift the bound by −3·big.
  EXPECT_THROW(normalize_pb({{Lit::neg(0), big},
                             {Lit::neg(1), big},
                             {Lit::neg(2), big}},
                            0),
               util::Error);
  // Merging duplicates of one literal sums past int64.
  EXPECT_THROW(normalize_pb({{Lit::pos(0), big}, {Lit::pos(0), big}}, 1),
               util::Error);
  // The coefficient total (after capping at the bound) leaves int64.
  const PbConstraint pb =
      normalize_pb({{Lit::pos(0), big}, {Lit::pos(1), big}}, big);
  EXPECT_THROW((void)pb.trivially_false(), util::Error);
}

TEST(Solver, OverflowingPbIsRejectedAndSolverStaysUsable) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() / 2 + 1;
  EXPECT_THROW(s.add_linear_ge({{Lit::pos(a), big}, {Lit::pos(b), big}}, big),
               util::Error);
  // bound + max_coeff (the watch threshold) leaves int64.
  EXPECT_THROW(s.add_linear_ge({{Lit::pos(a), big}, {Lit::pos(b), 1},
                                {Lit::pos(c), 1}},
                               big + 1),
               util::Error);
  EXPECT_THROW(s.add_linear_le({{Lit::pos(a), std::numeric_limits<std::int64_t>::min()}}, 0),
               util::Error);
  EXPECT_TRUE(s.ok());
  s.add_clause({Lit::pos(a), Lit::pos(b)});
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.pb_bookkeeping_ok());
}

TEST(Solver, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({Lit::pos(a), Lit::pos(b)});
  s.add_clause({Lit::neg(a)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
}

TEST(Solver, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({Lit::pos(a)});
  EXPECT_FALSE(s.add_clause({Lit::neg(a)}));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, EmptyProblemIsSat) {
  Solver s;
  (void)s.new_var();
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Solver, ChainedImplications) {
  // x0 -> x1 -> ... -> x19, assert x0, so all true.
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 20; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 20; ++i)
    s.add_clause({Lit::neg(v[static_cast<std::size_t>(i)]),
                  Lit::pos(v[static_cast<std::size_t>(i + 1)])});
  s.add_clause({Lit::pos(v[0])});
  ASSERT_EQ(s.solve(), Result::kSat);
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(s.model_value(v[static_cast<std::size_t>(i)])) << i;
}

/// Pigeonhole principle: n+1 pigeons into n holes is UNSAT.
void build_php(Solver& s, int pigeons, int holes,
               std::vector<std::vector<Var>>& x) {
  x.assign(static_cast<std::size_t>(pigeons), {});
  for (int p = 0; p < pigeons; ++p)
    for (int h = 0; h < holes; ++h)
      x[static_cast<std::size_t>(p)].push_back(s.new_var());
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> some;
    for (int h = 0; h < holes; ++h)
      some.push_back(Lit::pos(x[static_cast<std::size_t>(p)]
                                  [static_cast<std::size_t>(h)]));
    s.add_clause(some);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause({Lit::neg(x[static_cast<std::size_t>(p1)]
                                   [static_cast<std::size_t>(h)]),
                      Lit::neg(x[static_cast<std::size_t>(p2)]
                                   [static_cast<std::size_t>(h)])});
}

TEST(Solver, PigeonholeUnsat) {
  Solver s;
  std::vector<std::vector<Var>> x;
  build_php(s, 6, 5, x);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, PigeonholeSatWhenEnoughHoles) {
  Solver s;
  std::vector<std::vector<Var>> x;
  build_php(s, 5, 5, x);
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Solver, CardinalityViaPb) {
  // Exactly 3 of 6 variables: >=3 and <=3.
  Solver s;
  std::vector<PbTerm> terms;
  for (int i = 0; i < 6; ++i)
    terms.push_back(PbTerm{Lit::pos(s.new_var()), 1});
  ASSERT_TRUE(s.add_linear_ge(terms, 3));
  ASSERT_TRUE(s.add_linear_le(terms, 3));
  ASSERT_EQ(s.solve(), Result::kSat);
  int count = 0;
  for (int i = 0; i < 6; ++i)
    count += s.model_value(i) ? 1 : 0;
  EXPECT_EQ(count, 3);
}

TEST(Solver, PbForcesAll) {
  // x0+x1+x2 >= 3 forces all three true by propagation.
  Solver s;
  std::vector<PbTerm> terms;
  for (int i = 0; i < 3; ++i)
    terms.push_back(PbTerm{Lit::pos(s.new_var()), 1});
  ASSERT_TRUE(s.add_linear_ge(terms, 3));
  ASSERT_EQ(s.solve(), Result::kSat);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(s.model_value(i));
}

TEST(Solver, PbWithWeightsConflictsWithClauses) {
  // 5a + 3b + 2c >= 8 and ~a: then need 3b+2c >= 8, impossible.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  ASSERT_TRUE(s.add_linear_ge(
      {{Lit::pos(a), 5}, {Lit::pos(b), 3}, {Lit::pos(c), 2}}, 8));
  s.add_clause({Lit::neg(a)});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, PbLeBudget) {
  // 5a+3b+2c <= 4 with clause a∨b: a impossible (5>4), so b; c allowed
  // only if 3+2<=4 fails -> c false when b true.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  ASSERT_TRUE(s.add_linear_le(
      {{Lit::pos(a), 5}, {Lit::pos(b), 3}, {Lit::pos(c), 2}}, 4));
  s.add_clause({Lit::pos(a), Lit::pos(b)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_FALSE(s.model_value(c));
}

TEST(Solver, AssumptionsSatAndUnsat) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({Lit::neg(a), Lit::pos(b)});  // a -> b
  EXPECT_EQ(s.solve({Lit::pos(a)}), Result::kSat);
  EXPECT_TRUE(s.model_value(b));
  // Assume a and ~b: contradiction with a->b.
  EXPECT_EQ(s.solve({Lit::pos(a), Lit::neg(b)}), Result::kUnsat);
  // Solver stays usable.
  EXPECT_EQ(s.solve({Lit::neg(a)}), Result::kSat);
}

TEST(Solver, UnsatCoreIsSubsetOfAssumptions) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  const Var d = s.new_var();
  s.add_clause({Lit::neg(a), Lit::neg(b)});  // not both a and b
  (void)c;
  (void)d;
  const std::vector<Lit> assumptions{Lit::pos(c), Lit::pos(a), Lit::pos(d),
                                     Lit::pos(b)};
  ASSERT_EQ(s.solve(assumptions), Result::kUnsat);
  const std::vector<Lit>& core = s.unsat_core();
  EXPECT_FALSE(core.empty());
  for (const Lit l : core) {
    EXPECT_TRUE(std::find(assumptions.begin(), assumptions.end(), l) !=
                assumptions.end())
        << l.to_string();
  }
  // c and d are irrelevant; a tight core keeps only a and b.
  for (const Lit l : core) {
    EXPECT_TRUE(l == Lit::pos(a) || l == Lit::pos(b)) << l.to_string();
  }
}

TEST(Solver, CoreEmptyWhenUnsatWithoutAssumptions) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({Lit::pos(a)});
  s.add_clause({Lit::neg(a)});
  EXPECT_EQ(s.solve({Lit::pos(s.new_var())}), Result::kUnsat);
  EXPECT_TRUE(s.unsat_core().empty());
}

// ---------------------------------------------------------------------------
// Property tests: random instances vs brute force.
// ---------------------------------------------------------------------------

struct RandomInstance {
  int vars = 0;
  std::vector<std::vector<Lit>> clauses;
  std::vector<std::pair<std::vector<PbTerm>, std::int64_t>> pbs;  // >= bound
};

RandomInstance make_random(util::Rng& rng, int vars, int clauses, int pbs) {
  RandomInstance inst;
  inst.vars = vars;
  for (int c = 0; c < clauses; ++c) {
    const int len = static_cast<int>(rng.uniform(1, 3));
    std::vector<Lit> cl;
    for (int l = 0; l < len; ++l) {
      const Var v = static_cast<Var>(rng.uniform(0, vars - 1));
      cl.push_back(rng.chance(0.5) ? Lit::pos(v) : Lit::neg(v));
    }
    inst.clauses.push_back(std::move(cl));
  }
  for (int p = 0; p < pbs; ++p) {
    const int len = static_cast<int>(rng.uniform(2, 5));
    std::vector<PbTerm> terms;
    std::int64_t total = 0;
    for (int t = 0; t < len; ++t) {
      const Var v = static_cast<Var>(rng.uniform(0, vars - 1));
      const std::int64_t coeff = rng.uniform(1, 4);
      total += coeff;
      terms.push_back(
          PbTerm{rng.chance(0.5) ? Lit::pos(v) : Lit::neg(v), coeff});
    }
    inst.pbs.emplace_back(std::move(terms), rng.uniform(0, total));
  }
  return inst;
}

bool brute_force_sat(const RandomInstance& inst) {
  for (std::uint32_t m = 0; m < (1u << inst.vars); ++m) {
    const auto lit_true = [&](Lit l) {
      const bool v = (m >> l.var()) & 1;
      return l.is_neg() ? !v : v;
    };
    bool all_ok = true;
    for (const auto& cl : inst.clauses) {
      bool sat = false;
      for (const Lit l : cl) sat = sat || lit_true(l);
      if (!sat) {
        all_ok = false;
        break;
      }
    }
    if (all_ok) {
      for (const auto& [terms, bound] : inst.pbs) {
        std::int64_t sum = 0;
        for (const PbTerm& t : terms) sum += lit_true(t.lit) ? t.coeff : 0;
        if (sum < bound) {
          all_ok = false;
          break;
        }
      }
    }
    if (all_ok) return true;
  }
  return false;
}

class RandomInstanceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomInstanceTest, AgreesWithBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int vars = static_cast<int>(rng.uniform(4, 10));
  const int clauses = static_cast<int>(rng.uniform(2, 30));
  const int pbs = static_cast<int>(rng.uniform(0, 5));
  const RandomInstance inst = make_random(rng, vars, clauses, pbs);

  Solver s;
  for (int v = 0; v < vars; ++v) (void)s.new_var();
  bool consistent = true;
  for (const auto& cl : inst.clauses) consistent &= s.add_clause(cl);
  for (const auto& [terms, bound] : inst.pbs)
    consistent &= s.add_linear_ge(terms, bound);

  const bool expect_sat = brute_force_sat(inst);
  if (!consistent) {
    EXPECT_FALSE(expect_sat) << "solver declared unsat during construction";
    return;
  }
  const Result r = s.solve();
  ASSERT_NE(r, Result::kUnknown);
  EXPECT_EQ(r == Result::kSat, expect_sat);
  if (r == Result::kSat) {
    // Verify the model against the original (pre-normalization) instance.
    const auto lit_true = [&](Lit l) {
      const bool v = s.model_value(l.var());
      return l.is_neg() ? !v : v;
    };
    for (const auto& cl : inst.clauses) {
      bool sat = false;
      for (const Lit l : cl) sat = sat || lit_true(l);
      EXPECT_TRUE(sat);
    }
    for (const auto& [terms, bound] : inst.pbs) {
      std::int64_t sum = 0;
      for (const PbTerm& t : terms) sum += lit_true(t.lit) ? t.coeff : 0;
      EXPECT_GE(sum, bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomInstanceTest, ::testing::Range(0, 60));

class RandomAssumptionTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssumptionTest, CoreIsUnsatSubset) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int vars = static_cast<int>(rng.uniform(4, 9));
  const RandomInstance inst =
      make_random(rng, vars, static_cast<int>(rng.uniform(3, 20)),
                  static_cast<int>(rng.uniform(0, 3)));

  Solver s;
  for (int v = 0; v < vars; ++v) (void)s.new_var();
  bool consistent = true;
  for (const auto& cl : inst.clauses) consistent &= s.add_clause(cl);
  for (const auto& [terms, bound] : inst.pbs)
    consistent &= s.add_linear_ge(terms, bound);
  if (!consistent) return;  // covered by the other property suite

  std::vector<Lit> assumptions;
  for (int v = 0; v < vars; ++v)
    if (rng.chance(0.5))
      assumptions.push_back(rng.chance(0.5) ? Lit::pos(v) : Lit::neg(v));

  if (s.solve(assumptions) == Result::kUnsat) {
    // Core must be a subset of assumptions and itself unsat.
    RandomInstance with_core = inst;
    for (const Lit l : s.unsat_core()) {
      EXPECT_TRUE(std::find(assumptions.begin(), assumptions.end(), l) !=
                  assumptions.end());
      with_core.clauses.push_back({l});
    }
    EXPECT_FALSE(brute_force_sat(with_core));
  } else {
    // Sanity: model satisfies assumptions.
    for (const Lit l : assumptions) {
      const bool v = s.model_value(l.var());
      EXPECT_TRUE(l.is_neg() ? !v : v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomAssumptionTest, ::testing::Range(0, 60));

TEST(Solver, ConflictLimitReturnsUnknown) {
  // A hard pigeonhole instance with a one-conflict budget must give up.
  Solver s;
  std::vector<std::vector<Var>> x;
  build_php(s, 8, 7, x);
  s.set_conflict_limit(1);
  EXPECT_EQ(s.solve(), Result::kUnknown);
  // Removing the limit finishes the proof.
  s.set_conflict_limit(0);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, TimeLimitReturnsUnknown) {
  // A pigeonhole instance too hard for a 1ms budget.
  Solver s;
  std::vector<std::vector<Var>> x;
  build_php(s, 9, 8, x);
  s.set_time_limit_ms(1);
  EXPECT_EQ(s.solve(), Result::kUnknown);
  // Removing the limit lets it finish (and the solver stays sound).
  s.set_time_limit_ms(0);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, PhaseVotesSteerInitialModel) {
  // With a single dominating GE constraint, the first model should
  // satisfy it without search: decisions follow the constraint's votes.
  Solver s;
  std::vector<PbTerm> terms;
  for (int i = 0; i < 50; ++i)
    terms.push_back(PbTerm{Lit::pos(s.new_var()), 1});
  s.add_linear_ge(terms, 50);  // needs all true
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.stats().conflicts, 0);
}

TEST(Solver, AddLinearEqViaTwoConstraints) {
  Solver s;
  std::vector<PbTerm> terms;
  for (int i = 0; i < 5; ++i)
    terms.push_back(PbTerm{Lit::pos(s.new_var()), i + 1});  // 1..5
  // Exactly 7 = e.g. {3,4} or {2,5} or {1,2,4}...
  s.add_linear_ge(terms, 7);
  s.add_linear_le(terms, 7);
  ASSERT_EQ(s.solve(), Result::kSat);
  std::int64_t sum = 0;
  for (int i = 0; i < 5; ++i) sum += s.model_value(i) ? i + 1 : 0;
  EXPECT_EQ(sum, 7);
}

TEST(Solver, LearntHookObservesClauses) {
  Solver s;
  std::vector<std::vector<Var>> x;
  build_php(s, 4, 3, x);
  long long count = 0;
  s.set_learnt_hook([&](const std::vector<Lit>& clause) {
    EXPECT_FALSE(clause.empty());
    ++count;
  });
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GT(count, 0);
}

TEST(Solver, MemoryEstimateGrows) {
  Solver s;
  const auto empty = s.memory_estimate_bytes();
  for (int i = 0; i < 100; ++i) (void)s.new_var();
  for (int i = 0; i + 1 < 100; ++i)
    s.add_clause({Lit::pos(i), Lit::neg(i + 1)});
  EXPECT_GT(s.memory_estimate_bytes(), empty);
}

TEST(Solver, MemoryBreakdownIsConsistent) {
  Solver s;
  std::vector<std::vector<Var>> x;
  build_php(s, 7, 6, x);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  const Solver::MemoryBreakdown mb = s.memory_breakdown();
  EXPECT_EQ(mb.total(), s.memory_estimate_bytes());
  EXPECT_GE(mb.arena_capacity_bytes, mb.arena_size_bytes);
  EXPECT_GE(mb.arena_size_bytes, mb.arena_wasted_bytes);
  EXPECT_GE(mb.wasted_fraction(), 0.0);
  EXPECT_LE(mb.wasted_fraction(), 1.0);
  EXPECT_GT(mb.arena_size_bytes, 0u);
  EXPECT_GT(mb.var_bytes, 0u);
  EXPECT_GT(mb.scratch_bytes, 0u);  // analyze's reused buffers

  // Every array is counted, exactly: with capacities reserved up front,
  // var_bytes is the per-variable sum — including the per-literal
  // false-since positions, two int32s a variable — and pb_bytes is the
  // constraint plus its struct-of-arrays terms.
  struct ReasonLayout {  // mirrors Solver::Reason
    ClauseRef cref;
    const PbConstraint* pb;
  };
  constexpr std::size_t kVars = 64;
  const std::size_t per_var =
      sizeof(LBool) + sizeof(char) /*polarity*/ +
      sizeof(std::int64_t) /*phase vote*/ + sizeof(int) /*level*/ +
      sizeof(std::int32_t) /*trail position*/ +
      2 * sizeof(std::int32_t) /*false-since, per literal*/ +
      sizeof(ReasonLayout) + sizeof(double) /*activity*/ +
      sizeof(char) /*seen*/ + sizeof(std::int64_t) /*lbd stamp*/ +
      sizeof(Lit) /*trail*/;
  Solver t;
  t.reserve_vars(kVars);
  std::vector<PbTerm> terms;
  for (std::size_t i = 0; i < kVars; ++i)
    terms.push_back(PbTerm{Lit::pos(t.new_var()), 1});
  ASSERT_TRUE(t.add_linear_ge(terms, 2));
  const Solver::MemoryBreakdown tb = t.memory_breakdown();
  EXPECT_EQ(tb.var_bytes, kVars * per_var);
  EXPECT_EQ(tb.pb_bytes, sizeof(PbConstraint) +
                             kVars * (sizeof(Lit) + sizeof(std::int64_t)));
  EXPECT_EQ(tb.total(), t.memory_estimate_bytes());
}

TEST(Solver, ConflictLimitMidReduceEpochLeavesSolverReusable) {
  // Exhausting the conflict budget after clause-DB reductions have begun
  // must leave the solver checkout-able (the service warm pool re-solves
  // on the same instance after a kUnknown): the interrupted solve's
  // arena, watch lists and learnt tiers stay coherent.
  Solver s;
  std::vector<std::vector<Var>> x;
  // php(9,8): ~13k conflicts to refute under the default configuration,
  // comfortably past the 3000-conflict budget (php(8,7) refutes inside
  // it since the Glucose-cadence DB reduction landed).
  build_php(s, 9, 8, x);
  s.set_conflict_limit(3000);
  ASSERT_EQ(s.solve(), Result::kUnknown);
  // The budget must genuinely land mid-epoch: reductions already ran.
  EXPECT_GT(s.stats().deleted_clauses, 0);
  // Re-solve with assumptions on the reused solver, then unrestricted.
  s.set_conflict_limit(0);
  EXPECT_EQ(s.solve({Lit::pos(x[0][0])}), Result::kUnsat);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, RootSimplifyFoldsNewFactsBetweenSolves) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  const Var d = s.new_var();
  s.add_clause({Lit::pos(a), Lit::pos(b)});
  s.add_clause({Lit::neg(a), Lit::pos(b), Lit::pos(c), Lit::pos(d)});
  s.add_clause({Lit::pos(a)});  // root fact: a = true
  ASSERT_EQ(s.solve(), Result::kSat);
  const std::int64_t rounds = s.stats().db_simplify_rounds;
  EXPECT_GE(rounds, 1);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b) || s.model_value(c) || s.model_value(d));
  // Another root fact arrives; the next solve runs another round and the
  // store stays sound.
  s.add_clause({Lit::neg(b)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_GT(s.stats().db_simplify_rounds, rounds);
  EXPECT_TRUE(s.model_value(c) || s.model_value(d));
}

TEST(Solver, LbdTierCountsCoverEveryLearntClause) {
  Solver s;
  std::vector<std::vector<Var>> x;
  build_php(s, 6, 5, x);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  const Solver::Stats& st = s.stats();
  EXPECT_GT(st.learned_clauses, 0);
  // Every multi-literal learnt clause entered exactly one tier at learn
  // time; promotions/demotions only add further entries.
  EXPECT_GE(st.lbd_core + st.lbd_tier2 + st.lbd_local, 0);
  EXPECT_GT(st.lbd_core + st.lbd_tier2 + st.lbd_local, 0);
}

TEST(Solver, InterruptedSolveMatchesBruteForce) {
  // A mixed clause/PB instance re-solved on one solver under several
  // assumption sets, the first of them interrupted by a conflict cap. The
  // interrupted solve must leave the watched sums exact, and every later
  // verdict (and model) must agree with brute-force enumeration.
  RandomInstance inst;
  inst.vars = 12;
  std::vector<PbTerm> terms;
  for (int i = 0; i < 12; ++i)
    terms.push_back(PbTerm{Lit::pos(i), (i % 4) + 1});
  inst.pbs.emplace_back(terms, 18);  // Σ ≥ 18
  for (PbTerm& t : terms) t.coeff = -t.coeff;
  inst.pbs.emplace_back(terms, -24);  // Σ ≤ 24
  for (int i = 0; i + 2 < 12; i += 3)
    inst.clauses.push_back({Lit::neg(i), Lit::neg(i + 1), Lit::neg(i + 2)});

  Solver s;
  for (int v = 0; v < inst.vars; ++v) (void)s.new_var();
  for (const auto& cl : inst.clauses) ASSERT_TRUE(s.add_clause(cl));
  for (const auto& [t, bound] : inst.pbs)
    ASSERT_TRUE(s.add_linear_ge(t, bound));
  ASSERT_TRUE(s.pb_bookkeeping_ok());

  // Dropping the three weight-4 variables of groups 1-3 leaves the Σ ≥ 18
  // constraint zero slack: it forces every other variable true, which
  // breaks a group clause. The first solve therefore meets a conflict,
  // and a one-conflict cap must interrupt it.
  const std::vector<Lit> tight = {Lit::neg(3), Lit::neg(7), Lit::neg(11)};
  s.set_conflict_limit(1);
  EXPECT_EQ(s.solve(tight), Result::kUnknown);
  EXPECT_TRUE(s.pb_bookkeeping_ok());

  s.set_conflict_limit(0);
  const std::vector<std::vector<Lit>> rounds = {
      tight,
      {},
      {Lit::pos(0), Lit::pos(1)},
      {Lit::neg(4), Lit::neg(7), Lit::neg(11)}};
  for (const std::vector<Lit>& assume : rounds) {
    RandomInstance with_assumptions = inst;
    for (const Lit a : assume) with_assumptions.clauses.push_back({a});
    const Result r = s.solve(assume);
    EXPECT_EQ(r == Result::kSat, brute_force_sat(with_assumptions));
    EXPECT_NE(r, Result::kUnknown);
    EXPECT_TRUE(s.pb_bookkeeping_ok());
    if (r != Result::kSat) continue;
    const auto lit_true = [&](Lit l) {
      const bool v = s.model_value(l.var());
      return l.is_neg() ? !v : v;
    };
    for (const auto& cl : with_assumptions.clauses) {
      bool sat = false;
      for (const Lit l : cl) sat = sat || lit_true(l);
      EXPECT_TRUE(sat);
    }
    for (const auto& [t, bound] : inst.pbs) {
      std::int64_t sum = 0;
      for (const PbTerm& term : t) sum += lit_true(term.lit) ? term.coeff : 0;
      EXPECT_GE(sum, bound);
    }
  }
}

}  // namespace
}  // namespace cs::minisolver
