// Backend-equivalence tests: the Z3 backend and the from-scratch MiniPB
// backend must return the same verdict on every instance, and their models
// must satisfy the emitted constraints. Plus Z3's 32-bit cap conversion,
// overflow-checked PB bounds on both backends, and digests that pin
// MiniPB's search on fixed encodings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "model/input_file.h"
#include "smt/ir.h"
#include "smt/mini_backend.h"
#include "spec_helpers.h"
#include "synth/encoder.h"
#include "synth/synthesizer.h"
#include "topology/routes.h"
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

TEST_P(BackendTest, CoefficientTotalOverflowIsAnErrorNotSat) {
  // Device costs of 1e15 $K are 1e18 fixed-point units each, so the cost
  // constraint's coefficient total over the example's links leaves 64
  // bits. A wrapped sum turns the cost constraint into a different one
  // (MiniPB then reports SAT at cost 9223372036854775.807 against a
  // budget of 60), so both backends must refuse it instead.
  model::ProblemSpec spec = testing::make_example_spec();
  for (const model::DeviceType d : model::kAllDevices)
    spec.device_costs.set(d, util::Fixed::from_int(1'000'000'000'000'000));
  synth::SynthesisOptions options;
  options.backend = GetParam();
  options.check_conflict_limit = GetParam() == BackendKind::kZ3 ? 2000000 : 20000;
  EXPECT_THROW(
      {
        synth::Synthesizer synth(spec, options);
        (void)synth.synthesize();
      },
      util::Error);
}

TEST_P(BackendTest, OverflowingBoundsThrowBeforeTouchingTheSolver) {
  Backend& b = *backend_;
  const BoolVar x = b.new_bool("x");
  const BoolVar y = b.new_bool("y");
  const BoolVar z = b.new_bool("z");
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() / 2 + 1;
  // Three negated literals shift the bound by −3·big while normalizing.
  EXPECT_THROW(
      b.add_linear_ge({{neg(x), big}, {neg(y), big}, {neg(z), big}}, 0),
      util::Error);
  // The guard relaxation (MiniPB) or the shifted bound (Z3) is 2·big.
  EXPECT_THROW(b.add_guarded_linear_ge(pos(x), {{neg(y), -big}}, big),
               util::Error);
  // The backend is still usable and unconstrained.
  b.add_unit(pos(x));
  EXPECT_EQ(b.check(), CheckResult::kSat);
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

// ---- MiniPB search pinning -------------------------------------------
//
// A solver optimisation that claims "same search, less work" must leave
// every learnt clause and every counter exactly as it was. These cases
// encode fixed specs through synth::Encoding on MiniPB, check them under
// a 4000-conflict cap, and fold every learnt clause (after
// minimization), the verdict and the final conflicts, propagations and
// decisions into one FNV-1a digest. A changed digest means the search
// itself changed; re-record the digests only in a change that means to
// alter the search, and say so.

/// Table IV text for the perfbench-style fabrics below: five patterns,
/// the standard partial order and device costs, one service.
std::string table_iv(int hosts, int routers,
                     const std::vector<std::pair<int, int>>& links,
                     const std::string& sliders) {
  std::string out =
      "5\n1 2 3 4 5\n4\n1 5 2\n5 2 2\n2 3 2\n3 4 1\n5 10 8 6\n";
  out += std::to_string(hosts) + " " + std::to_string(routers) + "\n";
  out += std::to_string(links.size()) + "\n";
  for (const auto& [a, b] : links)
    out += std::to_string(a) + " " + std::to_string(b) + "\n";
  // Connectivity requirements on about a tenth of the ordered pairs.
  for (int i = 1; i <= hosts; ++i) {
    for (int j = 1; j <= hosts; ++j)
      if (i != j && (7 * i + 3 * j) % 10 == 0)
        out += std::to_string(j) + " ";
    out += "0\n";
  }
  return out + sliders + "\n";
}

/// Two cores, three buildings of one distribution router (dual-homed to
/// both cores) over two access routers; hosts attach in blocks.
std::string campus_spec(int hosts, const std::string& sliders) {
  const int routers = 2 + 3 * 3;
  const int c1 = hosts + 1, c2 = hosts + 2;
  std::vector<std::pair<int, int>> links{{c1, c2}};
  std::vector<int> access;
  for (int b = 0; b < 3; ++b) {
    const int dist = hosts + 3 + 3 * b;
    links.emplace_back(dist, c1);
    links.emplace_back(dist, c2);
    for (int a = 1; a <= 2; ++a) {
      links.emplace_back(dist + a, dist);
      access.push_back(dist + a);
    }
  }
  const int n = static_cast<int>(access.size());
  for (int h = 0; h < hosts; ++h)
    links.emplace_back(h + 1,
                       access[static_cast<std::size_t>((h * n / hosts + 1) %
                                                       n)]);
  return table_iv(hosts, routers, links, sliders);
}

/// A router tree plus chords (alternative routes), hosts single- or
/// dual-homed; every choice is fixed arithmetic, not a seeded RNG.
std::string mesh_spec(int hosts, const std::string& sliders) {
  const int routers = hosts / 2;
  const auto router = [&](int i) { return hosts + 1 + i; };
  std::vector<std::pair<int, int>> links;
  const auto link = [&](int a, int b) {
    const std::pair<int, int> ab{std::min(a, b), std::max(a, b)};
    if (a != b && std::find(links.begin(), links.end(), ab) == links.end())
      links.push_back(ab);
  };
  for (int i = 1; i < routers; ++i) link(router(i), router((5 * i + 3) % i));
  for (int e = 0; e < routers / 2; ++e)
    link(router(e), router((3 * e + routers / 2 + 1) % routers));
  for (int h = 1; h <= hosts; ++h) {
    const int first = (3 * h) % routers;
    link(h, router(first));
    if (h % 6 == 0) link(h, router((first + 2) % routers));
  }
  return table_iv(hosts, routers, links, sliders);
}

struct PinnedCase {
  const char* name;
  std::string spec_text;  // empty = the paper's running example
  std::uint64_t digest;
};

class MiniPbPinnedSearch : public ::testing::TestWithParam<int> {};

TEST_P(MiniPbPinnedSearch, LearntClausesAndCountersMatchRecordedDigest) {
  const std::vector<PinnedCase> cases = {
      {"paper-example", "", 0x46dbea85f11b2f17ull},
      {"campus-14-knee", campus_spec(14, "9 3 560"), 0x59a6f0ae7396fc96ull},
      {"mesh-16-knee", mesh_spec(16, "8.5 3 640"), 0xe096b6c7614df431ull},
  };
  const PinnedCase& c = cases[static_cast<std::size_t>(GetParam())];
  model::ProblemSpec spec;
  if (c.spec_text.empty()) {
    spec = testing::make_example_spec();
  } else {
    std::istringstream in(c.spec_text);
    spec = model::parse_input(in);
  }

  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  MiniBackend backend;
  std::int64_t learnt = 0;
  backend.solver_for_testing().set_learnt_hook(
      [&](const std::vector<minisolver::Lit>& clause) {
        ++learnt;
        mix(clause.size());
        for (const minisolver::Lit l : clause) mix(l.index());
      });
  topology::RouteTable routes(spec.network, spec.route_options);
  synth::Encoding enc(spec, routes, backend);
  const std::vector<Lit> guards = {
      enc.isolation_guard(spec.sliders.isolation),
      enc.usability_guard(spec.sliders.usability),
      enc.cost_guard(spec.sliders.budget)};
  backend.set_conflict_limit(4000);
  const CheckResult result = backend.check(guards);
  const SolverStats st = backend.statistics();
  mix(static_cast<std::uint64_t>(result));
  mix(static_cast<std::uint64_t>(st.conflicts));
  mix(static_cast<std::uint64_t>(st.propagations));
  mix(static_cast<std::uint64_t>(st.decisions));

  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(h));
  EXPECT_GT(learnt, 0) << c.name;
  EXPECT_EQ(h, c.digest) << c.name << ": digest " << hex << " after "
                         << st.conflicts << " conflicts, "
                         << st.propagations << " propagations, "
                         << st.decisions << " decisions, result "
                         << static_cast<int>(result);
}

INSTANTIATE_TEST_SUITE_P(Specs, MiniPbPinnedSearch, ::testing::Range(0, 3));

}  // namespace
}  // namespace cs::smt
