// Fuzz driver for the MiniPB solver: random clause+PB instances with wide
// coefficient ranges, solved under random assumptions and cross-checked
// against brute force. Every verdict must match enumeration, every SAT
// model must satisfy the instance, and the per-constraint watched sums
// must stay exact (Solver::pb_bookkeeping_ok) after loading and after
// every solve. Odd seeds generate PB-heavy instances (more and longer
// constraints, bounds pushed toward the coefficient total) so the
// watched-prefix machinery is exercised hard. Every 25th seed is
// additionally cross-checked against the Z3 backend. Prints the first
// failing seed and exits non-zero.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "minisolver/solver.h"
#include "smt/ir.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace cs;
using minisolver::Lit;
using minisolver::PbTerm;
using minisolver::Solver;
using minisolver::Var;

namespace {

struct Instance {
  int vars;
  std::vector<std::vector<Lit>> clauses;
  std::vector<std::pair<std::vector<PbTerm>, std::int64_t>> ges;
  std::vector<Lit> guards;  // assumption candidates
};

Instance gen(util::Rng& rng, bool pb_heavy) {
  Instance inst;
  inst.vars = static_cast<int>(rng.uniform(6, pb_heavy ? 12 : 14));
  const int clauses =
      static_cast<int>(rng.uniform(0, pb_heavy ? 8 : 20));
  for (int c = 0; c < clauses; ++c) {
    std::vector<Lit> cl;
    const int len = static_cast<int>(rng.uniform(1, 3));
    for (int l = 0; l < len; ++l) {
      const Var v = static_cast<Var>(rng.uniform(0, inst.vars - 1));
      cl.push_back(rng.chance(0.5) ? Lit::pos(v) : Lit::neg(v));
    }
    inst.clauses.push_back(cl);
  }
  // At-most-one groups (pattern selection structure).
  const int amos = static_cast<int>(rng.uniform(0, 2));
  for (int g = 0; g < amos; ++g) {
    std::vector<Var> group;
    for (int i = 0; i < 3; ++i)
      group.push_back(static_cast<Var>(rng.uniform(0, inst.vars - 1)));
    for (std::size_t i = 0; i < group.size(); ++i)
      for (std::size_t j = i + 1; j < group.size(); ++j)
        if (group[i] != group[j])
          inst.clauses.push_back(
              {Lit::neg(group[i]), Lit::neg(group[j])});
  }
  const int pbs =
      static_cast<int>(rng.uniform(pb_heavy ? 3 : 1, pb_heavy ? 8 : 4));
  for (int p = 0; p < pbs; ++p) {
    std::vector<PbTerm> terms;
    const int len = static_cast<int>(
        rng.uniform(pb_heavy ? 3 : 2, pb_heavy ? 10 : 7));
    std::int64_t total = 0;
    for (int t = 0; t < len; ++t) {
      const Var v = static_cast<Var>(rng.uniform(0, inst.vars - 1));
      // ConfigSynth-like coefficient palette; the heavy mode mixes small
      // coefficients in so watched prefixes grow term by term instead of
      // all at once.
      static const std::int64_t palette[] = {1,    2500, 5000,
                                             7500, 10000};
      static const std::int64_t heavy_palette[] = {
          1, 2, 3, 100, 2500, 5000, 7500, 10000, 20000};
      const std::int64_t coeff =
          pb_heavy ? heavy_palette[rng.uniform(0, 8)]
                   : palette[rng.uniform(0, 4)];
      total += coeff;
      terms.push_back(
          PbTerm{rng.chance(0.7) ? Lit::pos(v) : Lit::neg(v), coeff});
    }
    // Heavy mode biases the bound toward the coefficient total, where
    // near-every literal matters and slack stays close to zero.
    std::int64_t bound = pb_heavy && rng.chance(0.5)
                             ? rng.uniform(total / 2, total)
                             : rng.uniform(0, total);
    const bool ge = rng.chance(0.6);
    if (!ge) {
      // Encode Σ ≤ bound as Σ(−t) ≥ −bound, matching add_linear_le.
      for (PbTerm& t : terms) t.coeff = -t.coeff;
      bound = -bound;
    }
    // Big-M guard relaxation on some constraints (mirrors MiniBackend's
    // guarded encoding); the guard is a dedicated variable.
    if (rng.chance(0.6)) {
      const Var g = static_cast<Var>(rng.uniform(0, inst.vars - 1));
      std::int64_t min_sum = 0;
      for (const PbTerm& t : terms)
        if (t.coeff < 0) min_sum += t.coeff;
      const std::int64_t relax = bound - min_sum;
      if (relax > 0) {
        terms.push_back(PbTerm{Lit::neg(g), relax});
        inst.guards.push_back(Lit::pos(g));
      }
    }
    inst.ges.emplace_back(terms, bound);
  }
  return inst;
}

bool lit_true(std::uint32_t m, Lit l) {
  const bool v = (m >> l.var()) & 1;
  return l.is_neg() ? !v : v;
}

bool brute(const Instance& inst, const std::vector<Lit>& assume) {
  for (std::uint32_t m = 0; m < (1u << inst.vars); ++m) {
    bool ok = true;
    for (const Lit a : assume) ok = ok && lit_true(m, a);
    for (const auto& cl : inst.clauses) {
      if (!ok) break;
      bool sat = false;
      for (const Lit l : cl) sat = sat || lit_true(m, l);
      ok = ok && sat;
    }
    for (const auto& [terms, bound] : inst.ges) {
      if (!ok) break;
      std::int64_t sum = 0;
      for (const PbTerm& t : terms) sum += lit_true(m, t.lit) ? t.coeff : 0;
      ok = ok && sum >= bound;
    }
    if (ok) return true;
  }
  return false;
}

std::vector<Lit> gen_assumptions(util::Rng& rng, const Instance& inst) {
  std::vector<Lit> out;
  // Prefer assuming the guards (like the synthesizer does).
  for (const Lit g : inst.guards)
    if (rng.chance(0.8)) out.push_back(g);
  for (Var v = 0; v < inst.vars; ++v)
    if (rng.chance(0.15))
      out.push_back(rng.chance(0.5) ? Lit::pos(v) : Lit::neg(v));
  return out;
}

/// Loads the instance into a solver; returns add-time consistency.
bool load(Solver& s, const Instance& inst) {
  for (int v = 0; v < inst.vars; ++v) (void)s.new_var();
  bool consistent = true;
  for (const auto& cl : inst.clauses) consistent &= s.add_clause(cl);
  for (const auto& [terms, bound] : inst.ges)
    consistent &= s.add_linear_ge(terms, bound);
  return consistent;
}

/// Model satisfies every clause and PB constraint of the instance.
bool model_valid(const Solver& s, const Instance& inst) {
  std::uint32_t m = 0;
  for (int v = 0; v < inst.vars; ++v)
    if (s.model_value(v)) m |= 1u << v;
  for (const auto& cl : inst.clauses) {
    bool sat = false;
    for (const Lit l : cl) sat = sat || lit_true(m, l);
    if (!sat) return false;
  }
  for (const auto& [terms, bound] : inst.ges) {
    std::int64_t sum = 0;
    for (const PbTerm& t : terms) sum += lit_true(m, t.lit) ? t.coeff : 0;
    if (sum < bound) return false;
  }
  return true;
}

/// Independent verdict from the Z3 backend (no limits: always decided).
bool z3_sat(const Instance& inst, const std::vector<Lit>& assume) {
  auto backend = smt::make_backend(smt::BackendKind::kZ3);
  for (int v = 0; v < inst.vars; ++v) (void)backend->new_bool("f");
  const auto to_smt = [](Lit l) {
    return smt::Lit{l.var(), l.is_neg()};
  };
  for (const auto& cl : inst.clauses) {
    std::vector<smt::Lit> lits;
    for (const Lit l : cl) lits.push_back(to_smt(l));
    backend->add_clause(lits);
  }
  for (const auto& [terms, bound] : inst.ges) {
    std::vector<smt::Term> smt_terms;
    for (const PbTerm& t : terms)
      smt_terms.push_back(smt::Term{to_smt(t.lit), t.coeff});
    backend->add_linear_ge(smt_terms, bound);
  }
  std::vector<smt::Lit> smt_assume;
  for (const Lit a : assume) smt_assume.push_back(to_smt(a));
  return backend->check(smt_assume) == smt::CheckResult::kSat;
}

const char* verdict_name(Solver::Result r) {
  switch (r) {
    case Solver::Result::kSat: return "sat";
    case Solver::Result::kUnsat: return "unsat";
    case Solver::Result::kUnknown: return "unknown";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::setbuf(stdout, nullptr);
  const long long iterations =
      argc > 1 ? util::parse_int(argv[1], "iterations") : 20000;
  int failures = 0;
  for (long long seed = 0; seed < iterations; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
    const bool pb_heavy = (seed % 2) == 1;
    const Instance inst = gen(rng, pb_heavy);

    Solver solver;
    const bool consistent = load(solver, inst);
    if (!solver.pb_bookkeeping_ok()) {
      std::printf("seed %lld: slack bookkeeping broken after load\n", seed);
      ++failures;
      continue;
    }
    if (!consistent) {
      if (brute(inst, {})) {
        std::printf("seed %lld: store claims unsat, brute says sat\n", seed);
        ++failures;
      }
      continue;
    }

    // Two sequential assumption solves, then a plain solve; every verdict
    // is checked against enumeration (this exercises clause learning
    // across calls).
    for (int round = 0; round < 3; ++round) {
      const std::vector<Lit> assume =
          round < 2 ? gen_assumptions(rng, inst) : std::vector<Lit>{};
      const Solver::Result verdict = solver.solve(assume);
      if (!solver.pb_bookkeeping_ok()) {
        std::printf("seed %lld round %d: slack bookkeeping diverged\n", seed,
                    round);
        ++failures;
        break;
      }
      const bool expect = brute(inst, assume);
      if ((verdict == Solver::Result::kSat) != expect) {
        std::printf("seed %lld round %d: solver=%s brute=%s\n", seed, round,
                    verdict_name(verdict), expect ? "sat" : "unsat");
        ++failures;
        break;
      }
      if (seed % 25 == 0 && z3_sat(inst, assume) != expect) {
        std::printf("seed %lld round %d: z3 disagrees with brute\n", seed,
                    round);
        ++failures;
        break;
      }
      if (verdict == Solver::Result::kSat && !model_valid(solver, inst)) {
        std::printf("seed %lld round %d: invalid model\n", seed, round);
        ++failures;
        break;
      }
    }
    if (failures >= 5) break;
  }
  std::printf("fuzz done: %d failures\n", failures);
  return failures == 0 ? 0 : 1;
}
