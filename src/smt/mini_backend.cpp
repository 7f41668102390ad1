#include "smt/mini_backend.h"

#include <string>

#include "obs/trace.h"
#include "util/error.h"
#include "util/fixed.h"

namespace cs::smt {

namespace {

/// Counter-sampling cadence while tracing: every this many conflicts the
/// solver's progress callback streams its cumulative counters into the
/// tracer. Coarse enough to stay invisible next to conflict analysis,
/// fine enough that the Fig. 4/5 workloads draw smooth timelines.
constexpr std::int64_t kProgressSampleConflicts = 4096;

SolverStats to_solver_stats(const minisolver::Solver::Stats& s) {
  SolverStats out;
  out.conflicts = s.conflicts;
  out.propagations = s.propagations + s.pb_propagations;
  out.decisions = s.decisions;
  out.restarts = s.restarts;
  out.learned_clauses = s.learned_clauses;
  out.lbd_core = s.lbd_core;
  out.lbd_tier2 = s.lbd_tier2;
  out.lbd_local = s.lbd_local;
  out.db_simplify_rounds = s.db_simplify_rounds;
  out.rephases = s.rephases;
  out.minimized_literals = s.minimized_literals;
  return out;
}

/// One `minipb/<name>` timeline sample per SolverStats counter; Perfetto
/// draws e.g. the three LBD tiers as stacked timelines, making
/// reduce/simplify epochs visible over a solve.
void emit_progress_sample(const minisolver::Solver::Stats& s) {
  const SolverStats stats = to_solver_stats(s);
  for (const SolverStatField& f : kSolverStatFields)
    obs::counter("solver", (std::string("minipb/") + f.name).c_str(),
                 stats.*f.member);
}

std::vector<minisolver::PbTerm> to_mini_terms(const std::vector<Term>& terms) {
  std::vector<minisolver::PbTerm> out;
  out.reserve(terms.size());
  for (const Term& t : terms) {
    out.push_back(minisolver::PbTerm{
        t.lit.negated ? minisolver::Lit::neg(t.lit.var)
                      : minisolver::Lit::pos(t.lit.var),
        t.coeff});
  }
  return out;
}

/// Minimum possible value of Σ terms (negative coefficients contribute);
/// throws util::Error when it does not fit in 64 bits.
std::int64_t min_sum(const std::vector<Term>& terms) {
  std::int64_t s = 0;
  for (const Term& t : terms)
    if (t.coeff < 0) s = util::checked_add_i64(s, t.coeff, "PB term total");
  return s;
}

/// Maximum possible value of Σ terms; throws util::Error when it does
/// not fit in 64 bits.
std::int64_t max_sum(const std::vector<Term>& terms) {
  std::int64_t s = 0;
  for (const Term& t : terms)
    if (t.coeff > 0) s = util::checked_add_i64(s, t.coeff, "PB term total");
  return s;
}

}  // namespace

BoolVar MiniBackend::new_bool(const std::string& name) {
  (void)name;  // MiniPB variables are anonymous
  return solver_.new_var();
}

void MiniBackend::add_clause(std::span<const Lit> lits) {
  CS_REQUIRE(!lits.empty(), "empty clause");
  clause_buf_.clear();
  for (const Lit l : lits) clause_buf_.push_back(to_mini(l));
  solver_.add_clause(std::span<const minisolver::Lit>(clause_buf_));
}

void MiniBackend::add_linear_ge(const std::vector<Term>& terms,
                                std::int64_t bound) {
  solver_.add_linear_ge(to_mini_terms(terms), bound);
}

void MiniBackend::add_linear_le(const std::vector<Term>& terms,
                                std::int64_t bound) {
  solver_.add_linear_le(to_mini_terms(terms), bound);
}

void MiniBackend::add_guarded_linear_ge(Lit guard,
                                        const std::vector<Term>& terms,
                                        std::int64_t bound) {
  // guard=false must satisfy the constraint vacuously: add ¬guard with a
  // coefficient that lifts the sum above the bound on its own.
  const std::int64_t relax =
      util::checked_sub_i64(bound, min_sum(terms), "guarded PB relaxation");
  if (relax <= 0) {
    // Constraint holds for every assignment; nothing to add.
    return;
  }
  std::vector<Term> relaxed = terms;
  relaxed.push_back(Term{!guard, relax});
  add_linear_ge(relaxed, bound);
}

void MiniBackend::add_guarded_linear_le(Lit guard,
                                        const std::vector<Term>& terms,
                                        std::int64_t bound) {
  const std::int64_t relax =
      util::checked_sub_i64(max_sum(terms), bound, "guarded PB relaxation");
  if (relax <= 0) return;  // holds unconditionally
  std::vector<Term> relaxed = terms;
  relaxed.push_back(Term{!guard, -relax});
  add_linear_le(relaxed, bound);
}

CheckResult MiniBackend::check(const std::vector<Lit>& assumptions) {
  std::vector<minisolver::Lit> mini;
  mini.reserve(assumptions.size());
  for (const Lit l : assumptions) mini.push_back(to_mini(l));
  // Stream progress samples while tracing (installed per check so the
  // solver pays nothing when the tracer is off); one closing sample makes
  // even sub-cadence checks visible in the timeline.
  const bool tracing = obs::TraceSession::enabled();
  if (tracing)
    solver_.set_progress_callback(kProgressSampleConflicts,
                                  emit_progress_sample);
  const minisolver::Solver::Result result = solver_.solve(mini);
  if (tracing) {
    emit_progress_sample(solver_.stats());
    solver_.set_progress_callback(0, nullptr);
  }
  switch (result) {
    case minisolver::Solver::Result::kSat:
      return CheckResult::kSat;
    case minisolver::Solver::Result::kUnsat:
      return CheckResult::kUnsat;
    case minisolver::Solver::Result::kUnknown:
      return CheckResult::kUnknown;
  }
  return CheckResult::kUnknown;
}

SolverStats MiniBackend::statistics() const {
  return to_solver_stats(solver_.stats());
}

bool MiniBackend::model_value(BoolVar v) const {
  return solver_.model_value(v);
}

std::vector<Lit> MiniBackend::unsat_core() const {
  std::vector<Lit> core;
  core.reserve(solver_.unsat_core().size());
  for (const minisolver::Lit l : solver_.unsat_core())
    core.push_back(from_mini(l));
  return core;
}

}  // namespace cs::smt
