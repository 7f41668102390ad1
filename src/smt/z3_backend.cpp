#include "smt/z3_backend.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "obs/trace.h"
#include "util/error.h"
#include "util/fixed.h"
#include "util/strings.h"

namespace cs::smt {

namespace {

/// Z3 takes its caps as `unsigned`: a larger cap saturates at UINT_MAX
/// instead of wrapping (2^32 would run uncapped, 2^32 + 1 as a cap of 1).
unsigned z3_cap(std::int64_t value) {
  return static_cast<unsigned>(std::min<std::int64_t>(
      value, std::numeric_limits<unsigned>::max()));
}

/// Normalizes to positive coefficients over literals: merges duplicate
/// variables, flips negative coefficients (a·x = a − a·(¬x)), adjusts the
/// bound. Mirrors minisolver::normalize_pb so both backends see the same
/// constraint — including its overflow-checked sums, which throw
/// util::Error rather than wrap.
struct NormalizedGe {
  std::vector<Term> terms;  // all coeff > 0
  std::int64_t bound = 0;
};

NormalizedGe normalize_ge(const std::vector<Term>& terms,
                          std::int64_t bound) {
  std::unordered_map<BoolVar, std::int64_t> signed_coeff;
  signed_coeff.reserve(terms.size());
  for (const Term& t : terms) {
    CS_REQUIRE(t.lit.var != kNoVar, "linear term without variable");
    if (t.coeff == 0) continue;
    std::int64_t& acc = signed_coeff[t.lit.var];
    if (t.lit.negated) {
      acc = util::checked_sub_i64(acc, t.coeff, "PB coefficient");
      bound = util::checked_sub_i64(bound, t.coeff, "PB bound");
    } else {
      acc = util::checked_add_i64(acc, t.coeff, "PB coefficient");
    }
  }
  NormalizedGe out;
  out.terms.reserve(signed_coeff.size());
  for (const auto& [var, coeff] : signed_coeff) {
    if (coeff == 0) continue;
    if (coeff > 0) {
      out.terms.push_back(Term{pos(var), coeff});
    } else {
      const std::int64_t a = util::checked_sub_i64(0, coeff, "PB coefficient");
      out.terms.push_back(Term{neg(var), a});
      bound = util::checked_add_i64(bound, a, "PB bound");
    }
  }
  out.bound = bound;
  std::sort(out.terms.begin(), out.terms.end(),
            [](const Term& a, const Term& b) { return a.lit.var < b.lit.var; });
  return out;
}

/// Σ t ≤ b  ≡  Σ (−t) ≥ −b, negated with overflow checks.
std::vector<Term> negated_terms(const std::vector<Term>& terms) {
  std::vector<Term> negated = terms;
  for (Term& t : negated)
    t.coeff = util::checked_sub_i64(0, t.coeff, "PB coefficient");
  return negated;
}

}  // namespace

// "QF_FD" selects Z3's finite-domain solver: a CDCL SAT core with native
// counter-based pseudo-Boolean propagation, which handles the model's few
// large weighted constraints orders of magnitude faster than the default
// SMT core's PB compilation. All ConfigSynth constraints are Bool/PB, so
// the restricted logic suffices.
Z3Backend::Z3Backend() : solver_(ctx_, "QF_FD") {}

BoolVar Z3Backend::new_bool(const std::string& name) {
  const BoolVar id = static_cast<BoolVar>(vars_.size());
  const std::string unique =
      name.empty() ? util::concat({"b", std::to_string(id)})
                   : util::concat({name, "#", std::to_string(id)});
  vars_.push_back(ctx_.bool_const(unique.c_str()));
  var_by_ast_id_.emplace(Z3_get_ast_id(ctx_, vars_.back()), id);
  return id;
}

z3::expr Z3Backend::lit_expr(Lit l) const {
  CS_ENSURE(l.var >= 0 && static_cast<std::size_t>(l.var) < vars_.size(),
            "literal references unknown variable");
  const z3::expr& v = vars_[static_cast<std::size_t>(l.var)];
  return l.negated ? !v : v;
}

void Z3Backend::add_clause(std::span<const Lit> lits) {
  CS_REQUIRE(!lits.empty(), "empty clause");
  if (lits.size() == 1) {
    assert_expr(lit_expr(lits[0]));
    return;
  }
  z3::expr_vector disj(ctx_);
  for (const Lit l : lits) disj.push_back(lit_expr(l));
  assert_expr(z3::mk_or(disj));
}

z3::expr Z3Backend::linear_ge_expr(const std::vector<Term>& terms,
                                   std::int64_t bound) {
  const NormalizedGe n = normalize_ge(terms, bound);
  if (n.bound <= 0) return ctx_.bool_val(true);
  std::int64_t total = 0;
  for (const Term& t : n.terms)
    total = util::checked_add_i64(total, t.coeff, "PB coefficient total");
  if (total < n.bound) return ctx_.bool_val(false);

  // Z3's native PB atoms handle weighted Boolean sums far better than an
  // ite-based integer-arithmetic encoding (which forces per-term case
  // splits); arithmetic is only the fallback for coefficients beyond the
  // PB API's int parameters.
  const bool use_pb =
      n.bound <= std::numeric_limits<int>::max() &&
      std::all_of(n.terms.begin(), n.terms.end(), [](const Term& t) {
        return t.coeff <= std::numeric_limits<int>::max();
      });
  if (use_pb) {
    z3::expr_vector lits(ctx_);
    std::vector<int> coeffs;
    coeffs.reserve(n.terms.size());
    for (const Term& t : n.terms) {
      lits.push_back(lit_expr(t.lit));
      coeffs.push_back(static_cast<int>(t.coeff));
    }
    return z3::pbge(lits, coeffs.data(), static_cast<int>(n.bound));
  }
  // Integer arithmetic over indicators.
  z3::expr sum = ctx_.int_val(0);
  for (const Term& t : n.terms) {
    sum = sum + z3::ite(lit_expr(t.lit),
                        ctx_.int_val(static_cast<std::int64_t>(t.coeff)),
                        ctx_.int_val(0));
  }
  return sum >= ctx_.int_val(static_cast<std::int64_t>(n.bound));
}

void Z3Backend::add_linear_ge(const std::vector<Term>& terms,
                              std::int64_t bound) {
  assert_expr(linear_ge_expr(terms, bound));
}

void Z3Backend::add_linear_le(const std::vector<Term>& terms,
                              std::int64_t bound) {
  assert_expr(linear_ge_expr(negated_terms(terms),
                             util::checked_sub_i64(0, bound, "PB bound")));
}

void Z3Backend::add_guarded_linear_ge(Lit guard,
                                      const std::vector<Term>& terms,
                                      std::int64_t bound) {
  assert_expr(z3::implies(lit_expr(guard), linear_ge_expr(terms, bound)));
}

void Z3Backend::add_guarded_linear_le(Lit guard,
                                      const std::vector<Term>& terms,
                                      std::int64_t bound) {
  assert_expr(z3::implies(
      lit_expr(guard),
      linear_ge_expr(negated_terms(terms),
                     util::checked_sub_i64(0, bound, "PB bound"))));
}

void Z3Backend::assert_expr(const z3::expr& e) {
  asserted_.push_back(e);
  solver_.add(e);
}

SolverStats Z3Backend::read_live_stats() const {
  // Key names vary across Z3 versions and tactics ("sat conflicts",
  // "conflicts", "sat propagations 2ary", ...); match by substring and sum
  // every flavour, so absent keys simply contribute nothing.
  SolverStats out;
  try {
    const z3::stats st = solver_.statistics();
    for (unsigned i = 0; i < st.size(); ++i) {
      const std::string key = st.key(i);
      const std::int64_t value =
          st.is_uint(i) ? static_cast<std::int64_t>(st.uint_value(i))
                        : static_cast<std::int64_t>(st.double_value(i));
      if (key.find("conflicts") != std::string::npos) {
        out.conflicts += value;
      } else if (key.find("propagations") != std::string::npos) {
        out.propagations += value;
      } else if (key.find("decisions") != std::string::npos) {
        out.decisions += value;
      } else if (key.find("restarts") != std::string::npos) {
        out.restarts += value;
      }
    }
  } catch (const z3::exception&) {
    // No statistics available (e.g. before the first check): report zero.
    return SolverStats{};
  }
  return out;
}

SolverStats Z3Backend::statistics() const {
  SolverStats total = stats_before_rebuilds_;
  total += read_live_stats();
  return total;
}

void Z3Backend::rebuild_solver() {
  stats_before_rebuilds_ += read_live_stats();
  solver_ = z3::solver(ctx_, "QF_FD");
  for (const z3::expr& e : asserted_) solver_.add(e);
  if (time_limit_ms_ > 0 || conflict_limit_ > 0) {
    z3::params p(ctx_);
    if (time_limit_ms_ > 0) p.set("timeout", z3_cap(time_limit_ms_));
    if (conflict_limit_ > 0) p.set("rlimit", z3_cap(conflict_limit_));
    solver_.set(p);
  }
  needs_rebuild_ = false;
}

void Z3Backend::set_time_limit_ms(std::int64_t ms) {
  time_limit_ms_ = ms;
  z3::params p(ctx_);
  p.set("timeout", ms <= 0 ? std::numeric_limits<unsigned>::max()
                           : z3_cap(ms));
  solver_.set(p);
}

void Z3Backend::set_conflict_limit(std::int64_t limit) {
  // Z3's deterministic effort counter is the resource limit ("rlimit",
  // per-check); a check that exhausts it answers unknown, after which the
  // QF_FD core needs the same rebuild as after a timeout.
  conflict_limit_ = limit;
  z3::params p(ctx_);
  p.set("rlimit", limit <= 0 ? 0u : z3_cap(limit));
  solver_.set(p);
}

CheckResult Z3Backend::check(const std::vector<Lit>& assumptions) {
  if (needs_rebuild_) rebuild_solver();
  z3::expr_vector assume(ctx_);
  for (const Lit l : assumptions) assume.push_back(lit_expr(l));
  // Z3 exposes no in-search hook, so the counter timeline is sampled at
  // check granularity: one cumulative sample before and after each call
  // brackets the check's effort on the trace's counter tracks.
  const bool tracing = obs::TraceSession::enabled();
  const auto emit_sample = [&] {
    const SolverStats s = statistics();
    obs::counter("solver", "z3/conflicts", s.conflicts);
    obs::counter("solver", "z3/propagations", s.propagations);
    obs::counter("solver", "z3/decisions", s.decisions);
    obs::counter("solver", "z3/restarts", s.restarts);
  };
  if (tracing) emit_sample();
  const z3::check_result r = solver_.check(assume);
  if (tracing) emit_sample();

  if (r == z3::sat) {
    const z3::model m = solver_.get_model();
    model_.assign(vars_.size(), 0);
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      const z3::expr value = m.eval(vars_[v], /*model_completion=*/true);
      model_[v] = value.is_true() ? 1 : 0;
    }
    core_.clear();
    return CheckResult::kSat;
  }
  if (r == z3::unsat) {
    core_.clear();
    const z3::expr_vector z3core = solver_.unsat_core();
    for (unsigned i = 0; i < z3core.size(); ++i) {
      z3::expr e = z3core[static_cast<int>(i)];
      bool negated = false;
      if (e.is_app() && e.decl().decl_kind() == Z3_OP_NOT) {
        negated = true;
        e = e.arg(0);
      }
      const auto it = var_by_ast_id_.find(Z3_get_ast_id(ctx_, e));
      CS_ENSURE(it != var_by_ast_id_.end(),
                "unsat core entry is not an assumption literal");
      core_.push_back(Lit{it->second, negated});
    }
    return CheckResult::kUnsat;
  }
  // A timed-out QF_FD check leaves the solver cancelled; rebuild before
  // the next query.
  needs_rebuild_ = true;
  return CheckResult::kUnknown;
}

bool Z3Backend::model_value(BoolVar v) const {
  CS_ENSURE(v >= 0 && static_cast<std::size_t>(v) < model_.size(),
            "model_value before a SAT result");
  return model_[static_cast<std::size_t>(v)] != 0;
}

std::vector<Lit> Z3Backend::unsat_core() const { return core_; }

std::size_t Z3Backend::memory_bytes() const {
  return static_cast<std::size_t>(Z3_get_estimated_alloc_size());
}

}  // namespace cs::smt
