// Backend adapter over the from-scratch MiniPB CDCL solver.
//
// Guarded linear constraints are realized by big-M relaxation: the guard's
// negation enters the constraint with a coefficient large enough to satisfy
// it vacuously, which is the standard PB encoding of an indicator.
#pragma once

#include <vector>

#include "minisolver/solver.h"
#include "smt/ir.h"

namespace cs::smt {

class MiniBackend final : public Backend {
 public:
  BoolVar new_bool(const std::string& name) override;
  bool keeps_names() const override { return false; }
  std::size_t num_vars() const override { return solver_.num_vars(); }

  using Backend::add_clause;
  void add_clause(std::span<const Lit> lits) override;
  void add_linear_ge(const std::vector<Term>& terms,
                     std::int64_t bound) override;
  void add_linear_le(const std::vector<Term>& terms,
                     std::int64_t bound) override;
  void add_guarded_linear_ge(Lit guard, const std::vector<Term>& terms,
                             std::int64_t bound) override;
  void add_guarded_linear_le(Lit guard, const std::vector<Term>& terms,
                             std::int64_t bound) override;

  CheckResult check(const std::vector<Lit>& assumptions) override;
  void set_time_limit_ms(std::int64_t ms) override {
    solver_.set_time_limit_ms(ms);
  }
  void set_conflict_limit(std::int64_t limit) override {
    solver_.set_conflict_limit(limit);
  }
  bool model_value(BoolVar v) const override;
  std::vector<Lit> unsat_core() const override;
  std::size_t memory_bytes() const override {
    return solver_.memory_estimate_bytes();
  }
  SolverStats statistics() const override;

  /// Testing access to the underlying solver (debug hooks).
  minisolver::Solver& solver_for_testing() { return solver_; }

 private:
  static minisolver::Lit to_mini(Lit l) {
    return l.negated ? minisolver::Lit::neg(l.var)
                     : minisolver::Lit::pos(l.var);
  }
  static Lit from_mini(minisolver::Lit l) {
    return Lit{l.var(), l.is_neg()};
  }

  minisolver::Solver solver_;
  /// Reused buffer for add_clause's literal translation.
  std::vector<minisolver::Lit> clause_buf_;
};

}  // namespace cs::smt
