// Backend adapter over the Z3 SMT solver (the paper's solver), using the
// native C++ API.
//
// Linear constraints are emitted as Z3 pseudo-Boolean atoms (pbge/pble)
// when coefficients and bounds fit the API's int parameters, and as integer
// linear arithmetic over ite-terms otherwise. Guarded constraints become
// implications, and the paper's threshold assumptions map directly onto
// Z3's assumption-based unsat cores.
#pragma once

#include <unordered_map>
#include <vector>

#include <z3++.h>

#include "smt/ir.h"

namespace cs::smt {

class Z3Backend final : public Backend {
 public:
  Z3Backend();

  BoolVar new_bool(const std::string& name) override;
  bool keeps_names() const override { return true; }
  std::size_t num_vars() const override { return vars_.size(); }

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
  void set_time_limit_ms(std::int64_t ms) override;
  void set_conflict_limit(std::int64_t limit) override;
  bool model_value(BoolVar v) const override;
  std::vector<Lit> unsat_core() const override;
  std::size_t memory_bytes() const override;
  SolverStats statistics() const override;

 private:
  z3::expr lit_expr(Lit l) const;

  /// Σ terms ≥ bound as a Z3 expression (after positive normalization).
  z3::expr linear_ge_expr(const std::vector<Term>& terms,
                          std::int64_t bound);

  /// Asserts into the solver and records for rebuilds.
  void assert_expr(const z3::expr& e);

  /// Recreates the solver from the recorded assertions. Z3's QF_FD core
  /// stays in a cancelled state after a timed-out check (subsequent checks
  /// return unknown immediately), so the backend rebuilds after every
  /// kUnknown result.
  void rebuild_solver();

  /// Reads the live solver's statistics into a SolverStats (0 on any Z3
  /// error — statistics are observability, never worth an exception).
  SolverStats read_live_stats() const;

  z3::context ctx_;
  z3::solver solver_;
  std::vector<z3::expr> vars_;
  std::vector<z3::expr> asserted_;
  std::unordered_map<unsigned, BoolVar> var_by_ast_id_;
  std::vector<char> model_;
  std::vector<Lit> core_;
  std::int64_t time_limit_ms_ = 0;
  std::int64_t conflict_limit_ = 0;
  bool needs_rebuild_ = false;
  /// Counters of solvers discarded by rebuild_solver(); statistics() adds
  /// the live solver's counters on top so the total stays monotone.
  SolverStats stats_before_rebuilds_;
};

}  // namespace cs::smt
