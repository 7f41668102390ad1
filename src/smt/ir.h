// Backend-neutral constraint interface.
//
// The ConfigSynth encoder (synth/encoder.h) emits three constraint shapes:
// Boolean clauses, linear "at least" constraints and linear "at most"
// constraints over Boolean decision variables — plus *guarded* linear
// constraints whose guard literal can be assumed or dropped per check,
// which is how the paper's threshold constraints become retractable
// assumptions for unsat-core analysis (Algorithm 1).
//
// Two interchangeable backends implement the interface:
//   * Z3Backend   — the paper's actual solver, via the native z3++ API.
//   * MiniBackend — this repo's from-scratch CDCL PB solver.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace cs::smt {

/// Dense Boolean decision-variable index within a backend.
using BoolVar = std::int32_t;
inline constexpr BoolVar kNoVar = -1;

/// Literal: a variable or its negation.
struct Lit {
  BoolVar var = kNoVar;
  bool negated = false;

  friend Lit operator!(Lit l) { return Lit{l.var, !l.negated}; }
  bool operator==(const Lit&) const = default;
};

inline Lit pos(BoolVar v) { return Lit{v, false}; }
inline Lit neg(BoolVar v) { return Lit{v, true}; }

/// Weighted literal of a linear constraint: coeff · [lit is true].
struct Term {
  Lit lit;
  std::int64_t coeff = 0;
};

enum class CheckResult { kSat, kUnsat, kUnknown };

/// Cumulative search-effort counters of a backend since its construction.
/// Backend-neutral observability for warm-started sweeps: subtracting two
/// snapshots yields the effort of the checks in between, which is how the
/// sweep engine and the service attribute conflicts/propagations to a
/// single grid point even on 1-core machines where wall clock is noisy.
/// Not every backend fills every field (Z3 reports no learned-clause
/// count; fields it cannot observe stay 0).
struct SolverStats {
  std::int64_t conflicts = 0;
  std::int64_t propagations = 0;
  std::int64_t decisions = 0;
  std::int64_t restarts = 0;
  std::int64_t learned_clauses = 0;
  // Clause-DB composition (MiniPB only; Z3 leaves them 0): monotone
  // counts of learnt clauses entering each LBD tier, plus the number of
  // root-level database simplification rounds.
  std::int64_t lbd_core = 0;
  std::int64_t lbd_tier2 = 0;
  std::int64_t lbd_local = 0;
  std::int64_t db_simplify_rounds = 0;
  // Search-heuristic counters (MiniPB only): polarity rephase events and
  // literals removed by learned-clause minimization.
  std::int64_t rephases = 0;
  std::int64_t minimized_literals = 0;

  SolverStats& operator+=(const SolverStats& o);
  /// Delta between two cumulative snapshots (this − o).
  SolverStats operator-(const SolverStats& o) const;
  bool operator==(const SolverStats&) const = default;
};

/// One SolverStats counter: its metric name and its member.
struct SolverStatField {
  const char* name;
  std::int64_t SolverStats::*member;
};

/// Every SolverStats counter, once. This list drives `+=` and `-`, the
/// service's `solver_<name>_total` metrics and MiniPB's `minipb/<name>`
/// trace samples, so a new counter is one member plus one row here.
inline constexpr SolverStatField kSolverStatFields[] = {
    {"conflicts", &SolverStats::conflicts},
    {"propagations", &SolverStats::propagations},
    {"decisions", &SolverStats::decisions},
    {"restarts", &SolverStats::restarts},
    {"learned_clauses", &SolverStats::learned_clauses},
    {"lbd_core", &SolverStats::lbd_core},
    {"lbd_tier2", &SolverStats::lbd_tier2},
    {"lbd_local", &SolverStats::lbd_local},
    {"db_simplify_rounds", &SolverStats::db_simplify_rounds},
    {"rephases", &SolverStats::rephases},
    {"minimized_literals", &SolverStats::minimized_literals},
};
static_assert(sizeof(SolverStats) ==
                  std::size(kSolverStatFields) * sizeof(std::int64_t),
              "every SolverStats member needs a kSolverStatFields row");

inline SolverStats& SolverStats::operator+=(const SolverStats& o) {
  for (const SolverStatField& f : kSolverStatFields)
    this->*f.member += o.*f.member;
  return *this;
}

inline SolverStats SolverStats::operator-(const SolverStats& o) const {
  SolverStats d = *this;
  for (const SolverStatField& f : kSolverStatFields)
    d.*f.member -= o.*f.member;
  return d;
}

/// Solver backend interface. All constraint additions happen before (or
/// between) `check` calls; models and cores are valid until the next call
/// that mutates the backend.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Creates a fresh Boolean variable. `name` aids debugging/dumps only.
  virtual BoolVar new_bool(const std::string& name) = 0;

  /// Whether new_bool keeps `name` (Z3 does; MiniPB variables are
  /// anonymous), so callers format names only for a backend that keeps
  /// them.
  virtual bool keeps_names() const = 0;

  virtual std::size_t num_vars() const = 0;

  /// Adds a disjunction of literals (must be non-empty). Encoders emit
  /// millions of clauses, so the literals travel as a view: neither the
  /// interface nor either backend allocates per clause.
  virtual void add_clause(std::span<const Lit> lits) = 0;
  void add_clause(std::initializer_list<Lit> lits) {
    add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Adds Σ terms ≥ bound.
  virtual void add_linear_ge(const std::vector<Term>& terms,
                             std::int64_t bound) = 0;

  /// Adds Σ terms ≤ bound.
  virtual void add_linear_le(const std::vector<Term>& terms,
                             std::int64_t bound) = 0;

  /// Adds guard ⇒ (Σ terms ≥ bound). Assume `guard` in check() to enable.
  virtual void add_guarded_linear_ge(Lit guard,
                                     const std::vector<Term>& terms,
                                     std::int64_t bound) = 0;

  /// Adds guard ⇒ (Σ terms ≤ bound).
  virtual void add_guarded_linear_le(Lit guard,
                                     const std::vector<Term>& terms,
                                     std::int64_t bound) = 0;

  /// Solves under the given assumptions.
  virtual CheckResult check(const std::vector<Lit>& assumptions) = 0;
  CheckResult check() { return check({}); }

  /// Caps each subsequent check's wall-clock time; 0 = unlimited. A capped
  /// check returns kUnknown when the budget runs out. Near-boundary
  /// threshold probes are genuinely exponential (the paper's Fig. 5a), so
  /// drivers that sweep thresholds set this.
  virtual void set_time_limit_ms(std::int64_t ms) = 0;

  /// Caps each subsequent check's search effort in deterministic,
  /// backend-specific units (CDCL conflicts for MiniPB, resource units for
  /// Z3); 0 = unlimited. A capped check returns kUnknown — but unlike the
  /// wall-clock cap, expiry does not depend on machine load or thread
  /// scheduling: the same formula under the same limit always yields the
  /// same verdict. Parallel sweeps that must reproduce their serial results
  /// bit-for-bit cap probes this way (synth/sweep.h).
  virtual void set_conflict_limit(std::int64_t limit) = 0;

  /// Model value of a variable after kSat.
  virtual bool model_value(BoolVar v) const = 0;

  /// After kUnsat under assumptions: a subset of the assumptions that is
  /// jointly inconsistent with the constraints.
  virtual std::vector<Lit> unsat_core() const = 0;

  /// Rough memory footprint of the solver state, in bytes.
  virtual std::size_t memory_bytes() const = 0;

  /// Cumulative search-effort counters since construction (monotone across
  /// checks; Z3 keeps counting across its internal post-timeout rebuilds).
  virtual SolverStats statistics() const = 0;

  // ---- convenience helpers built on the primitives ---------------------

  /// a ⇒ b.
  void add_implies(Lit a, Lit b) { add_clause({!a, b}); }

  /// At most one of the literals is true (pairwise encoding; the pattern
  /// sets here are ≤5 wide, where pairwise is optimal).
  void add_at_most_one(std::span<const Lit> lits) {
    for (std::size_t i = 0; i < lits.size(); ++i)
      for (std::size_t j = i + 1; j < lits.size(); ++j)
        add_clause({!lits[i], !lits[j]});
  }

  /// Fixes a literal true.
  void add_unit(Lit l) { add_clause({l}); }
};

enum class BackendKind { kZ3, kMiniPb };

/// Creates a backend instance.
std::unique_ptr<Backend> make_backend(BackendKind kind);

/// The backend's one spelling: "z3" or "minipb". Used for CLI flags,
/// trace-span tags, `probes_<name>` counters and bench labels.
const char* backend_name(BackendKind kind);

/// Parses a backend_name() spelling (for CLI flags); throws SpecError
/// otherwise.
BackendKind backend_from_name(const std::string& name);

}  // namespace cs::smt
