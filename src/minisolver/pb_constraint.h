// Linear pseudo-Boolean constraints: Σ a_i · lit_i ≥ bound.
//
// Every numeric constraint of the ConfigSynth model (network isolation,
// usability, deployment cost) is linear over Boolean decision variables, so
// pseudo-Boolean "at least" constraints are the only theory the solver
// needs. Constraints are normalized so all coefficients are positive
// (negative terms flip the literal and shift the bound).
//
// The solver propagates them by watched sums: only a prefix of the
// coefficient-descending term list is watched. While `watch_sum` — the
// Σ a_i over watched, non-false terms — is at least bound + max_coeff,
// neither a conflict nor a propagation is possible and falsifications of
// unwatched literals are never even visited. When a watched literal falls
// below the threshold the prefix grows; once every term is watched,
// watch_sum is Σ a_i over the non-false terms: the constraint conflicts
// when it drops below bound, and an unassigned literal with
// a_i > watch_sum − bound is forced true.
#pragma once

#include <cstdint>
#include <vector>

#include "minisolver/literal.h"
#include "util/error.h"
#include "util/fixed.h"

namespace cs::minisolver {

struct PbTerm {
  Lit lit;
  std::int64_t coeff = 0;  // > 0 after normalization
};

struct PbConstraint {
  /// The normalized terms, struct-of-arrays and in descending-coefficient
  /// order: lits[i] carries coeffs[i]. Conflict analysis scans `lits`
  /// alone, four bytes a term.
  std::vector<Lit> lits;
  std::vector<std::int64_t> coeffs;
  std::int64_t bound = 0;

  // --- solver working state --------------------------------------------
  /// Largest coefficient (propagation trigger threshold).
  std::int64_t max_coeff = 0;
  /// Σ coeff over watched terms (the first `num_watched` of the
  /// descending list) whose literal is not assigned false.
  std::int64_t watch_sum = 0;
  /// Length of the watched prefix. Watches only grow during search;
  /// backtracking restores watch_sum, never shrinks the prefix.
  std::size_t num_watched = 0;
  /// Number of the conflict whose analysis last expanded this constraint
  /// as a reason (0 = never); Solver::analyze skips repeat expansions.
  std::int64_t expanded_in_conflict = 0;

  std::size_t size() const { return lits.size(); }

  /// True when satisfied by every assignment (bound ≤ 0 after
  /// normalization); such constraints are dropped by the solver.
  bool trivially_true() const { return bound <= 0; }

  /// True when no assignment can satisfy it (Σ coeff < bound). Throws
  /// util::Error when Σ coeff does not fit in 64 bits.
  bool trivially_false() const {
    std::int64_t total = 0;
    for (const std::int64_t c : coeffs)
      total = util::checked_add_i64(total, c, "PB coefficient total");
    return total < bound;
  }
};

/// Normalizes in place: merges duplicate literals, cancels complementary
/// pairs, flips negative coefficients, drops zero terms. Returns the
/// normalized constraint. Throws util::Error when a merged coefficient or
/// the shifted bound does not fit in 64 bits.
PbConstraint normalize_pb(std::vector<PbTerm> terms, std::int64_t bound);

}  // namespace cs::minisolver
