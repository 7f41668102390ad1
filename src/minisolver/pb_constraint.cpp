#include "minisolver/pb_constraint.h"

#include <algorithm>
#include <unordered_map>

namespace cs::minisolver {

PbConstraint normalize_pb(std::vector<PbTerm> terms, std::int64_t bound) {
  // Accumulate signed coefficients per positive literal:
  // a·x     contributes +a to x,
  // a·(~x)  is a·(1 − x): contributes −a to x and a to the constant side.
  std::unordered_map<Var, std::int64_t> signed_coeff;
  signed_coeff.reserve(terms.size());
  for (const PbTerm& t : terms) {
    CS_REQUIRE(t.lit.valid(), "PB term with invalid literal");
    if (t.coeff == 0) continue;
    if (t.lit.is_neg()) {
      signed_coeff[t.lit.var()] -= t.coeff;
      bound -= t.coeff;
    } else {
      signed_coeff[t.lit.var()] += t.coeff;
    }
  }

  PbConstraint out;
  out.terms.reserve(signed_coeff.size());
  for (const auto& [var, coeff] : signed_coeff) {
    if (coeff == 0) continue;
    if (coeff > 0) {
      out.terms.push_back(PbTerm{Lit::pos(var), coeff});
    } else {
      // −a·x ≥ b  ≡  a·(~x) ≥ b + a.
      out.terms.push_back(PbTerm{Lit::neg(var), -coeff});
      bound += -coeff;
    }
  }
  out.bound = bound;

  // Deterministic ordering (largest coefficient first) speeds propagation
  // scans and makes behaviour reproducible across runs.
  std::sort(out.terms.begin(), out.terms.end(),
            [](const PbTerm& a, const PbTerm& b) {
              if (a.coeff != b.coeff) return a.coeff > b.coeff;
              return a.lit < b.lit;
            });

  out.max_coeff = out.terms.empty() ? 0 : out.terms.front().coeff;

  // Cap coefficients at the bound: a_i > bound behaves identically to
  // a_i = bound and keeps slack arithmetic well-conditioned.
  if (out.bound > 0) {
    for (PbTerm& t : out.terms) t.coeff = std::min(t.coeff, out.bound);
    out.max_coeff = std::min(out.max_coeff, out.bound);
  }
  // Watched-sum working state starts empty; the solver builds the watched
  // prefix when the constraint is attached (Solver::add_linear_ge).
  out.watch_sum = 0;
  out.num_watched = 0;
  return out;
}

}  // namespace cs::minisolver
