#include "minisolver/pb_constraint.h"

#include <algorithm>
#include <unordered_map>

namespace cs::minisolver {

PbConstraint normalize_pb(std::vector<PbTerm> terms, std::int64_t bound) {
  // Accumulate signed coefficients per positive literal:
  // a·x     contributes +a to x,
  // a·(~x)  is a·(1 − x): contributes −a to x and a to the constant side.
  // Every sum is overflow-checked: a wrapped bound is another constraint.
  std::unordered_map<Var, std::int64_t> signed_coeff;
  signed_coeff.reserve(terms.size());
  for (const PbTerm& t : terms) {
    CS_REQUIRE(t.lit.valid(), "PB term with invalid literal");
    if (t.coeff == 0) continue;
    std::int64_t& acc = signed_coeff[t.lit.var()];
    if (t.lit.is_neg()) {
      acc = util::checked_sub_i64(acc, t.coeff, "PB coefficient");
      bound = util::checked_sub_i64(bound, t.coeff, "PB bound");
    } else {
      acc = util::checked_add_i64(acc, t.coeff, "PB coefficient");
    }
  }

  std::vector<PbTerm> out_terms;
  out_terms.reserve(signed_coeff.size());
  for (const auto& [var, coeff] : signed_coeff) {
    if (coeff == 0) continue;
    if (coeff > 0) {
      out_terms.push_back(PbTerm{Lit::pos(var), coeff});
    } else {
      // −a·x ≥ b  ≡  a·(~x) ≥ b + a.
      const std::int64_t a = util::checked_sub_i64(0, coeff, "PB coefficient");
      out_terms.push_back(PbTerm{Lit::neg(var), a});
      bound = util::checked_add_i64(bound, a, "PB bound");
    }
  }

  // Deterministic ordering (largest coefficient first) speeds propagation
  // scans and makes behaviour reproducible across runs.
  std::sort(out_terms.begin(), out_terms.end(),
            [](const PbTerm& a, const PbTerm& b) {
              if (a.coeff != b.coeff) return a.coeff > b.coeff;
              return a.lit < b.lit;
            });

  PbConstraint out;
  out.bound = bound;
  out.max_coeff = out_terms.empty() ? 0 : out_terms.front().coeff;
  // Cap coefficients at the bound: a_i > bound behaves identically to
  // a_i = bound and keeps slack arithmetic well-conditioned.
  if (out.bound > 0) out.max_coeff = std::min(out.max_coeff, out.bound);
  out.lits.reserve(out_terms.size());
  out.coeffs.reserve(out_terms.size());
  for (const PbTerm& t : out_terms) {
    out.lits.push_back(t.lit);
    out.coeffs.push_back(out.bound > 0 ? std::min(t.coeff, out.bound)
                                       : t.coeff);
  }
  // Watched-sum working state starts empty; the solver builds the watched
  // prefix when the constraint is attached (Solver::add_linear_ge).
  return out;
}

}  // namespace cs::minisolver
