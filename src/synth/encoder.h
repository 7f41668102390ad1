// SMT encoding of the security design synthesis problem (paper §III–§IV).
//
// `Encoding` lowers a validated ProblemSpec onto a smt::Backend:
//
//   Decision variables
//     y[f][k]  flow f uses isolation pattern k            (paper y^k_{i,j}(g))
//     x[p][d]  device type d is required between pair p   (paper x^d_{i,j})
//     l[e][d]  device type d is deployed on link e        (paper l^d)
//
//   Structural constraints (hard clauses)
//     IIC1     at most one pattern per flow                        (eq. 10)
//     CR/IIC2  connectivity-required flows are never denied     (eqs. 5,10)
//     eq. 1    y[f][k] ⇒ x[pair(f)][d] for each device of pattern k
//     eq. 7    x[p][d] ⇒ every flow route of p carries d on some link
//     IPSec    both tunnel endpoints within T hops of the end hosts on
//              every route; pairs with any route shorter than 2T+1 links
//              cannot use trusted communication                    (§III-C)
//     UIC      user-defined policy constraints                    (eq. 11)
//
//   Threshold constraints (eq. 9) are *guarded*: each call mints a fresh
//   guard literal and adds guard ⇒ (metric within threshold), so the
//   synthesizer can probe different slider values incrementally and ask
//   for unsat cores over the guards (paper Algorithm 1).
//
// All metric arithmetic is integer (util::Fixed raw units); the identical
// rounding is used by analysis::compute_metrics, so the independent checker
// and this encoding agree exactly.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/spec.h"
#include "smt/ir.h"
#include "synth/design.h"
#include "topology/routes.h"

namespace cs::synth {

/// The three slider thresholds of eq. 9.
enum class ThresholdKind { kIsolation, kUsability, kCost };

/// Short lowercase name ("isolation", "usability", "cost").
std::string_view threshold_name(ThresholdKind kind);

struct EncodingStats {
  std::size_t flow_vars = 0;        // y
  std::size_t pair_device_vars = 0; // x
  std::size_t placement_vars = 0;   // l
  std::size_t host_pattern_vars = 0;  // hp + z (§VII extension)
  std::size_t app_pattern_vars = 0;   // ap + w (§VII extension)
  std::size_t clauses = 0;
  std::size_t linear_constraints = 0;
  /// Ordered host pairs carrying flows in either direction (|Q|).
  std::size_t directed_pairs = 0;
};

class Encoding {
 public:
  /// Builds all structural constraints into `backend`. The spec must be
  /// validated; `routes` must wrap the same network.
  ///
  /// With `retractable_sections` the UIC and RMC sections are emitted
  /// under per-section guard literals (clauses become guard ⇒ clause;
  /// linear constraints use the backend's guarded form), and every
  /// check must assume `section_assumptions()`. The sections can then
  /// be retired and re-emitted against an updated spec without touching
  /// the structural core — the incremental path of
  /// `Synthesizer::apply_delta` (docs/DELTAS.md). Off by default: an
  /// unguarded section propagates units at level zero, which guarded
  /// clauses cannot.
  Encoding(const model::ProblemSpec& spec, topology::RouteTable& routes,
           smt::Backend& backend, bool retractable_sections = false);

  Encoding(const Encoding&) = delete;
  Encoding& operator=(const Encoding&) = delete;

  /// Adds guard ⇒ (network isolation ≥ threshold); returns the guard.
  smt::Lit isolation_guard(util::Fixed threshold);

  /// Adds guard ⇒ (network usability ≥ threshold); returns the guard.
  smt::Lit usability_guard(util::Fixed threshold);

  /// Adds guard ⇒ (deployment cost ≤ budget); returns the guard.
  smt::Lit cost_guard(util::Fixed budget);

  /// Adds the threshold constraint for `kind` at `value` under a fresh
  /// selector literal and returns it: `sel ⇒ (metric within threshold)`.
  /// The check assumes the selectors it wants, so thresholds stay
  /// retractable — one solver re-solves the whole slider grid (warm
  /// sweeps), and UNSAT cores over the selectors name the conflicting
  /// thresholds (Algorithm 1). The caller owns selector caching — every
  /// call emits a new constraint.
  smt::Lit add_threshold(ThresholdKind kind, util::Fixed value);

  /// Reads the backend model into a SecurityDesign (after kSat).
  SecurityDesign decode() const;

  /// Re-seats the spec reference onto `spec`, which must have the same
  /// encoding shape as the current one (same flow/node/link/service
  /// universe — e.g. the post-delta spec of a retune or UIC-only delta;
  /// checked by counts). Threshold guards minted afterwards and
  /// `reemit_policy_sections` read the new spec.
  void rebind_spec(const model::ProblemSpec& spec);

  /// Assumption literals that enable the currently-active guarded
  /// sections; empty unless constructed with retractable sections.
  /// Append to every check's assumptions.
  std::vector<smt::Lit> section_assumptions() const;

  /// Retires the current UIC + RMC sections (asserts the negated
  /// guards) and re-emits both from the current spec under fresh
  /// guards. Requires retractable sections; flows/network must be
  /// unchanged since construction (rebind_spec enforces that).
  void reemit_policy_sections();

  bool retractable_sections() const { return retractable_; }

  const EncodingStats& stats() const { return stats_; }

  /// Decision-variable accessors (kNoVar when the pattern/device is not
  /// part of the encoding). Exposed for white-box tests.
  smt::BoolVar y_var(model::FlowId f, model::IsolationPattern k) const;
  smt::BoolVar l_var(topology::LinkId link, model::DeviceType d) const;

 private:
  using DeviceArray = std::array<smt::BoolVar, model::kDeviceCount>;

  static std::uint64_t pair_key(topology::NodeId a, topology::NodeId b);

  void create_flow_vars();
  void create_pair_and_link_vars();
  void create_host_pattern_vars();      // hp/z vars + linking clauses
  void create_app_pattern_vars();       // ap/w vars + linking clauses
  void create_score_ladders();          // order-encoded per-flow scores
  void add_pattern_constraints();       // IIC1, eq. 1, CR/IIC2
  void add_placement_constraints();     // eq. 7 + IPSec rules
  void add_user_constraints();          // UIC
  void add_host_requirements();         // RMC: per-host minimum isolation
  void build_metric_terms();            // isolation & usability coefficients

  /// Clauses travel to the backend as views: fixed-width ones as
  /// initializer lists, variable-width ones in a buffer the caller reuses
  /// across items, so no clause costs a heap allocation.
  void counted_clause(std::span<const smt::Lit> lits);
  void counted_clause(std::initializer_list<smt::Lit> lits) {
    counted_clause(std::span<const smt::Lit>(lits.begin(), lits.size()));
  }
  void counted_unit(smt::Lit l);
  /// backend_.new_bool named by concatenating `parts` (strings and
  /// integers); the name is formatted only when the backend keeps it.
  template <typename... Parts>
  smt::BoolVar named_bool(const Parts&... parts);
  /// Like counted_clause/add_linear_ge, but guarded by the active
  /// section guard when sections are retractable.
  void section_clause(std::initializer_list<smt::Lit> lits);
  void section_linear_ge(const std::vector<smt::Term>& terms,
                         std::int64_t bound);

  const model::ProblemSpec& spec() const { return *spec_; }

  const model::ProblemSpec* spec_;
  topology::RouteTable& routes_;
  smt::Backend& backend_;

  /// Retractable-section state: the guard of the currently-active UIC +
  /// RMC emission round (kNoVar when sections are hard).
  bool retractable_ = false;
  smt::Lit section_guard_{};
  std::uint64_t section_round_ = 0;
  /// section_clause's reused buffer: the guard's negation, then the
  /// clause.
  std::vector<smt::Lit> section_buf_;

  std::vector<std::array<smt::BoolVar, model::kPatternCount>> y_;
  std::unordered_map<std::uint64_t, DeviceArray> x_;
  std::vector<DeviceArray> l_;
  std::array<bool, model::kDeviceCount> device_used_{};
  /// Host-level extension: hp_[node][t] deploys pattern t at a host;
  /// z_[flow][t] = hp at the flow's destination ∧ no network pattern.
  std::vector<std::array<smt::BoolVar, model::kHostPatternCount>> hp_;
  std::vector<std::array<smt::BoolVar, model::kHostPatternCount>> z_;
  /// Application-level extension: ap_[(dst, service)][t] deploys pattern t
  /// at an endpoint; w_[flow][t] = ap at the flow's endpoint ∧ no network
  /// pattern ∧ no host-level coverage (precedence network > host > app).
  std::map<std::pair<topology::NodeId, model::ServiceId>,
           std::array<smt::BoolVar, model::kAppPatternCount>>
      ap_;
  std::vector<std::array<smt::BoolVar, model::kAppPatternCount>> w_;

  /// Order encoding of each flow's isolation score: for the ascending
  /// distinct score levels ℓ1 < ℓ2 < ... of the flow's possible
  /// protections, u_j ⇔ (selected score ≥ ℓj). Summing the level
  /// *increments* over the u variables yields the flow's exact score, so
  /// the PB counter bound equals the true per-flow maximum — without this,
  /// the counter admits the sum over all mutually-exclusive patterns and
  /// near-maximum isolation thresholds need exponential refutations.
  struct LadderStep {
    std::int64_t level_raw = 0;  // ℓj in Fixed raw units
    smt::BoolVar var = smt::kNoVar;
  };
  std::vector<std::vector<LadderStep>> ladder_;  // indexed by flow

  std::vector<smt::Term> iso_terms_;
  std::int64_t iso_const_ = 0;   // contribution of flow-less directions
  std::int64_t iso_pairs_ = 0;   // |Q|
  std::vector<smt::Term> usab_penalty_terms_;
  std::int64_t usab_total_rank_raw_ = 0;  // Σ a_f in raw units
  std::vector<smt::Term> cost_terms_;

  EncodingStats stats_;
};

}  // namespace cs::synth
