// The synthesis driver: encode once, probe thresholds incrementally.
//
// A `Synthesizer` owns the backend, the route table and the encoding for
// one ProblemSpec. Every distinct slider value becomes a named guard
// literal (cached), so repeated checks — the optimizer's binary search,
// Algorithm 1's subset re-solves — reuse the learnt state of the backend
// instead of re-encoding the network.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "model/delta.h"
#include "model/fingerprint.h"
#include "model/spec.h"
#include "smt/ir.h"
#include "synth/design.h"
#include "synth/encoder.h"
#include "util/timer.h"

namespace cs::synth {

struct SynthesisOptions {
  smt::BackendKind backend = smt::BackendKind::kZ3;
  /// Per-check wall-clock cap in milliseconds (0 = unlimited). Checks that
  /// exceed it return kUnknown — expected near threshold boundaries, where
  /// the problem is genuinely hard (paper Fig. 5a).
  std::int64_t check_time_limit_ms = 0;
  /// Per-check deterministic effort cap in backend-specific units (CDCL
  /// conflicts for MiniPB, Z3 resource units; 0 = unlimited). Like the
  /// wall-clock cap a capped check returns kUnknown, but expiry is a pure
  /// function of the formula — independent of machine load — so capped
  /// sweeps stay bit-for-bit reproducible across serial and parallel runs.
  std::int64_t check_conflict_limit = 0;
  /// Emit the UIC + RMC sections under a retractable guard (encoder.h),
  /// enabling apply_delta's "retract" tier for policy-only deltas. Off
  /// by default: guarded sections cost one extra literal per clause.
  bool retractable_sections = false;
};

struct SynthesisResult {
  smt::CheckResult status = smt::CheckResult::kUnknown;
  std::optional<SecurityDesign> design;           // set on kSat
  std::vector<ThresholdKind> conflicting;         // unsat core on kUnsat
  double encode_seconds = 0;
  double solve_seconds = 0;
  std::size_t solver_memory_bytes = 0;
  EncodingStats encoding;
};

/// Outcome of Synthesizer::apply_delta: which tier served the delta,
/// why a slower tier was chosen (empty when the fastest eligible tier
/// ran), and the re-synthesis result on the post-delta spec.
///
///   "warm"    thresholds/budget-only delta — assumption swap, no
///             re-encoding (the existing resolve() path).
///   "retract" UIC/RMC-only delta — retire the guarded policy sections,
///             re-emit from the new spec, warm re-solve.
///   "full"    anything else — a fresh encoding on a route table that
///             carries every pair whose routes the delta provably keeps
///             (topology::RouteTable), identical to a fresh Synthesizer
///             on the post-delta spec.
///
/// Verdict contract (docs/DELTAS.md): on every tier the verdict equals
/// a cold solve of the post-delta spec by construction when checks are
/// uncapped; under effort caps, a fast-tier kUnknown falls back to an
/// internal cold rebuild (reason "capped-probe"), so the reported
/// verdict is still the cold one.
struct DeltaApplyReport {
  std::string path;
  std::string fallback_reason;
  SynthesisResult result;
};

class Synthesizer {
 public:
  /// Encodes the structural constraints immediately; `spec` must outlive
  /// the synthesizer.
  explicit Synthesizer(const model::ProblemSpec& spec,
                       SynthesisOptions options = {});

  /// Shared-ownership variant: apply_delta keeps the chain of specs it
  /// creates alive internally, so this is the natural form for churn.
  explicit Synthesizer(std::shared_ptr<const model::ProblemSpec> spec,
                       SynthesisOptions options = {});

  /// Solves with the spec's own slider values (paper eq. 12).
  SynthesisResult synthesize();

  /// Solves with explicit slider values (reusing the encoding).
  SynthesisResult synthesize(const model::Sliders& sliders);

  /// Solves with an arbitrary subset of thresholds enforced — the re-solve
  /// primitive of Algorithm 1. Absent optionals drop that assumption.
  SynthesisResult synthesize_partial(
      std::optional<util::Fixed> isolation,
      std::optional<util::Fixed> usability,
      std::optional<util::Fixed> budget);

  /// Warm re-solve: swaps the threshold assumptions without re-encoding.
  /// Identical verdict semantics to synthesize(sliders); the returned
  /// encode_seconds is 0 because the encoding is amortized over the
  /// synthesizer's lifetime — warm-started sweeps use this to attribute
  /// encode cost to the first point only.
  SynthesisResult resolve(const model::Sliders& sliders);

  /// Applies the options' per-check caps to the backend, clamping the
  /// wall-clock cap to `remaining_ms` when positive (0 = no clamp). The
  /// one place caps reach the backend: construction and every rebuild
  /// call it with 0, and synth::solve_sweep_point_on before every point.
  void set_check_budget(std::int64_t remaining_ms);

  double encode_seconds() const { return encode_seconds_; }
  const EncodingStats& encoding_stats() const { return encoding_->stats(); }
  const smt::Backend& backend() const { return *backend_; }
  /// Cumulative backend effort counters (conflicts, propagations, ...);
  /// snapshot before/after a probe to attribute effort to it.
  smt::SolverStats solver_statistics() const {
    return backend_->statistics();
  }
  /// Warm re-solves served since construction (resolve() calls).
  int resolves() const { return resolves_; }
  const SynthesisOptions& options() const { return options_; }

  /// The spec currently synthesized against (post-delta after
  /// apply_delta calls).
  const model::ProblemSpec& spec() const { return *spec_; }

  /// Applies `delta` to the current spec (transactionally — a SpecError
  /// leaves the synthesizer untouched) and re-synthesizes on the
  /// cheapest sound tier, classified by which cs-spec-v1 sub-digests
  /// moved (model/fingerprint.h). See DeltaApplyReport for the tier and
  /// verdict contract.
  DeltaApplyReport apply_delta(const model::SpecDelta& delta);

  /// Sub-digests of spec() kept from the last apply_delta, which the next
  /// call uses as its pre-delta digests; nullopt before the first call
  /// (the first call computes them, so a synthesizer that never takes a
  /// delta never hashes its spec).
  const std::optional<model::SpecDigests>& kept_digests() const {
    return digests_;
  }

 private:
  smt::Lit guard_for(ThresholdKind kind, util::Fixed value);

  /// Swaps in `next` without touching the encoding (same shape).
  void adopt_spec(std::shared_ptr<const model::ProblemSpec> next);

  /// Cold rebuild against `next`, on a route table carried from routes_.
  void rebuild(std::shared_ptr<const model::ProblemSpec> next);

  const model::ProblemSpec* spec_;
  /// Owner of spec_ when constructed from (or churned onto) a shared
  /// spec; null for the borrowed-reference constructor.
  std::shared_ptr<const model::ProblemSpec> spec_owner_;
  /// Owner of the spec whose network routes_ reads: adopt_spec re-seats
  /// the encoding but not the route table, so that one spec outlives
  /// its successors until the next rebuild.
  std::shared_ptr<const model::ProblemSpec> routes_spec_;
  SynthesisOptions options_;
  std::unique_ptr<topology::RouteTable> routes_;
  std::unique_ptr<smt::Backend> backend_;
  std::unique_ptr<Encoding> encoding_;
  std::optional<model::SpecDigests> digests_;
  double encode_seconds_ = 0;
  int resolves_ = 0;

  std::map<std::pair<int, std::int64_t>, smt::Lit> guard_cache_;
  std::unordered_map<smt::BoolVar, ThresholdKind> guard_kind_;
};

}  // namespace cs::synth
