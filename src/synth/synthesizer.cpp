#include "synth/synthesizer.h"

#include <algorithm>
#include <utility>

#include "model/fingerprint.h"
#include "obs/trace.h"
#include "util/error.h"

namespace cs::synth {

namespace {

const char* status_tag(smt::CheckResult status) {
  switch (status) {
    case smt::CheckResult::kSat:
      return "sat";
    case smt::CheckResult::kUnsat:
      return "unsat";
    case smt::CheckResult::kUnknown:
      return "unknown";
  }
  return "?";
}

}  // namespace

Synthesizer::Synthesizer(const model::ProblemSpec& spec,
                         SynthesisOptions options)
    : spec_(&spec),
      options_(options),
      routes_(std::make_unique<topology::RouteTable>(spec.network,
                                                     spec.route_options)),
      backend_(smt::make_backend(options.backend)) {
  util::Stopwatch watch;
  {
    obs::Span span("synth", "synth/encode");
    encoding_ = std::make_unique<Encoding>(*spec_, *routes_, *backend_,
                                           options_.retractable_sections);
  }
  encode_seconds_ = watch.elapsed_seconds();
  set_check_budget(0);
}

Synthesizer::Synthesizer(std::shared_ptr<const model::ProblemSpec> spec,
                         SynthesisOptions options)
    : Synthesizer(*spec, options) {
  spec_owner_ = routes_spec_ = std::move(spec);
}

void Synthesizer::adopt_spec(
    std::shared_ptr<const model::ProblemSpec> next) {
  encoding_->rebind_spec(*next);
  spec_owner_ = std::move(next);
  spec_ = spec_owner_.get();
}

void Synthesizer::rebuild(std::shared_ptr<const model::ProblemSpec> next) {
  auto routes = std::make_unique<topology::RouteTable>(
      next->network, next->route_options, *routes_);
  auto backend = smt::make_backend(options_.backend);
  util::Stopwatch watch;
  std::unique_ptr<Encoding> encoding;
  {
    obs::Span span("synth", "synth/re-encode");
    encoding = std::make_unique<Encoding>(*next, *routes, *backend,
                                          options_.retractable_sections);
  }
  // Commit: nothing references the old specs any more.
  encoding_ = std::move(encoding);
  backend_ = std::move(backend);
  routes_ = std::move(routes);
  spec_owner_ = routes_spec_ = std::move(next);
  spec_ = spec_owner_.get();
  guard_cache_.clear();
  guard_kind_.clear();
  encode_seconds_ = watch.elapsed_seconds();
  set_check_budget(0);
}

DeltaApplyReport Synthesizer::apply_delta(const model::SpecDelta& delta) {
  obs::Span span("synth", "synth/apply-delta");
  // Transactional: model::apply_delta throws before anything here
  // mutates, so a bad delta leaves this synthesizer fully usable.
  auto next = std::make_shared<const model::ProblemSpec>(
      model::apply_delta(*spec_, delta));
  // The kept digests (the previous step's `after`) describe the current
  // spec. They are dropped while the spec changes hands, so a throw below
  // leaves them to be recomputed rather than stale.
  const model::SpecDigests before =
      digests_ ? *std::exchange(digests_, std::nullopt)
               : model::fingerprint_sections(*spec_);
  const model::SpecDigests after = model::fingerprint_sections(*next);
  const bool topo_clean = before.topology == after.topology;
  const bool flows_clean = before.flows == after.flows;
  const bool uics_clean = before.uics == after.uics;

  DeltaApplyReport report;
  if (topo_clean && flows_clean && uics_clean) {
    // Thresholds/budget-only: the formula is untouched; swap specs and
    // re-solve at the new query point on the live solver.
    adopt_spec(std::move(next));
    report.path = "warm";
    report.result = resolve(spec_->sliders);
  } else if (topo_clean && flows_clean &&
             encoding_->retractable_sections()) {
    // Policy-only: retire the guarded UIC/RMC sections, re-emit them
    // from the post-delta spec, and re-solve warm. Equisatisfiable with
    // a cold encode of the new spec by construction — the sections only
    // constrain pre-existing y/ladder variables.
    adopt_spec(std::move(next));
    encoding_->reemit_policy_sections();
    report.path = "retract";
    report.result = resolve(spec_->sliders);
  } else {
    // Anything else reshapes the formula: re-encode on a route table
    // that carries only the pairs whose routes provably survive.
    report.path = "full";
    report.fallback_reason = !topo_clean || !flows_clean
                                 ? "flows-or-topology-dirty"
                                 : "non-retractable-sections";
    rebuild(std::move(next));
    report.result = synthesize();
  }

  if ((report.path == "warm" || report.path == "retract") &&
      report.result.status == smt::CheckResult::kUnknown) {
    // A capped probe on the shared learnt state ran out of budget; a
    // cold solve may still decide it. Rebuild so the reported verdict
    // is the cold verdict by construction (both tiers adopted `next`,
    // so spec_owner_ holds it).
    report.path = "full";
    report.fallback_reason = "capped-probe";
    rebuild(spec_owner_);
    report.result = synthesize();
  }
  digests_ = after;  // every tier above adopted `next`
  span.arg("path", report.path.c_str());
  return report;
}

smt::Lit Synthesizer::guard_for(ThresholdKind kind, util::Fixed value) {
  const std::pair<int, std::int64_t> key{static_cast<int>(kind),
                                         value.raw()};
  if (const auto it = guard_cache_.find(key); it != guard_cache_.end())
    return it->second;
  const smt::Lit guard = encoding_->add_threshold(kind, value);
  guard_cache_.emplace(key, guard);
  guard_kind_.emplace(guard.var, kind);
  return guard;
}

SynthesisResult Synthesizer::synthesize() {
  return synthesize(spec_->sliders);
}

SynthesisResult Synthesizer::synthesize(const model::Sliders& sliders) {
  return synthesize_partial(sliders.isolation, sliders.usability,
                            sliders.budget);
}

SynthesisResult Synthesizer::resolve(const model::Sliders& sliders) {
  ++resolves_;
  obs::Span span("synth", "synth/resolve");
  SynthesisResult result = synthesize(sliders);
  span.arg("status", status_tag(result.status));
  result.encode_seconds = 0;  // amortized: nothing was re-encoded
  return result;
}

void Synthesizer::set_check_budget(std::int64_t remaining_ms) {
  std::int64_t time_ms = options_.check_time_limit_ms;
  if (remaining_ms > 0)
    time_ms = time_ms > 0 ? std::min(time_ms, remaining_ms) : remaining_ms;
  backend_->set_time_limit_ms(time_ms);
  backend_->set_conflict_limit(
      options_.check_conflict_limit > 0 ? options_.check_conflict_limit : 0);
}

SynthesisResult Synthesizer::synthesize_partial(
    std::optional<util::Fixed> isolation, std::optional<util::Fixed> usability,
    std::optional<util::Fixed> budget) {
  // Retractable policy sections are enabled by their guard on every
  // check (no-op when sections are hard).
  std::vector<smt::Lit> assumptions = encoding_->section_assumptions();
  if (isolation)
    assumptions.push_back(guard_for(ThresholdKind::kIsolation, *isolation));
  if (usability)
    assumptions.push_back(guard_for(ThresholdKind::kUsability, *usability));
  if (budget) assumptions.push_back(guard_for(ThresholdKind::kCost, *budget));

  SynthesisResult result;
  result.encode_seconds = encode_seconds_;
  result.encoding = encoding_->stats();

  util::Stopwatch watch;
  {
    obs::Span span("synth", "synth/check");
    result.status = backend_->check(assumptions);
    span.arg("status", status_tag(result.status));
  }
  result.solve_seconds = watch.elapsed_seconds();
  result.solver_memory_bytes = backend_->memory_bytes();

  if (result.status == smt::CheckResult::kSat) {
    result.design = encoding_->decode();
  } else if (result.status == smt::CheckResult::kUnsat) {
    for (const smt::Lit l : backend_->unsat_core()) {
      const auto it = guard_kind_.find(l.var);
      if (it != guard_kind_.end())
        result.conflicting.push_back(it->second);
    }
  }
  return result;
}

}  // namespace cs::synth
