// Independent design checker.
//
// Re-validates a concrete SecurityDesign against a ProblemSpec without any
// solver: connectivity requirements (IIC2), device implications (eq. 1),
// route coverage (eq. 7), IPSec tunnel-endpoint rules (§III-C), user
// constraints (eq. 11) and — optionally — the three slider thresholds
// (eq. 9) via compute_metrics. Every SAT model produced by either backend
// must pass this checker; the integration tests enforce that, which guards
// the encoder and the solvers against each other.
#pragma once

#include <string>
#include <vector>

#include "synth/metrics.h"
#include "topology/routes.h"

namespace cs::analysis {

struct CheckReport {
  std::vector<std::string> issues;
  synth::DesignMetrics metrics;

  bool ok() const { return issues.empty(); }
  std::string to_string() const;
};

/// Validates `design`; when `check_thresholds` also compares the metrics
/// against spec.sliders.
CheckReport check_design(const model::ProblemSpec& spec,
                         const synth::SecurityDesign& design,
                         bool check_thresholds = true);

/// Same, but reads routes from `routes`, which must be built over
/// spec.network with spec.route_options — the route cost dominates
/// checking at scale, so a caller checking many designs on one spec
/// shares one table. Certification of incremental designs (delta_test,
/// bench_fig7_churn, perfbench's churn gate) deliberately uses the
/// overload above: its freshly enumerated table is what makes it an
/// oracle for the routes a rebuilt synthesizer carried across a delta.
CheckReport check_design(const model::ProblemSpec& spec,
                         const synth::SecurityDesign& design,
                         topology::RouteTable& routes,
                         bool check_thresholds = true);

}  // namespace cs::analysis
