#include "analysis/report.h"

#include <sstream>

namespace cs::analysis {

std::string render_report(const model::ProblemSpec& spec,
                          const synth::SynthesisResult& result) {
  std::ostringstream out;
  out << "=== ConfigSynth synthesis report ===\n";
  out << "flows: " << spec.flows.size()
      << "  hosts: " << spec.network.host_count()
      << "  routers: " << spec.network.router_count()
      << "  links: " << spec.network.link_count() << "\n";
  out << "encoding: " << result.encoding.flow_vars << " y-vars, "
      << result.encoding.pair_device_vars << " x-vars, "
      << result.encoding.placement_vars << " l-vars, "
      << result.encoding.clauses << " clauses, "
      << result.encoding.linear_constraints << " linear constraints\n";
  out << "time: encode " << result.encode_seconds << "s, solve "
      << result.solve_seconds << "s\n";

  switch (result.status) {
    case smt::CheckResult::kSat: {
      out << "status: SAT\n";
      const CheckReport check = check_design(spec, *result.design);
      out << check.to_string();
      const auto hist = result.design->pattern_histogram();
      out << "pattern histogram:";
      for (const model::IsolationPattern p : model::kAllPatterns) {
        if (!spec.isolation.is_enabled(p)) continue;
        out << "  " << model::pattern_name(p) << "="
            << hist[static_cast<std::size_t>(model::pattern_index(p))];
      }
      out << "  none=" << hist[model::kPatternCount] << "\n";
      out << "devices deployed: " << result.design->device_count() << "\n";
      break;
    }
    case smt::CheckResult::kUnsat: {
      out << "status: UNSAT; conflicting thresholds:";
      for (const synth::ThresholdKind k : result.conflicting)
        out << " " << synth::threshold_name(k);
      out << "\n";
      break;
    }
    case smt::CheckResult::kUnknown:
      out << "status: UNKNOWN (budget exhausted)\n";
      break;
  }
  return out.str();
}

std::size_t minimize_placements(const model::ProblemSpec& spec,
                                synth::SecurityDesign& design) {
  std::size_t removed = 0;
  topology::RouteTable routes(spec.network, spec.route_options);
  for (std::size_t e = 0; e < design.link_count(); ++e) {
    for (const model::DeviceType d : model::kAllDevices) {
      const auto link = static_cast<topology::LinkId>(e);
      if (!design.placed(link, d)) continue;
      design.set_placed(link, d, false);
      // Threshold check excluded: removing devices only lowers cost; the
      // structural constraints are what could break.
      if (check_design(spec, design, routes, /*check_thresholds=*/false)
              .ok()) {
        ++removed;
      } else {
        design.set_placed(link, d, true);
      }
    }
  }
  return removed;
}

}  // namespace cs::analysis
