// configsynth_cli — the command-line face of the library.
//
// Subcommands:
//   synth <input.cfg>            synthesize for the file's slider values,
//                                print report, Table V, placements,
//                                exposure, and save the design
//   optimize <input.cfg>         maximize isolation under the file's
//                                usability/budget sliders
//   mincost <input.cfg>          minimize the budget under the file's
//                                isolation/usability sliders
//   frontier <input.cfg>         sweep the usability/budget trade-off grid
//   assist <input.cfg>           print the Table III slider assistance
//   explain <input.cfg>          run Algorithm 1 on an UNSAT slider triple
//   check <input.cfg> <design>   re-validate a saved design file
//
// Common flags (after the subcommand arguments) are the shared surface
// of net/options.h — --backend, --time-limit, --conflict-limit, --jobs
// (sweep workers for `frontier`; 0 = one per hardware thread), and
// --trace-out; the service-only flags (--queue-limit, --cache-capacity,
// --metrics-*) are accepted for uniformity but only apply to the
// service-backed binaries. Plus:
//   --out <file>          where `synth` writes the design (default
//                         design.txt)
//   --shard               `synth` solves through shard::ShardedSynthesizer
//                         (automatic region count; region solves run on
//                         --jobs workers) and prints the partition/stitch
//                         summary before the usual report
//   --shard-regions <N>   the same with N regions (N >= 2)
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/checker.h"
#include "analysis/design_io.h"
#include "analysis/exposure.h"
#include "analysis/report.h"
#include "model/input_file.h"
#include "net/options.h"
#include "obs/trace.h"
#include "shard/sharded.h"
#include "synth/assistance.h"
#include "synth/frontier.h"
#include "synth/optimizer.h"
#include "synth/synthesizer.h"
#include "synth/unsat_analysis.h"
#include "util/strings.h"

namespace {

using namespace cs;

struct CliOptions {
  /// Shared flag surface; `common.service.workers` doubles as the sweep
  /// worker count for `frontier`.
  net::CommonOptions common;
  std::string out_path = "design.txt";
  /// Sharded `synth`: 0 = off, -1 = automatic region count, >= 2 = that
  /// many regions.
  int shard_regions = 0;
};

CliOptions parse_flags(int argc, char** argv, int first_flag) {
  CliOptions opts;
  opts.common.synthesis.check_time_limit_ms = 20000;
  opts.common.service.workers = 0;  // frontier: one per hardware thread
  for (int i = first_flag; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      CS_REQUIRE(i + 1 < argc, "flag " + flag + " needs a value");
      return argv[++i];
    };
    if (net::consume_common_flag(opts.common, argc, argv, i)) {
    } else if (flag == "--out") {
      opts.out_path = next();
    } else if (flag == "--shard") {
      if (opts.shard_regions == 0) opts.shard_regions = -1;
    } else if (flag == "--shard-regions") {
      const long long regions = util::parse_int(next(), flag);
      CS_REQUIRE(regions >= 2, "--shard-regions must be >= 2");
      opts.shard_regions = static_cast<int>(regions);
    } else {
      throw util::SpecError("unknown flag '" + flag + "'");
    }
  }
  return opts;
}

/// `synth` with --shard/--shard-regions: solve through the shard
/// pipeline (partition → per-region solves → stitch, monolithic
/// fallback on a failed stitch) and render the same report from the
/// merged design. Verdicts match the monolithic path by construction.
int cmd_synth_sharded(const model::ProblemSpec& spec,
                      const CliOptions& opts) {
  shard::ShardOptions shard_options;
  shard_options.synthesis = opts.common.synthesis;
  shard_options.regions = std::max(opts.shard_regions, 0);
  shard_options.jobs = opts.common.service.workers;
  shard::ShardedOutcome outcome =
      shard::ShardedSynthesizer(spec, shard_options).synthesize();

  std::cout << "=== Sharded synthesis ===\n"
            << "regions " << outcome.regions << ", cut links "
            << outcome.cut_links << ", cross-region flows "
            << outcome.cross_flows << "\n";
  if (outcome.used_fallback) {
    std::cout << "fallback to monolithic solve (" << outcome.fallback_reason
              << ")\n";
  } else {
    std::cout << "stitched: " << outcome.escalated_flows
              << " cross flows escalated, " << outcome.repair_placements
              << " repair placements\n";
  }
  std::cout << "plan " << outcome.plan_seconds << "s, regions "
            << outcome.region_wall_seconds << "s, stitch "
            << outcome.stitch_seconds << "s, total " << outcome.wall_seconds
            << "s\n\n";

  synth::SynthesisResult result;
  result.status = outcome.status;
  result.design = std::move(outcome.design);
  result.conflicting = std::move(outcome.conflicting);
  result.solve_seconds = outcome.wall_seconds;
  std::cout << analysis::render_report(spec, result);
  if (result.status != smt::CheckResult::kSat) {
    if (result.status == smt::CheckResult::kUnsat) {
      synth::Synthesizer explainer(spec, opts.common.synthesis);
      std::cout << "\n" << synth::analyze_unsat(explainer, spec).to_string();
    }
    return 1;
  }
  synth::SecurityDesign design = *result.design;
  analysis::minimize_placements(spec, design);
  std::cout << "\n" << design.isolation_table(spec);
  std::cout << "\n" << design.to_string(spec);
  std::cout << "\n=== Exposure ===\n"
            << analysis::render_exposure(
                   analysis::compute_exposure(spec, design));
  std::ofstream out(opts.out_path);
  analysis::save_design(out, design);
  std::cout << "\ndesign saved to " << opts.out_path << "\n";
  return 0;
}

int cmd_synth(const model::ProblemSpec& spec, const CliOptions& opts) {
  if (opts.shard_regions != 0) return cmd_synth_sharded(spec, opts);
  synth::Synthesizer synthesizer(spec, opts.common.synthesis);
  const synth::SynthesisResult result = synthesizer.synthesize();
  std::cout << analysis::render_report(spec, result);
  if (result.status != smt::CheckResult::kSat) {
    if (result.status == smt::CheckResult::kUnsat)
      std::cout << "\n" << synth::analyze_unsat(synthesizer, spec).to_string();
    return 1;
  }
  synth::SecurityDesign design = *result.design;
  analysis::minimize_placements(spec, design);
  std::cout << "\n" << design.isolation_table(spec);
  std::cout << "\n" << design.to_string(spec);
  std::cout << "\n=== Exposure ===\n"
            << analysis::render_exposure(
                   analysis::compute_exposure(spec, design));
  std::ofstream out(opts.out_path);
  analysis::save_design(out, design);
  std::cout << "\ndesign saved to " << opts.out_path << "\n";
  return 0;
}

int cmd_optimize(const model::ProblemSpec& spec, const CliOptions& opts) {
  synth::Synthesizer synthesizer(spec, opts.common.synthesis);
  const synth::BoundSearchResult best = synth::maximize_isolation(
      synthesizer, spec, spec.sliders.usability, spec.sliders.budget);
  if (!best.feasible) {
    std::cout << "infeasible: usability/budget constraints conflict with "
                 "the hard requirements\n";
    return 1;
  }
  std::cout << "max isolation " << best.metrics.isolation
            << (best.exact ? "" : " (lower bound, probes capped)")
            << " at usability " << best.metrics.usability << ", cost $"
            << best.metrics.cost << "K, " << best.design->device_count()
            << " devices (" << best.probes << " probes, "
            << best.solve_seconds << "s)\n";
  return 0;
}

int cmd_mincost(const model::ProblemSpec& spec, const CliOptions& opts) {
  synth::Synthesizer synthesizer(spec, opts.common.synthesis);
  const synth::BoundSearchResult r = synth::minimize_cost(
      synthesizer, spec, spec.sliders.isolation, spec.sliders.usability);
  if (!r.feasible) {
    std::cout << "infeasible: the isolation/usability floors cannot be met "
                 "at any budget\n";
    return 1;
  }
  std::cout << "cheapest deployment: $" << r.bound << "K"
            << (r.exact ? "" : " (upper bound, probes capped)")
            << " — isolation " << r.metrics.isolation << ", usability "
            << r.metrics.usability << ", " << r.design->device_count()
            << " devices (" << r.probes << " probes, " << r.solve_seconds
            << "s)\n";
  return 0;
}

int cmd_frontier(const model::ProblemSpec& spec, const CliOptions& opts) {
  synth::FrontierOptions fopts = synth::FrontierOptions::fig3_defaults(
      spec.sliders.budget / 2, spec.sliders.budget);
  fopts.jobs = opts.common.service.workers;  // 0 = one per hardware thread
  const auto points = synth::explore_frontier(spec, opts.common.synthesis, fopts);
  std::cout << synth::render_frontier(points);
  return 0;
}

int cmd_assist(const model::ProblemSpec& spec) {
  std::cout << synth::render_assistance(synth::slider_assistance(spec));
  return 0;
}

int cmd_explain(const model::ProblemSpec& spec, const CliOptions& opts) {
  synth::Synthesizer synthesizer(spec, opts.common.synthesis);
  std::cout << synth::analyze_unsat(synthesizer, spec).to_string();
  return 0;
}

int cmd_check(const model::ProblemSpec& spec, const std::string& path) {
  std::ifstream in(path);
  CS_REQUIRE(static_cast<bool>(in), "cannot open design '" + path + "'");
  const synth::SecurityDesign design = analysis::load_design(in);
  const analysis::CheckReport report = analysis::check_design(spec, design);
  std::cout << report.to_string();
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 3) {
      std::cerr
          << "usage: " << argv[0]
          << " synth|optimize|mincost|frontier|assist|explain <input.cfg>"
             " [flags]\n"
          << "       " << argv[0] << " check <input.cfg> <design> [flags]\n";
      return 2;
    }
    const std::string cmd = argv[1];
    const model::ProblemSpec spec = model::parse_input_file(argv[2]);

    if (cmd == "check") CS_REQUIRE(argc >= 4, "check needs a design file");
    const CliOptions opts = parse_flags(argc, argv, cmd == "check" ? 4 : 3);
    if (!opts.common.trace_path.empty()) {
      obs::session().enable();
      obs::session().set_thread_name("main");
    }
    const auto run = [&]() -> int {
      if (cmd == "check") return cmd_check(spec, argv[3]);
      if (cmd == "synth") return cmd_synth(spec, opts);
      if (cmd == "optimize") return cmd_optimize(spec, opts);
      if (cmd == "mincost") return cmd_mincost(spec, opts);
      if (cmd == "frontier") return cmd_frontier(spec, opts);
      if (cmd == "assist") return cmd_assist(spec);
      if (cmd == "explain") return cmd_explain(spec, opts);
      std::cerr << "unknown subcommand '" << cmd << "'\n";
      return 2;
    };
    const int code = run();
    if (!opts.common.trace_path.empty()) {
      obs::session().disable();
      obs::session().write_json(opts.common.trace_path);
      std::cerr << "trace written to " << opts.common.trace_path << "\n";
    }
    return code;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
