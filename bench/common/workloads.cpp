#include "common/workloads.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "obs/trace.h"
#include "topology/generator.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/timer.h"

namespace cs::bench {

bool full_mode() {
  const char* v = std::getenv("CS_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

smt::BackendKind backend() {
  const char* v = std::getenv("CS_BENCH_BACKEND");
  if (v == nullptr) return smt::BackendKind::kZ3;
  return smt::backend_from_name(v);
}

synth::SynthesisOptions options() {
  synth::SynthesisOptions opts;
  opts.backend = backend();
  opts.check_time_limit_ms = full_mode() ? 120000 : 10000;
  return opts;
}

synth::SynthesisOptions sweep_options() {
  synth::SynthesisOptions opts;
  opts.backend = backend();
  // Z3 caps are rlimit units; MiniPB caps are conflicts.
  const std::int64_t quick =
      opts.backend == smt::BackendKind::kZ3 ? 50'000'000 : 100'000;
  opts.check_conflict_limit = full_mode() ? 12 * quick : quick;
  return opts;
}

int jobs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string_view(argv[i]) == "--jobs")
      return static_cast<int>(util::parse_int(argv[i + 1], "--jobs"));
  return 1;
}

model::ProblemSpec make_eval_spec(int hosts, int routers,
                                  double cr_fraction, std::uint64_t seed,
                                  int services) {
  util::Rng rng(seed);
  model::ProblemSpec spec;
  topology::GeneratorConfig net_cfg;
  net_cfg.hosts = hosts;
  net_cfg.routers = routers;
  spec.network = topology::generate_topology(net_cfg, rng);

  model::WorkloadConfig wl;
  wl.service_count = services;
  wl.max_services_per_pair = std::min(3, services);
  wl.cr_fraction = cr_fraction;
  model::populate_random_workload(spec, wl, rng);
  return spec;
}

model::ProblemSpec make_eval_spec(topology::TopologyKind kind, int hosts,
                                  int routers, double cr_fraction,
                                  std::uint64_t seed, int services) {
  if (kind == topology::TopologyKind::kMesh)
    return make_eval_spec(hosts, routers, cr_fraction, seed, services);
  util::Rng rng(seed);
  model::ProblemSpec spec;
  spec.network = topology::make_structured(kind, hosts, seed);
  model::WorkloadConfig wl;
  wl.service_count = services;
  wl.max_services_per_pair = std::min(3, services);
  wl.cr_fraction = cr_fraction;
  model::populate_random_workload(spec, wl, rng);
  return spec;
}

model::ProblemSpec make_locality_spec(topology::TopologyKind kind, int hosts,
                                      std::uint64_t seed) {
  model::ProblemSpec spec;
  spec.network = topology::make_structured(kind, hosts, seed);
  model::add_standard_services(spec.services);
  const model::ServiceId web = *spec.services.find("WEB");
  const model::ServiceId db = *spec.services.find("DB");
  const model::ServiceId ssh = *spec.services.find("SSH");

  std::vector<topology::NodeId> hs;
  for (const topology::NodeId h : spec.network.hosts())
    if (!spec.network.node(h).is_internet) hs.push_back(h);
  const int n = static_cast<int>(hs.size());
  const auto at = [&](int i) {
    return hs[static_cast<std::size_t>(((i % n) + n) % n)];
  };
  for (int i = 0; i < n; ++i) {
    spec.flows.add(model::Flow{at(i), at(i + 1), web});
    spec.flows.add(model::Flow{at(i), at(i + 2), db});
    if (i % 4 == 0) spec.flows.add(model::Flow{at(i), at(i + n / 2), ssh});
  }
  for (std::size_t f = 0; f < spec.flows.size(); f += 10)
    spec.connectivity.add(static_cast<model::FlowId>(f));

  spec.sliders = model::Sliders{util::Fixed::from_int(7),
                                util::Fixed::from_double(4.5),
                                util::Fixed::from_int(18 * hosts)};
  spec.finalize();
  return spec;
}

model::ProblemSpec make_paper_example_spec() {
  model::ProblemSpec spec;
  spec.network = topology::make_paper_example();
  const model::ServiceId svc = spec.services.add("svc");
  const auto& hosts = spec.network.hosts();
  for (const topology::NodeId i : hosts)
    for (const topology::NodeId j : hosts)
      if (i != j) spec.flows.add(model::Flow{i, j, svc});
  for (std::size_t f = 0; f < spec.flows.size(); f += 10)
    spec.connectivity.add(static_cast<model::FlowId>(f));
  spec.finalize();
  return spec;
}

TimedRun run_synthesis(const model::ProblemSpec& spec,
                       const model::Sliders& sliders) {
  // One span per cold synthesis; the encoder/solver layers below nest
  // their own phase spans inside it, so a bench trace decomposes every
  // reported time without extra bench-side stopwatches.
  obs::Span span("bench", "bench/synthesis");
  util::Stopwatch watch;
  synth::Synthesizer synthesizer(spec, options());
  synth::SynthesisResult result = synthesizer.synthesize(sliders);
  TimedRun out;
  out.seconds = watch.elapsed_seconds();
  out.encode_seconds = result.encode_seconds;
  out.status = result.status;
  out.solver_memory_bytes = result.solver_memory_bytes;
  out.design = std::move(result.design);
  return out;
}

double median_synthesis_seconds(int hosts, int routers, double cr_fraction,
                                std::uint64_t base_seed, int seeds,
                                const model::Sliders& sliders,
                                bool* all_decided) {
  std::vector<double> times;
  bool decided = true;
  obs::Span span("bench", "bench/median-cell");
  span.arg("hosts", std::to_string(hosts));
  span.arg("routers", std::to_string(routers));
  span.arg("seeds", std::to_string(seeds));
  for (int s = 0; s < seeds; ++s) {
    const model::ProblemSpec spec = make_eval_spec(
        hosts, routers, cr_fraction, base_seed + static_cast<std::uint64_t>(s));
    const TimedRun run = run_synthesis(spec, sliders);
    times.push_back(run.seconds);
    decided = decided && run.status != smt::CheckResult::kUnknown;
  }
  span.end();
  std::sort(times.begin(), times.end());
  if (all_decided != nullptr) *all_decided = decided;
  return times[times.size() / 2];
}

Cell number(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  Cell cell(buf);
  cell.numeric = true;
  return cell;
}

void emit(const std::string& name, const std::string& title,
          const std::vector<std::string>& header, const std::vector<Row>& rows,
          const std::string& schema, const std::string& json_path) {
  std::vector<std::vector<std::string>> texts;
  for (const Row& row : rows) {
    texts.emplace_back();
    for (const Cell& cell : row) texts.back().push_back(cell.text);
  }

  std::printf("=== %s ===\n", title.c_str());
  util::TextTable table(header);
  for (const auto& row : texts) table.add_row(row);
  std::fputs(table.render().c_str(), stdout);

  const std::string path = name + ".csv";
  util::CsvWriter csv(path, header);
  for (const auto& row : texts) csv.add_row(row);
  if (!csv.ok()) throw util::Error("cannot write " + path);
  std::printf("(series written to %s)\n", path.c_str());

  if (!schema.empty()) {
    std::string json = "{\n  \"schema\": ";
    util::append_json_string(json, schema);
    json += ",\n  \"runs\": [\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      json += "    {";
      for (std::size_t c = 0; c < header.size(); ++c) {
        if (c > 0) json += ", ";
        util::append_json_string(json, header[c]);
        json += ": ";
        if (rows[r][c].numeric)
          json += rows[r][c].text;
        else
          util::append_json_string(json, rows[r][c].text);
      }
      json += r + 1 < rows.size() ? "},\n" : "}\n";
    }
    json += "  ]\n}\n";
    std::ofstream out(json_path);
    out << json;
    out.close();
    if (!out) throw util::Error("cannot write " + json_path);
    std::printf("(runs written to %s)\n", json_path.c_str());
  }
  std::printf("\n");
}

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", s);
  return buf;
}

std::string fmt_isolation_cell(const synth::SweepPointResult& point) {
  if (point.skipped) return "skipped";
  const synth::BoundSearchResult& best = point.search;
  if (best.feasible)
    return best.bound.to_string() + (best.exact ? "" : " (>=)");
  return best.exact ? "infeasible" : "timeout";
}

std::string fmt_time_cell(const synth::SweepPointResult& point) {
  if (point.skipped) return "skipped";
  return fmt_seconds(point.wall_seconds) +
         (point.status == smt::CheckResult::kSat ? "" : " (unsat)");
}

TraceGuard::TraceGuard(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--trace-out") {
      path_ = argv[i + 1];
      break;
    }
  }
  if (path_.empty()) return;
  obs::session().enable();
  obs::session().set_thread_name("main");
}

TraceGuard::~TraceGuard() {
  if (path_.empty()) return;
  // Destruction happens at the end of the bench's main, after every
  // sweep pool has joined — no recording thread can race the export.
  obs::session().disable();
  try {
    obs::session().write_json(path_);
    std::printf("trace written to %s\n", path_.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace export failed: %s\n", e.what());
  }
}

void print_sweep_effort(const char* label, const synth::SweepResult& sweep) {
  std::printf(
      "%-4s: %d worker(s), %.3fs wall, %.3fs encode, %d probes, "
      "%lld conflicts, %lld propagations, %lld restarts",
      label, sweep.jobs, sweep.wall_seconds, sweep.total_encode_seconds,
      sweep.total_probes,
      static_cast<long long>(sweep.total_solver.conflicts),
      static_cast<long long>(sweep.total_solver.propagations),
      static_cast<long long>(sweep.total_solver.restarts));
  if (sweep.warm_reuses > 0)
    std::printf(", %d warm re-solve(s)", sweep.warm_reuses);
  std::printf("\n");
}

}  // namespace cs::bench
