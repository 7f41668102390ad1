// Shared workload builder, measurement helpers and result writer for the
// bench binaries.
//
// Every figure/table bench generates networks through this module so the
// whole evaluation agrees on the methodology (paper §V): random connected
// router core, hosts attached at the edge, 1-3 services per ordered host
// pair, connectivity requirements as a percentage of all flows.
//
// Benches run in two scales:
//   * quick (default)         — small sweeps, finishes in seconds; used by
//                               `for b in build/bench/*; do $b; done`.
//   * full  (CS_BENCH_FULL=1) — paper-scale parameter ranges.
#pragma once

#include <concepts>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "model/spec.h"
#include "smt/ir.h"
#include "synth/sweep.h"
#include "synth/synthesizer.h"
#include "topology/structured.h"

namespace cs::bench {

/// True when CS_BENCH_FULL=1 is set in the environment.
bool full_mode();

/// Backend selected by CS_BENCH_BACKEND (z3|minipb); defaults to Z3,
/// the paper's solver.
smt::BackendKind backend();

/// Standard synthesis options for benches: the selected backend plus a
/// per-check time cap (10s quick / 120s full) so boundary probes — which
/// are genuinely exponential (paper Fig. 5a) — terminate. Capped checks
/// are reported as such in the tables.
synth::SynthesisOptions options();

/// Options for verdict-reporting sweep benches (the Fig. 3 grids): the
/// selected backend plus a deterministic per-check effort cap
/// (SynthesisOptions::check_conflict_limit) instead of the wall-clock cap.
/// Wall caps expire under machine load, so a capped bound would depend on
/// how busy the box is and on the --jobs value; the effort cap is a pure
/// function of the formula, keeping the emitted tables byte-identical at
/// any worker count. Units are backend-specific (Z3 resource units /
/// MiniPB conflicts), sized to roughly match options()'s wall caps.
synth::SynthesisOptions sweep_options();

/// Sweep worker count for benches that run their grid on the sweep engine
/// (synth/sweep.h): `--jobs N` on the command line, else 1 — benches
/// default to serial so reported times stay comparable to the paper's
/// single-threaded measurements. `--jobs 0` means one worker per hardware
/// thread. Results are byte-identical across jobs values (fresh
/// synthesizer per point).
int jobs(int argc, char** argv);

/// Builds an evaluation spec: generated topology + random workload.
/// Sliders are left at zero; callers set them per experiment.
model::ProblemSpec make_eval_spec(int hosts, int routers,
                                  double cr_fraction, std::uint64_t seed,
                                  int services = 3);

/// Same workload over a chosen topology family (topology/structured.h).
/// kMesh reproduces the paper's random mesh with the given router count;
/// the structured families derive their own switch counts from `hosts`
/// and ignore `routers`.
model::ProblemSpec make_eval_spec(topology::TopologyKind kind, int hosts,
                                  int routers, double cr_fraction,
                                  std::uint64_t seed, int services = 3);

/// Locality-weighted scale workload on a structured fabric (the Fig. 6
/// and churn-bench spec). Hosts attach in contiguous index blocks, so
/// adjacent indices are topologically close; each host talks WEB/DB to
/// its two index neighbors and every fourth host reaches one far host
/// (SSH to i + n/2) — roughly 2.25 flows per host. Every 10th flow is a
/// connectivity requirement; sliders are 7 / 4.5 / 18·hosts (feasible
/// across the size range), and the budget scales with the host count.
model::ProblemSpec make_locality_spec(topology::TopologyKind kind, int hosts,
                                      std::uint64_t seed);

/// The paper's running example network (Fig. 3 / Table III benches): one
/// service flow between every ordered host pair, every 10th flow a
/// connectivity requirement, sliders left at zero.
model::ProblemSpec make_paper_example_spec();

struct TimedRun {
  smt::CheckResult status = smt::CheckResult::kUnknown;
  /// Synthesis time = model generation + constraint verification (the
  /// paper's definition; generation is separately available below).
  double seconds = 0;
  double encode_seconds = 0;
  std::size_t solver_memory_bytes = 0;
  std::optional<synth::SecurityDesign> design;
};

/// One full synthesis (fresh synthesizer) under explicit sliders.
TimedRun run_synthesis(const model::ProblemSpec& spec,
                       const model::Sliders& sliders);

/// Median synthesis time over `seeds` regenerated workloads (same size
/// parameters, different seeds); the status is the first run's. Tames the
/// per-seed variance of random networks in the timing figures.
double median_synthesis_seconds(int hosts, int routers, double cr_fraction,
                                std::uint64_t base_seed, int seeds,
                                const model::Sliders& sliders,
                                bool* all_decided = nullptr);

/// One result cell: the text every output shows, and whether it is a
/// number. A numeric cell is a JSON number in the bench's artifact, any
/// other cell a JSON string.
struct Cell {
  Cell(std::string text) : text(std::move(text)) {}
  Cell(const char* text) : text(text) {}
  template <std::integral T>
  Cell(T value) : text(std::to_string(value)), numeric(true) {}

  std::string text;
  bool numeric = false;
};

/// A number cell printed with `decimals` digits after the point.
Cell number(double value, int decimals);

using Row = std::vector<Cell>;

/// Prints `rows` as a table under `title` and writes `<name>.csv` into the
/// working directory. Given a `schema`, also writes `json_path` as that
/// schema's artifact: {"schema": ..., "runs": [...]} with one run object
/// per row, keyed by the header. Throws util::Error when a file cannot be
/// written.
void emit(const std::string& name, const std::string& title,
          const std::vector<std::string>& header, const std::vector<Row>& rows,
          const std::string& schema = "", const std::string& json_path = "");

/// Formats seconds with millisecond resolution.
std::string fmt_seconds(double s);

/// Renders a kMaxIsolation grid cell from the search's converged bound —
/// a property of the formula (identical on warm and cold sweeps), unlike
/// the witness design's achieved isolation, which depends on the model
/// the solver happened to return. "(>=)" marks a one-sided bound from a
/// capped probe; infeasible/timeout/skipped points are named as such.
std::string fmt_isolation_cell(const synth::SweepPointResult& point);

/// Renders a kFeasibility timing cell: wall seconds plus an "(unsat)"
/// marker when the point's verdict was negative.
std::string fmt_time_cell(const synth::SweepPointResult& point);

/// Prints a one-line effort summary of a sweep: wall clock, total encode
/// time, probe count and the backend's conflict/propagation/restart
/// totals. Cold-vs-warm benches print one line per mode, making the
/// encode and conflict savings of warm start directly comparable.
void print_sweep_effort(const char* label, const synth::SweepResult& sweep);

/// RAII `--trace-out <file>` handling for bench binaries: scans argv for
/// the flag, enables the tracer when present, and writes the Chrome
/// trace-event JSON on destruction (by which point every sweep pool has
/// drained). Without the flag it is inert, so every bench can hold one
/// unconditionally.
class TraceGuard {
 public:
  TraceGuard(int argc, char** argv);
  ~TraceGuard();

  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

 private:
  std::string path_;
};

}  // namespace cs::bench
