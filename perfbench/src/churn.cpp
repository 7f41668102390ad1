// churn: incremental re-synthesis under a seeded cs-delta-v1 stream.
//
// One Synthesizer with retractable sections over a ~100-host fat-tree
// locality spec takes one delta line per op through model::parse_delta
// and Synthesizer::apply_delta. No wire: this workload isolates the
// warm / retract / replay / full tiers, route transplant and the
// long-lived incremental solver.
//
// Gate: the stream is replayed through model::apply_delta and every
// step's post-delta spec is solved by a fresh Synthesizer; decided
// verdicts must agree, every SAT design must pass analysis::check_design,
// and replay/full designs must equal the fresh solve's (both tiers
// rebuild deterministically).
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include "analysis/checker.h"
#include "generator.h"
#include "model/delta.h"
#include "model/fingerprint.h"
#include "model/spec.h"
#include "synth/synthesizer.h"
#include "topology/routes.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cs;

constexpr int kHosts = 100;
/// Per-check MiniPB conflict cap: capped probes stay under a second.
constexpr std::int64_t kConflictCap = 2000;
/// Steps generated per second of timed phase (more than any run uses).
constexpr int kStepsPerSecond = 1200;
constexpr int kGateThreads = 3;

synth::SynthesisOptions churn_options(smt::BackendKind backend) {
  synth::SynthesisOptions o;
  o.backend = backend;
  o.check_conflict_limit =
      backend == smt::BackendKind::kZ3 ? 50'000'000 : kConflictCap;
  o.retractable_sections = true;
  return o;
}

std::shared_ptr<const model::ProblemSpec> build_spec(const ChurnFabric& f) {
  model::ProblemSpec spec;
  std::map<std::string, topology::NodeId> node;
  for (const std::string& h : f.hosts) node[h] = spec.network.add_host(h);
  for (const std::string& r : f.routers) node[r] = spec.network.add_router(r);
  for (const auto& [a, b] : f.links)
    spec.network.add_link(node.at(a), node.at(b));
  model::add_standard_services(spec.services);
  for (const ChurnFabric::Flow& fl : f.flows) {
    const model::FlowId id = spec.flows.add(model::Flow{
        node.at(fl.src), node.at(fl.dst), *spec.services.find(fl.service)});
    if (fl.cr) spec.connectivity.add(id);
  }
  spec.sliders = model::Sliders{util::Fixed::from_raw(f.iso),
                                util::Fixed::from_raw(f.usab),
                                util::Fixed::from_raw(f.budget)};
  spec.finalize();
  spec.validate();
  return std::make_shared<const model::ProblemSpec>(std::move(spec));
}

/// Fixed-size slots holding each step's SAT design (one byte per flow
/// pattern and per link placement), allocated and touched up front so
/// the run's memory does not grow with its throughput.
class DesignStore {
 public:
  DesignStore(std::size_t steps, std::size_t slot)
      : slot_(slot), buf_(steps * slot, 1) {}

  void put(std::size_t step, const synth::SecurityDesign& d) {
    std::uint8_t* p = &buf_[step * slot_];
    const std::size_t flows = d.flow_count(), links = d.link_count();
    if (4 + flows + links > slot_) throw std::length_error("design slot");
    p[0] = static_cast<std::uint8_t>(flows >> 8);
    p[1] = static_cast<std::uint8_t>(flows);
    p[2] = static_cast<std::uint8_t>(links >> 8);
    p[3] = static_cast<std::uint8_t>(links);
    for (std::size_t f = 0; f < flows; ++f) {
      const auto pat = d.pattern(static_cast<model::FlowId>(f));
      p[4 + f] =
          pat ? static_cast<std::uint8_t>(static_cast<int>(*pat) + 1) : 0;
    }
    for (std::size_t l = 0; l < links; ++l) {
      std::uint8_t mask = 0;
      for (std::size_t k = 0; k < model::kAllDevices.size(); ++k)
        if (d.placed(static_cast<topology::LinkId>(l), model::kAllDevices[k]))
          mask = static_cast<std::uint8_t>(mask | (1u << k));
      p[4 + flows + l] = mask;
    }
  }

  std::size_t slot() const { return slot_; }

  synth::SecurityDesign get(std::size_t step) const {
    const std::uint8_t* p = &buf_[step * slot_];
    const std::size_t flows = (std::size_t{p[0]} << 8) | p[1];
    const std::size_t links = (std::size_t{p[2]} << 8) | p[3];
    synth::SecurityDesign d(flows, links);
    for (std::size_t f = 0; f < flows; ++f)
      if (p[4 + f] != 0)
        d.set_pattern(static_cast<model::FlowId>(f),
                      static_cast<model::IsolationPattern>(p[4 + f] - 1));
    for (std::size_t l = 0; l < links; ++l)
      for (std::size_t k = 0; k < model::kAllDevices.size(); ++k)
        if (p[4 + flows + l] & (1u << k))
          d.set_placed(static_cast<topology::LinkId>(l), model::kAllDevices[k],
                       true);
    return d;
  }

 private:
  std::size_t slot_;
  std::vector<std::uint8_t> buf_;
};

/// What the timed phase keeps per step.
struct StepRecord {
  smt::CheckResult status = smt::CheckResult::kUnknown;
  std::uint8_t tier = 0;  // index into kTiers
  bool capped_fallback = false;
  bool has_design = false;
  double latency_ms = 0;
  // Traced runs only.
  double encode_ms = 0, solve_ms = 0;
  std::int64_t clauses = 0, linear = 0;
  smt::SolverStats solver;
  double memory_mb = 0;
};

constexpr const char* kTiers[] = {"warm", "retract", "replay", "full", "?"};

std::uint8_t tier_index(const std::string& path) {
  for (std::uint8_t i = 0; i < 4; ++i)
    if (path == kTiers[i]) return i;
  return 4;
}

struct Setup {
  ChurnStream stream;
  std::shared_ptr<const model::ProblemSpec> base;
  std::unique_ptr<synth::Synthesizer> inc;
  std::unique_ptr<DesignStore> designs;
};

std::unique_ptr<Setup> set_up(const RunOptions& opt) {
  auto s = std::make_unique<Setup>();
  const int steps = static_cast<int>(opt.seconds * kStepsPerSecond) + 200;
  s->stream = make_churn(opt.seed, kHosts, steps);
  s->base = build_spec(s->stream.fabric);
  s->inc = std::make_unique<synth::Synthesizer>(
      s->base, churn_options(smt::BackendKind::kMiniPb));
  s->inc->synthesize();  // the pre-churn solve every delta is warm against
  const std::size_t slot =
      4 + s->base->flows.size() + 16 + s->base->network.links().size() + 16;
  s->designs = std::make_unique<DesignStore>(s->stream.deltas.size(), slot);
  return s;
}

struct PhaseResult {
  Phase phase;
  std::vector<StepRecord> steps;
  std::unique_ptr<DesignStore> designs;
};

PhaseResult timed_phase(Setup& s, double seconds, SpanLog* log) {
  PhaseResult out;
  out.steps.resize(s.stream.deltas.size());  // touched up front, like designs
  synth::Synthesizer& inc = *s.inc;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  WindowSampler sampler(t0);
  std::vector<double> done(s.stream.deltas.size());
  std::size_t n = 0;
  for (; n < s.stream.deltas.size() && now_s() < deadline; ++n) {
    StepRecord& rec = out.steps[n];
    const smt::SolverStats before =
        log ? inc.solver_statistics() : smt::SolverStats{};
    const double start = now_s();
    synth::DeltaApplyReport report;
    {
      SpanLog::Scope span(log, n, "synth.apply_delta");
      report = inc.apply_delta(model::parse_delta(s.stream.deltas[n]));
    }
    const double end = now_s();
    rec.latency_ms = (end - start) * 1000.0;
    done[n] = end - t0;
    rec.status = report.result.status;
    rec.tier = tier_index(report.path);
    rec.capped_fallback = report.fallback_reason == "capped-probe";
    if (report.result.design) {
      rec.has_design = true;
      s.designs->put(n, *report.result.design);
    }
    if (log != nullptr) {
      const smt::SolverStats after = inc.solver_statistics();
      // A rebuilt backend restarts its counters from zero.
      rec.solver = after.conflicts < before.conflicts ||
                           after.propagations < before.propagations
                       ? after
                       : after - before;
      rec.encode_ms = report.result.encode_seconds * 1000.0;
      rec.solve_ms = report.result.solve_seconds * 1000.0;
      rec.clauses = static_cast<std::int64_t>(report.result.encoding.clauses);
      rec.linear =
          static_cast<std::int64_t>(report.result.encoding.linear_constraints);
      rec.memory_mb = static_cast<double>(inc.backend().memory_bytes()) /
                      (1024.0 * 1024.0);
    }
  }
  out.phase.window_cpu_s = sampler.finish();
  out.phase.wall_s = now_s() - t0;
  out.phase.cpu_s = process_cpu_s() - cpu0;
  done.resize(n);
  out.phase.done_s = std::move(done);
  out.steps.resize(n);
  out.designs = std::move(s.designs);
  Phase& p = out.phase;
  p.attempted = p.completed = static_cast<std::int64_t>(n);
  for (const StepRecord& r : out.steps) {
    p.latency_ms.push_back(r.latency_ms);
    if (r.status != smt::CheckResult::kUnknown) ++p.decided;
  }
  return out;
}

/// Bounded hand-off from the replaying thread to the gate workers.
struct Job {
  std::size_t step = 0;
  std::shared_ptr<const model::ProblemSpec> spec;
};

class JobQueue {
 public:
  void push(Job j) {
    std::unique_lock<std::mutex> lock(m_);
    not_full_.wait(lock, [&] { return q_.size() < 8; });
    q_.push_back(std::move(j));
    not_empty_.notify_one();
  }
  void close() {
    std::lock_guard<std::mutex> lock(m_);
    closed_ = true;
    not_empty_.notify_all();
  }
  std::optional<Job> pop() {
    std::unique_lock<std::mutex> lock(m_);
    not_empty_.wait(lock, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return std::nullopt;
    Job j = std::move(q_.front());
    q_.pop_front();
    not_full_.notify_one();
    return j;
  }

 private:
  std::mutex m_;
  std::condition_variable not_empty_, not_full_;
  std::deque<Job> q_;
  bool closed_ = false;
};

struct GateResult {
  std::int64_t failed = 0;
  std::int64_t compared = 0, capped = 0, designs_checked = 0,
               designs_compared = 0;
  std::vector<std::string> problems;
};

/// Replays the stream through model::apply_delta and checks every
/// recorded step of every phase against a fresh Synthesizer.
/// Checks one recorded step against the fresh solve `ref` of its
/// post-delta spec; returns the problem, empty when the step holds.
std::string check_step(const model::ProblemSpec& post,
                       const synth::SynthesisResult& ref, const PhaseResult& p,
                       std::size_t step, GateResult& counts, SpanLog* log) {
  const StepRecord& rec = p.steps[step];
  if (rec.status == smt::CheckResult::kUnknown ||
      ref.status == smt::CheckResult::kUnknown) {
    ++counts.capped;
    return "";
  }
  ++counts.compared;
  if (rec.status != ref.status)
    return "incremental verdict differs from a fresh solve";
  if (!rec.has_design) return "";
  const synth::SecurityDesign design = p.designs->get(step);
  analysis::CheckReport check;
  {
    SpanLog::Scope span(log, step, "analysis.check_design");
    check = analysis::check_design(post, design);
  }
  ++counts.designs_checked;
  if (!check.ok()) {
    // Whether the fresh solve's design fails too tells a defect of the
    // incremental path from one in encoding or checking.
    const bool fresh_ok =
        ref.design && analysis::check_design(post, *ref.design).ok();
    return std::string("design fails check_design (") + kTiers[rec.tier] +
           " tier; the fresh design " + (fresh_ok ? "passes" : "fails too") +
           "): " + check.to_string().substr(0, 160);
  }
  const std::string_view tier = kTiers[rec.tier];
  if ((tier == "replay" || tier == "full") && !rec.capped_fallback &&
      ref.design) {
    ++counts.designs_compared;
    // Compare through the store's encoding, which keeps exactly the flow
    // patterns and link placements.
    DesignStore one(1, p.designs->slot());
    one.put(0, *ref.design);
    if (!(design == one.get(0)))
      return "rebuilt design differs from a fresh solve's";
  }
  return "";
}

GateResult gate(const Setup& s, const std::vector<const PhaseResult*>& phases,
                SpanLog* replay_log, std::vector<SpanLog>* worker_logs) {
  std::size_t steps = 0;
  for (const PhaseResult* p : phases) steps = std::max(steps, p->steps.size());
  GateResult out;
  std::mutex mutex;  // guards out and kinds
  std::map<std::string, int> kinds;  // failures by kind, to sample messages
  JobQueue queue;
  std::vector<std::thread> workers;
  for (int w = 0; w < kGateThreads; ++w) {
    workers.emplace_back([&, w] {
      SpanLog* log = worker_logs ? &(*worker_logs)[static_cast<std::size_t>(w)]
                                 : nullptr;
      while (std::optional<Job> job = queue.pop()) {
        GateResult counts;
        std::vector<std::string> problems;
        try {
          const model::ProblemSpec& post = *job->spec;
          synth::Synthesizer cold(post,
                                  churn_options(smt::BackendKind::kMiniPb));
          const synth::SynthesisResult ref = cold.synthesize();
          for (const PhaseResult* p : phases)
            if (job->step < p->steps.size())
              problems.push_back(
                  check_step(post, ref, *p, job->step, counts, log));
        } catch (const std::exception& e) {
          problems.push_back(std::string("fresh solve failed: ") + e.what());
        }
        std::lock_guard<std::mutex> lock(mutex);
        out.capped += counts.capped;
        out.compared += counts.compared;
        out.designs_checked += counts.designs_checked;
        out.designs_compared += counts.designs_compared;
        for (const std::string& why : problems) {
          if (why.empty()) continue;
          ++out.failed;
          if (++kinds[why.substr(0, 24)] <= 2)
            out.problems.push_back("step " + std::to_string(job->step) + " (" +
                                   s.stream.deltas[job->step] + "): " + why);
        }
      }
    });
  }
  std::exception_ptr error;
  try {
    auto spec = s.base;
    for (std::size_t step = 0; step < steps; ++step) {
      const model::SpecDelta delta = model::parse_delta(s.stream.deltas[step]);
      {
        SpanLog::Scope span(replay_log, step, "model.apply_delta");
        spec = std::make_shared<const model::ProblemSpec>(
            model::apply_delta(*spec, delta));
      }
      if (replay_log != nullptr) {
        SpanLog::Scope span(replay_log, step, "model.fingerprint");
        (void)model::fingerprint_sections(*spec);
      }
      queue.push(Job{step, spec});
    }
  } catch (...) {
    error = std::current_exception();
  }
  queue.close();
  for (std::thread& t : workers) t.join();
  if (error) std::rethrow_exception(error);
  return out;
}

/// Cross-checks a fixed sample of decided steps against Z3.
std::int64_t z3_sample(const Setup& s, const PhaseResult& p, Report& report) {
  const std::size_t n = p.steps.size();
  if (n == 0) return 0;
  std::vector<std::size_t> sample{0, n / 2, n - 1};
  auto spec = s.base;
  std::int64_t failed = 0, compared = 0;
  std::size_t next = 0;
  for (std::size_t step = 0; step < n && next < sample.size(); ++step) {
    spec = std::make_shared<const model::ProblemSpec>(
        model::apply_delta(*spec, model::parse_delta(s.stream.deltas[step])));
    if (step != sample[next]) continue;
    ++next;
    const StepRecord& rec = p.steps[step];
    if (rec.status == smt::CheckResult::kUnknown) continue;
    synth::SynthesisOptions o = churn_options(smt::BackendKind::kZ3);
    o.check_time_limit_ms = 20000;
    const smt::CheckResult z3 =
        synth::Synthesizer(*spec, o).synthesize().status;
    if (z3 == smt::CheckResult::kUnknown) continue;
    ++compared;
    if (z3 != rec.status) ++failed;
  }
  report.note("z3 cross-check: " + std::to_string(compared) +
              " decided steps compared, " + std::to_string(failed) +
              " disagree");
  return failed;
}

void property_report(const Setup& s, std::size_t used, Report& report) {
  const ChurnStream& st = s.stream;
  std::map<std::string, int> used_ops;
  std::array<int, kChurnClasses> used_classes{};
  for (std::size_t i = 0; i < used; ++i) {
    ++used_classes[static_cast<std::size_t>(st.classes[i])];
    ++used_ops[st.deltas[i].substr(0, st.deltas[i].find(','))];
  }
  std::string shares = "op class shares (declared / run):";
  for (int c = 0; c < kChurnClasses; ++c) {
    const std::string name(churn_class_name(static_cast<ChurnClass>(c)));
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s %.0f%% / %.1f%%", name.c_str(),
                  100.0 * kChurnMix[static_cast<std::size_t>(c)] / kChurnBlock,
                  used ? 100.0 * used_classes[static_cast<std::size_t>(c)] /
                             static_cast<double>(used)
                       : 0.0);
    shares += buf;
  }
  report.note(shares);
  std::string ops = "delta ops in run:";
  for (const auto& [name, count] : used_ops)
    ops += " " + name + "=" + std::to_string(count);
  report.note(ops);
  report.note("fabric: fat-tree k=" + std::to_string(st.fabric.k) + ", " +
              std::to_string(st.fabric.hosts.size()) + " hosts, " +
              std::to_string(st.fabric.routers.size()) + " switches, " +
              std::to_string(st.fabric.flows.size()) + " flows; " +
              std::to_string(used) + " of " +
              std::to_string(st.deltas.size()) + " generated steps used");
}

double mean_of(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// The per-layer metrics of a traced churn run. Layers the workload does
/// not exercise (wire, service, Table IV parsing) report 0.
void per_layer(const PhaseResult& traced, double untraced_ops,
               double route_pairs,
               const std::map<std::string, SpanStats>& spans, Report& report) {
  const auto span_mean = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_us();
  };
  for (const char* name :
       {"net.overhead_ms_p50", "net.parse_line_us", "net.render_response_us",
        "net.request_bytes", "model.parse_input_us"})
    report.add(name, 0, std::string(name).ends_with("bytes") ? "B"
                        : std::string(name).ends_with("_us") ? "us" : "ms");
  report.add("model.fingerprint_us", span_mean("model.fingerprint"), "us");
  report.add("model.apply_delta_us", span_mean("model.apply_delta"), "us");
  for (const char* name : {"service.cache_hit_pct", "service.coalesced_pct",
                           "service.partial_hit_pct", "service.warm_hit_pct"})
    report.add(name, 0, "%");
  report.add("service.warm_evictions", 0, "count");
  report.add("service.queue_ms_mean", 0, "ms");
  report.add("service.solve_ms_mean", 0, "ms");
  report.add("service.retries", 0, "count");
  report.add("service.rejected", 0, "count");

  const auto routes = spans.find("topology.routes");
  report.add("topology.routes_ms",
             routes == spans.end() ? 0 : routes->second.mean_us() / 1000.0,
             "ms");
  report.add("topology.route_pairs", route_pairs, "count");

  std::array<std::vector<double>, 4> by_tier;
  std::vector<double> encode, clauses, linear, solve, memory;
  double conflicts = 0, decisions = 0, propagations = 0, solve_s = 0;
  std::int64_t checks = 0, capped = 0, fallbacks = 0, fast = 0;
  for (const StepRecord& r : traced.steps) {
    if (r.tier < 4) by_tier[r.tier].push_back(r.latency_ms);
    if (r.tier <= 1 && !r.capped_fallback) ++fast;
    if (r.encode_ms > 0) {
      encode.push_back(r.encode_ms);
      clauses.push_back(static_cast<double>(r.clauses));
      linear.push_back(static_cast<double>(r.linear));
    }
    solve.push_back(r.solve_ms);
    memory.push_back(r.memory_mb);
    conflicts += static_cast<double>(r.solver.conflicts);
    decisions += static_cast<double>(r.solver.decisions);
    propagations += static_cast<double>(r.solver.propagations);
    solve_s += r.solve_ms / 1000.0;
    checks += 1 + (r.capped_fallback ? 1 : 0);
    capped += (r.capped_fallback ? 1 : 0) +
              (r.status == smt::CheckResult::kUnknown ? 1 : 0);
    fallbacks += r.capped_fallback ? 1 : 0;
  }
  const double n =
      std::max<double>(1, static_cast<double>(traced.steps.size()));
  report.add("synth.encode_ms", mean_of(encode), "ms",
             static_cast<std::int64_t>(encode.size()));
  report.add("synth.clauses", mean_of(clauses), "count");
  report.add("synth.linear_constraints", mean_of(linear), "count");
  report.add("synth.probes_per_op", static_cast<double>(checks) / n, "count");
  for (std::size_t t = 0; t < by_tier.size(); ++t)
    report.add(std::string("synth.delta_") + kTiers[t] + "_ms",
               median(by_tier[t]), "ms",
               static_cast<std::int64_t>(by_tier[t].size()));
  report.add("synth.fast_tier_pct", 100.0 * static_cast<double>(fast) / n,
             "%");
  report.add("synth.capped_fallbacks", static_cast<double>(fallbacks),
             "count");

  report.add("minisolver.check_ms", mean_of(solve), "ms",
             static_cast<std::int64_t>(solve.size()));
  report.add("minisolver.conflicts_per_op", conflicts / n, "count");
  report.add("minisolver.decisions_per_op", decisions / n, "count");
  report.add("minisolver.propagations_per_s",
             solve_s > 0 ? propagations / solve_s : 0, "1/s");
  report.add("minisolver.capped_pct",
             checks ? 100.0 * static_cast<double>(capped) /
                          static_cast<double>(checks)
                    : 0,
             "%");
  report.add("minisolver.memory_mb", mean_of(memory), "MiB");
  report.add("analysis.check_design_ms",
             span_mean("analysis.check_design") / 1000.0, "ms");
  report.add("trace.overhead_pct",
             untraced_ops > 0
                 ? 100.0 * (untraced_ops - traced.phase.ops_per_s()) /
                       untraced_ops
                 : 0,
             "%");
}

/// Route enumeration of full-tier steps' post-delta specs (traced runs):
/// the stage the full tier pays and the other tiers skip or transplant.
/// Returns the mean number of host pairs enumerated per step.
double trace_routes(const Setup& s, const PhaseResult& traced, SpanLog& log) {
  auto spec = s.base;
  std::vector<double> pairs;
  for (std::size_t step = 0; step < traced.steps.size(); ++step) {
    spec = std::make_shared<const model::ProblemSpec>(
        model::apply_delta(*spec, model::parse_delta(s.stream.deltas[step])));
    if (std::string_view(kTiers[traced.steps[step].tier]) != "full") continue;
    topology::RouteTable table(spec->network, spec->route_options);
    SpanLog::Scope span(&log, step, "topology.routes");
    for (const model::Flow& f : spec->flows.all()) table.routes(f.src, f.dst);
    span.close();
    pairs.push_back(static_cast<double>(table.pairs_computed()));
  }
  return mean_of(pairs);
}

}  // namespace

Outcome run_churn(const RunOptions& opt, Report& report) {
  std::vector<double> setup_times;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const double t0 = now_s();
    s = set_up(opt);
    setup_times.push_back(now_s() - t0);
  }

  Outcome outcome;
  if (!opt.trace) {
    restart_peak_rss();
    PhaseResult timed = timed_phase(*s, opt.seconds, nullptr);
    const double rss = peak_rss_mb();
    property_report(*s, timed.steps.size(), report);
    const GateResult g = gate(*s, {&timed}, nullptr, nullptr);
    report.note("gate: " + std::to_string(g.compared) +
                " verdicts compared with fresh solves, " +
                std::to_string(g.capped) + " capped (exempt), " +
                std::to_string(g.designs_checked) + " designs checked, " +
                std::to_string(g.designs_compared) +
                " rebuilt designs compared");
    for (const std::string& p : g.problems) report.note("FAILED " + p);
    report.add_end_to_end(timed.phase, median(setup_times), rss);
    outcome.attempted = timed.phase.attempted;
    outcome.failed = timed.phase.failed + g.failed;
    return outcome;
  }

  // Traced run: an untraced phase for the overhead baseline, then the
  // traced phase on a fresh set-up of the same inputs; each gets half
  // of the run's time.
  const double half = opt.seconds / 2;
  PhaseResult untraced = timed_phase(*s, half, nullptr);
  s.reset();
  s = set_up(opt);
  SpanLog step_log;
  PhaseResult traced = timed_phase(*s, half, &step_log);
  property_report(*s, traced.steps.size(), report);
  SpanLog replay_log;
  std::vector<SpanLog> gate_logs(kGateThreads);
  const GateResult g = gate(*s, {&untraced, &traced}, &replay_log, &gate_logs);
  for (const std::string& p : g.problems) report.note("FAILED " + p);
  SpanLog route_log;
  const double route_pairs = trace_routes(*s, traced, route_log);
  const std::int64_t z3_failed = z3_sample(*s, traced, report);

  std::vector<const SpanLog*> logs{&step_log, &replay_log, &route_log};
  for (const SpanLog& l : gate_logs) logs.push_back(&l);
  per_layer(traced, untraced.phase.ops_per_s(), route_pairs,
            aggregate_spans(logs), report);
  if (!opt.trace_dir.empty())
    write_spans(opt.trace_dir + "/churn-" + std::to_string(opt.seed) + ".json",
                logs);
  outcome.attempted = untraced.phase.attempted + traced.phase.attempted;
  outcome.failed = g.failed + z3_failed;
  return outcome;
}

}  // namespace perfbench
