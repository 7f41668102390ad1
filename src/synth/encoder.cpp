#include "synth/encoder.h"

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>

#include "obs/trace.h"
#include "util/error.h"
#include "util/fixed.h"

namespace cs::synth {

namespace {

/// Rounded division for non-negative operands.
std::int64_t round_div(std::int64_t num, std::int64_t den) {
  CS_ENSURE(den > 0 && num >= 0, "round_div domain");
  return (num + den / 2) / den;
}

}  // namespace

std::uint64_t Encoding::pair_key(topology::NodeId a, topology::NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

template <typename... Parts>
smt::BoolVar Encoding::named_bool(const Parts&... parts) {
  std::string name;
  if (backend_.keeps_names()) {
    const auto append = [&name](const auto& part) {
      if constexpr (std::is_arithmetic_v<std::decay_t<decltype(part)>>)
        name += std::to_string(part);
      else
        name += part;
    };
    (append(parts), ...);
  }
  return backend_.new_bool(name);
}

Encoding::Encoding(const model::ProblemSpec& spec,
                   topology::RouteTable& routes, smt::Backend& backend,
                   bool retractable_sections)
    : spec_(&spec),
      routes_(routes),
      backend_(backend),
      retractable_(retractable_sections) {
  // One span per constraint family, so a trace shows where encode time
  // goes as the topology/CR parameters scale (the paper's Fig. 4 axis).
  const auto phase = [](const char* name, auto&& body) {
    obs::Span span("encode", name);
    body();
  };
  phase("encode/validate", [&] { this->spec().validate(); });
  phase("encode/flow-vars", [&] { create_flow_vars(); });
  phase("encode/pair-link-vars", [&] { create_pair_and_link_vars(); });
  phase("encode/host-pattern-vars", [&] { create_host_pattern_vars(); });
  phase("encode/app-pattern-vars", [&] { create_app_pattern_vars(); });
  phase("encode/pattern-constraints", [&] { add_pattern_constraints(); });
  phase("encode/score-ladders", [&] { create_score_ladders(); });
  phase("encode/placement-constraints",
        [&] { add_placement_constraints(); });
  if (retractable_)
    section_guard_ = smt::pos(named_bool("section-guard-0"));
  phase("encode/user-constraints", [&] { add_user_constraints(); });
  phase("encode/host-requirements", [&] { add_host_requirements(); });
  phase("encode/metric-terms", [&] { build_metric_terms(); });
}

void Encoding::rebind_spec(const model::ProblemSpec& spec) {
  CS_REQUIRE(spec.flows.size() == this->spec().flows.size() &&
                 spec.network.node_count() ==
                     this->spec().network.node_count() &&
                 spec.network.link_count() ==
                     this->spec().network.link_count() &&
                 spec.services.size() == this->spec().services.size(),
             "rebind_spec: encoding shape differs");
  spec_ = &spec;
}

std::vector<smt::Lit> Encoding::section_assumptions() const {
  if (!retractable_) return {};
  return {section_guard_};
}

void Encoding::reemit_policy_sections() {
  CS_REQUIRE(retractable_,
             "reemit_policy_sections requires retractable sections");
  // Retire the old round: with ¬guard asserted, every clause of the old
  // sections is satisfied and every guarded linear constraint disabled;
  // learnt clauses stay implied because they were derived with the guard
  // as an assumption, never as a fact.
  backend_.add_clause({!section_guard_});
  section_guard_ = smt::pos(named_bool("section-guard-", ++section_round_));
  obs::Span span("encode", "encode/reemit-policy-sections");
  add_user_constraints();
  add_host_requirements();
}

void Encoding::counted_clause(std::span<const smt::Lit> lits) {
  backend_.add_clause(lits);
  ++stats_.clauses;
}

void Encoding::counted_unit(smt::Lit l) { counted_clause({l}); }

void Encoding::section_clause(std::initializer_list<smt::Lit> lits) {
  if (!retractable_) {
    counted_clause(lits);
    return;
  }
  section_buf_.assign(1, !section_guard_);
  section_buf_.insert(section_buf_.end(), lits.begin(), lits.end());
  counted_clause(section_buf_);
}

void Encoding::section_linear_ge(const std::vector<smt::Term>& terms,
                                 std::int64_t bound) {
  if (retractable_) {
    backend_.add_guarded_linear_ge(section_guard_, terms, bound);
  } else {
    backend_.add_linear_ge(terms, bound);
  }
  ++stats_.linear_constraints;
}

void Encoding::create_flow_vars() {
  const std::size_t n = spec().flows.size();
  y_.assign(n, {});
  for (auto& row : y_) row.fill(smt::kNoVar);
  for (std::size_t f = 0; f < n; ++f) {
    for (const model::IsolationPattern k : spec().isolation.enabled()) {
      y_[f][static_cast<std::size_t>(model::pattern_index(k))] =
          named_bool("y_f", f, "_k", model::paper_id(k));
      ++stats_.flow_vars;
    }
  }
}

void Encoding::create_pair_and_link_vars() {
  // Which device types any enabled pattern can demand.
  device_used_.fill(false);
  for (const model::IsolationPattern k : spec().isolation.enabled())
    for (const model::DeviceType d : model::devices_for(k))
      device_used_[static_cast<std::size_t>(model::device_index(d))] = true;

  // x vars per unordered host pair that carries flows (placement is
  // direction-agnostic: the reverse of a route uses the same links).
  for (const model::Flow& f : spec().flows.all()) {
    const std::uint64_t key = pair_key(f.src, f.dst);
    if (x_.contains(key)) continue;
    DeviceArray arr;
    arr.fill(smt::kNoVar);
    for (const model::DeviceType d : model::kAllDevices) {
      const auto di = static_cast<std::size_t>(model::device_index(d));
      if (!device_used_[di]) continue;
      arr[di] = named_bool("x_p", key, "_d", model::paper_id(d));
      ++stats_.pair_device_vars;
    }
    x_.emplace(key, arr);
  }

  // l vars per link and used device type.
  l_.assign(spec().network.link_count(), DeviceArray{});
  for (auto& arr : l_) arr.fill(smt::kNoVar);
  for (std::size_t e = 0; e < spec().network.link_count(); ++e) {
    for (const model::DeviceType d : model::kAllDevices) {
      const auto di = static_cast<std::size_t>(model::device_index(d));
      if (!device_used_[di]) continue;
      l_[e][di] = named_bool("l_e", e, "_d", model::paper_id(d));
      ++stats_.placement_vars;
    }
  }
}

void Encoding::create_host_pattern_vars() {
  if (!spec().host_patterns.any()) return;
  const auto& hcfg = spec().host_patterns;

  hp_.assign(spec().network.node_count(), {});
  for (auto& row : hp_) row.fill(smt::kNoVar);
  std::array<smt::Lit, model::kHostPatternCount> at_most;
  for (const topology::NodeId j : spec().network.hosts()) {
    std::size_t n = 0;
    for (const model::HostPattern t : hcfg.enabled()) {
      const auto ti = static_cast<std::size_t>(model::host_pattern_index(t));
      hp_[static_cast<std::size_t>(j)][ti] =
          named_bool("hp_n", j, "_t", model::host_pattern_index(t));
      ++stats_.host_pattern_vars;
      at_most[n++] = smt::pos(hp_[static_cast<std::size_t>(j)][ti]);
    }
    backend_.add_at_most_one(std::span<const smt::Lit>(at_most.data(), n));
    stats_.clauses += n * (n - 1) / 2;
  }

  // z[f][t] ≡ hp[dst(f)][t] ∧ (no network pattern on f).
  z_.assign(spec().flows.size(), {});
  for (auto& row : z_) row.fill(smt::kNoVar);
  std::vector<smt::Lit> back;  // reused across flows and patterns
  for (std::size_t f = 0; f < spec().flows.size(); ++f) {
    const model::Flow& flow =
        spec().flows.flow(static_cast<model::FlowId>(f));
    for (const model::HostPattern t : hcfg.enabled()) {
      const auto ti = static_cast<std::size_t>(model::host_pattern_index(t));
      const smt::BoolVar z =
          named_bool("z_f", f, "_t", model::host_pattern_index(t));
      ++stats_.host_pattern_vars;
      z_[f][ti] = z;
      const smt::BoolVar hp =
          hp_[static_cast<std::size_t>(flow.dst)][ti];
      counted_clause({smt::neg(z), smt::pos(hp)});
      back.assign({smt::pos(z), smt::neg(hp)});
      for (const model::IsolationPattern k : spec().isolation.enabled()) {
        const smt::BoolVar y =
            y_[f][static_cast<std::size_t>(model::pattern_index(k))];
        counted_clause({smt::neg(z), smt::neg(y)});
        back.push_back(smt::pos(y));
      }
      counted_clause(back);
    }
  }
}

void Encoding::add_pattern_constraints() {
  const auto& enabled = spec().isolation.enabled();
  std::array<smt::Lit, model::kPatternCount> ys;
  for (std::size_t f = 0; f < spec().flows.size(); ++f) {
    // IIC1: at most one isolation pattern per flow.
    std::size_t n = 0;
    for (const model::IsolationPattern k : enabled)
      ys[n++] = smt::pos(
          y_[f][static_cast<std::size_t>(model::pattern_index(k))]);
    backend_.add_at_most_one(std::span<const smt::Lit>(ys.data(), n));
    stats_.clauses += n * (n - 1) / 2;

    // eq. 1: pattern selection requires its devices between the pair.
    const model::Flow& flow =
        spec().flows.flow(static_cast<model::FlowId>(f));
    const DeviceArray& xs = x_.at(pair_key(flow.src, flow.dst));
    for (const model::IsolationPattern k : enabled) {
      const smt::BoolVar y =
          y_[f][static_cast<std::size_t>(model::pattern_index(k))];
      for (const model::DeviceType d : model::devices_for(k)) {
        const smt::BoolVar x =
            xs[static_cast<std::size_t>(model::device_index(d))];
        CS_ENSURE(x != smt::kNoVar, "missing pair-device variable");
        counted_clause({smt::neg(y), smt::pos(x)});
      }
    }

    // CR + IIC2: a connectivity-required flow cannot be denied.
    if (spec().connectivity.required(static_cast<model::FlowId>(f)) &&
        spec().isolation.is_enabled(model::IsolationPattern::kAccessDeny)) {
      counted_unit(smt::neg(
          y_[f][static_cast<std::size_t>(model::pattern_index(
              model::IsolationPattern::kAccessDeny))]));
    }
  }
}

void Encoding::create_app_pattern_vars() {
  if (!spec().app_patterns.any()) return;
  const auto& acfg = spec().app_patterns;

  // Endpoint variables for (destination, service) pairs that carry flows,
  // restricted to applicable patterns; at most one pattern per endpoint.
  std::array<smt::Lit, model::kAppPatternCount> at_most;
  for (const model::Flow& flow : spec().flows.all()) {
    const std::pair<topology::NodeId, model::ServiceId> key{flow.dst,
                                                            flow.service};
    if (ap_.contains(key)) continue;
    std::array<smt::BoolVar, model::kAppPatternCount> arr;
    arr.fill(smt::kNoVar);
    std::size_t n = 0;
    for (const model::AppPattern t : acfg.enabled()) {
      if (!acfg.applicable(t, flow.service)) continue;
      const auto ti = static_cast<std::size_t>(model::app_pattern_index(t));
      arr[ti] = named_bool("ap_n", flow.dst, "_g", flow.service, "_t", ti);
      ++stats_.app_pattern_vars;
      at_most[n++] = smt::pos(arr[ti]);
    }
    if (n > 1) {
      backend_.add_at_most_one(std::span<const smt::Lit>(at_most.data(), n));
      stats_.clauses += n * (n - 1) / 2;
    }
    ap_.emplace(key, arr);
  }

  // w[f][t] ⇔ ap[endpoint][t] ∧ no network pattern ∧ no host coverage.
  w_.assign(spec().flows.size(), {});
  for (auto& row : w_) row.fill(smt::kNoVar);
  std::vector<smt::Lit> back;  // reused across flows and patterns
  for (std::size_t f = 0; f < spec().flows.size(); ++f) {
    const model::Flow& flow =
        spec().flows.flow(static_cast<model::FlowId>(f));
    const auto& arr = ap_.at({flow.dst, flow.service});
    for (const model::AppPattern t : acfg.enabled()) {
      const auto ti = static_cast<std::size_t>(model::app_pattern_index(t));
      if (arr[ti] == smt::kNoVar) continue;
      const smt::BoolVar w = named_bool("w_f", f, "_t", ti);
      ++stats_.app_pattern_vars;
      w_[f][ti] = w;
      counted_clause({smt::neg(w), smt::pos(arr[ti])});
      back.assign({smt::pos(w), smt::neg(arr[ti])});
      for (const model::IsolationPattern k : spec().isolation.enabled()) {
        const smt::BoolVar y =
            y_[f][static_cast<std::size_t>(model::pattern_index(k))];
        counted_clause({smt::neg(w), smt::neg(y)});
        back.push_back(smt::pos(y));
      }
      if (spec().host_patterns.any()) {
        for (const model::HostPattern ht : spec().host_patterns.enabled()) {
          const smt::BoolVar z =
              z_[f][static_cast<std::size_t>(model::host_pattern_index(ht))];
          counted_clause({smt::neg(w), smt::neg(z)});
          back.push_back(smt::pos(z));
        }
      }
      counted_clause(back);
    }
  }
}

void Encoding::create_score_ladders() {
  // Collect the candidate (score, selector) protections of each flow and
  // emit the order encoding described in encoder.h.
  ladder_.assign(spec().flows.size(), {});
  // Reused across flows.
  std::vector<std::pair<std::int64_t, smt::BoolVar>> candidates;
  std::vector<std::int64_t> levels;
  std::vector<smt::Lit> support;
  for (std::size_t f = 0; f < spec().flows.size(); ++f) {
    // Candidate selectors with their scores (y patterns, z host patterns).
    candidates.clear();
    for (const model::IsolationPattern k : spec().isolation.enabled()) {
      candidates.emplace_back(
          spec().isolation.score(k).raw(),
          y_[f][static_cast<std::size_t>(model::pattern_index(k))]);
    }
    if (spec().host_patterns.any()) {
      for (const model::HostPattern t : spec().host_patterns.enabled()) {
        candidates.emplace_back(
            spec().host_patterns.score(t).raw(),
            z_[f][static_cast<std::size_t>(model::host_pattern_index(t))]);
      }
    }
    if (spec().app_patterns.any()) {
      for (const model::AppPattern t : spec().app_patterns.enabled()) {
        const smt::BoolVar w =
            w_[f][static_cast<std::size_t>(model::app_pattern_index(t))];
        if (w != smt::kNoVar)
          candidates.emplace_back(spec().app_patterns.score(t).raw(), w);
      }
    }

    // Ascending distinct positive levels.
    levels.clear();
    for (const auto& [score, var] : candidates)
      if (score > 0) levels.push_back(score);
    std::sort(levels.begin(), levels.end());
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());

    std::vector<LadderStep>& steps = ladder_[f];
    steps.reserve(levels.size());
    for (const std::int64_t level : levels) {
      const smt::BoolVar u = named_bool("u_f", f, "_l", level);
      steps.push_back(LadderStep{level, u});
    }
    for (std::size_t j = 0; j + 1 < steps.size(); ++j)
      counted_clause({smt::neg(steps[j + 1].var), smt::pos(steps[j].var)});

    for (std::size_t j = 0; j < steps.size(); ++j) {
      // Support: u_j holds only if some protection of level >= ℓj is on.
      support.assign(1, smt::neg(steps[j].var));
      for (const auto& [score, var] : candidates) {
        if (score >= steps[j].level_raw)
          support.push_back(smt::pos(var));
        else
          // A weaker protection caps the ladder below ℓj.
          counted_clause({smt::neg(var), smt::neg(steps[j].var)});
      }
      counted_clause(support);
    }
    // Selecting a protection raises the ladder to its own level.
    for (const auto& [score, var] : candidates) {
      for (std::size_t j = 0; j < steps.size(); ++j) {
        if (steps[j].level_raw <= score)
          counted_clause({smt::neg(var), smt::pos(steps[j].var)});
      }
    }
  }
}

void Encoding::add_placement_constraints() {
  const int margin = spec().isolation.tunnel_margin();
  const auto ipsec_idx =
      static_cast<std::size_t>(model::device_index(model::DeviceType::kIpsec));

  std::vector<smt::Lit> clause;  // reused across pairs, devices, routes
  for (const auto& [key, xs] : x_) {
    const auto a = static_cast<topology::NodeId>(key >> 32);
    const auto b = static_cast<topology::NodeId>(key & 0xffffffffu);
    const std::vector<topology::Route>& route_set = routes_.routes(a, b);

    for (const model::DeviceType d : model::kAllDevices) {
      const auto di = static_cast<std::size_t>(model::device_index(d));
      const smt::BoolVar x = xs[di];
      if (x == smt::kNoVar) continue;

      if (d == model::DeviceType::kIpsec) {
        // Tunnel feasibility: every route must be at least 2T+1 links.
        const bool feasible = std::all_of(
            route_set.begin(), route_set.end(),
            [&](const topology::Route& r) {
              return r.length() >=
                     static_cast<std::size_t>(2 * margin + 1);
            });
        if (!feasible) {
          counted_unit(smt::neg(x));
          continue;
        }
        // Source-side gateway within the first T links and
        // destination-side gateway within the last T links of each route.
        const auto t_max = static_cast<std::size_t>(margin);
        for (const topology::Route& r : route_set) {
          const std::size_t len = r.length();
          clause.assign(1, smt::neg(x));
          for (std::size_t t = 0; t < t_max; ++t)
            clause.push_back(smt::pos(
                l_[static_cast<std::size_t>(r.links[t])][ipsec_idx]));
          counted_clause(clause);
          clause.assign(1, smt::neg(x));
          for (std::size_t t = 0; t < t_max; ++t)
            clause.push_back(smt::pos(
                l_[static_cast<std::size_t>(r.links[len - 1 - t])]
                  [ipsec_idx]));
          counted_clause(clause);
        }
      } else {
        // eq. 7: the device must sit on some link of every route.
        for (const topology::Route& r : route_set) {
          clause.assign(1, smt::neg(x));
          for (const topology::LinkId e : r.links)
            clause.push_back(
                smt::pos(l_[static_cast<std::size_t>(e)][di]));
          counted_clause(clause);
        }
      }
    }
  }
}

void Encoding::add_user_constraints() {
  const auto y_of = [&](const model::Flow& flow,
                        model::IsolationPattern k) -> smt::BoolVar {
    const auto id = spec().flows.find(flow);
    CS_ENSURE(id.has_value(), "UIC references unknown flow");
    return y_[static_cast<std::size_t>(*id)]
             [static_cast<std::size_t>(model::pattern_index(k))];
  };

  for (const model::UserConstraint& uc : spec().user_constraints) {
    if (const auto* fs = std::get_if<model::ForbidPatternForService>(&uc)) {
      if (!spec().isolation.is_enabled(fs->pattern)) continue;
      for (std::size_t f = 0; f < spec().flows.size(); ++f) {
        if (spec().flows.flow(static_cast<model::FlowId>(f)).service ==
            fs->service) {
          section_clause({smt::neg(
              y_[f][static_cast<std::size_t>(
                  model::pattern_index(fs->pattern))])});
        }
      }
    } else if (const auto* ff =
                   std::get_if<model::ForbidPatternForFlow>(&uc)) {
      if (!spec().isolation.is_enabled(ff->pattern)) continue;
      section_clause({smt::neg(y_of(ff->flow, ff->pattern))});
    } else if (const auto* rf =
                   std::get_if<model::RequirePatternForFlow>(&uc)) {
      CS_REQUIRE(spec().isolation.is_enabled(rf->pattern),
                 "RequirePatternForFlow uses a disabled pattern");
      section_clause({smt::pos(y_of(rf->flow, rf->pattern))});
    } else if (const auto* dn = std::get_if<model::DenyOneOf>(&uc)) {
      CS_REQUIRE(
          spec().isolation.is_enabled(model::IsolationPattern::kAccessDeny),
          "DenyOneOf requires the access-deny pattern");
      section_clause(
          {smt::pos(y_of(dn->open_flow,
                         model::IsolationPattern::kAccessDeny)),
           smt::pos(y_of(dn->guard_flow,
                         model::IsolationPattern::kAccessDeny))});
    }
  }
}

void Encoding::add_host_requirements() {
  // RMC (risk-based constraints): per-host minimum isolation I_j ≥ min
  // (eqs. 2-3), with incoming traffic weighted α and outgoing 1−α. These
  // are hard constraints, mirrored exactly by compute_metrics'
  // host_isolation arithmetic.
  const std::int64_t alpha = spec().alpha.raw();
  const std::int64_t one = util::Fixed::from_int(1).raw();

  for (const model::HostIsolationRequirement& req :
       spec().host_requirements) {
    std::vector<smt::Term> terms;
    std::int64_t constant = 0;
    std::int64_t counted = 0;

    const auto add_direction = [&](topology::NodeId src,
                                   topology::NodeId dst,
                                   std::int64_t weight) {
      const auto& group = spec().flows.directed(src, dst);
      if (group.empty()) {
        constant +=
            util::round_div(weight * model::kSliderMax.raw(), one);
        return;
      }
      for (const model::FlowId f : group) {
        // α-weighted ladder increments; telescopes to
        // round_div(weight · round_div(score, |G|), 1) exactly as the
        // metrics compute the host score.
        std::int64_t prev = 0;
        for (const LadderStep& step :
             ladder_[static_cast<std::size_t>(f)]) {
          const std::int64_t contrib = util::round_div(
              step.level_raw, static_cast<std::int64_t>(group.size()));
          const std::int64_t weighted =
              util::round_div(weight * contrib, one);
          const std::int64_t delta = weighted - prev;
          prev = weighted;
          if (delta == 0) continue;
          terms.push_back(smt::Term{smt::pos(step.var), delta});
        }
      }
    };

    for (const topology::NodeId i : spec().network.hosts()) {
      if (i == req.host) continue;
      if (spec().flows.directed(i, req.host).empty() &&
          spec().flows.directed(req.host, i).empty())
        continue;
      ++counted;
      add_direction(i, req.host, alpha);        // incoming to the host
      add_direction(req.host, i, one - alpha);  // outgoing from the host
    }
    if (counted == 0) continue;  // isolated host: vacuously at maximum

    section_linear_ge(
        terms, util::checked_sub_i64(
                   util::checked_mul_i64(req.min_isolation.raw(), counted,
                                         "host isolation bound"),
                   constant, "host isolation bound"));
  }
}

void Encoding::build_metric_terms() {
  // --- isolation (eqs. 2-4) --------------------------------------------
  // Network isolation I = (Σ over ordered flow-bearing pairs p of Ī_p)/|Q|
  // where Ī_{i,j} = Σ_{f ∈ G_ij} Σ_k y·L_k / |G_ij| and a direction with
  // no flows counts as fully isolated (Ī = 10). The α/(1−α) incoming/
  // outgoing weights cancel over the symmetric pair set Q (each direction
  // appears once with weight α and once with weight 1−α); they still
  // matter for the per-host scores reported by analysis::metrics.
  std::unordered_map<std::uint64_t, bool> seen_pair;
  for (const model::Flow& f : spec().flows.all())
    seen_pair[pair_key(f.src, f.dst)] = true;
  iso_pairs_ = 2 * static_cast<std::int64_t>(seen_pair.size());
  stats_.directed_pairs = static_cast<std::size_t>(iso_pairs_);

  iso_const_ = 0;
  for (const auto& [key, used] : seen_pair) {
    (void)used;
    const auto a = static_cast<topology::NodeId>(key >> 32);
    const auto b = static_cast<topology::NodeId>(key & 0xffffffffu);
    if (spec().flows.directed(a, b).empty())
      iso_const_ += model::kSliderMax.raw();
    if (spec().flows.directed(b, a).empty())
      iso_const_ += model::kSliderMax.raw();
  }

  // Per-flow score through the order-encoded ladder: summing level
  // increments Δj = round_div(ℓj,|G|) − round_div(ℓ{j−1},|G|) over the u
  // variables telescopes to round_div(selected score, |G|) — exactly the
  // value compute_metrics assigns the flow.
  iso_terms_.clear();
  for (std::size_t f = 0; f < spec().flows.size(); ++f) {
    const model::Flow& flow =
        spec().flows.flow(static_cast<model::FlowId>(f));
    const auto group_size = static_cast<std::int64_t>(
        spec().flows.directed(flow.src, flow.dst).size());
    std::int64_t prev = 0;
    for (const LadderStep& step : ladder_[f]) {
      const std::int64_t delta =
          round_div(step.level_raw, group_size) - prev;
      prev = round_div(step.level_raw, group_size);
      if (delta == 0) continue;
      iso_terms_.push_back(smt::Term{smt::pos(step.var), delta});
    }
  }

  // --- usability (eqs. 5-6) ---------------------------------------------
  // U = 10 · Σ_f a_f·b(pattern_f) / Σ_f a_f, with b(none) = 1. Selecting
  // pattern k on flow f costs penalty a_f − a_f·b_k(g) relative to the
  // all-open maximum.
  usab_total_rank_raw_ = spec().ranks.total().raw();
  usab_penalty_terms_.clear();
  for (std::size_t f = 0; f < spec().flows.size(); ++f) {
    const model::Flow& flow =
        spec().flows.flow(static_cast<model::FlowId>(f));
    const util::Fixed rank =
        spec().ranks.rank(static_cast<model::FlowId>(f));
    for (const model::IsolationPattern k : spec().isolation.enabled()) {
      const util::Fixed kept = rank * spec().isolation.usability(k, flow.service);
      const std::int64_t penalty = rank.raw() - kept.raw();
      if (penalty == 0) continue;
      usab_penalty_terms_.push_back(smt::Term{
          smt::pos(y_[f][static_cast<std::size_t>(
              model::pattern_index(k))]),
          penalty});
    }
  }

  // --- cost (eq. 8, plus per-host pattern costs) --------------------------
  cost_terms_.clear();
  for (std::size_t e = 0; e < l_.size(); ++e) {
    for (const model::DeviceType d : model::kAllDevices) {
      const auto di = static_cast<std::size_t>(model::device_index(d));
      if (l_[e][di] == smt::kNoVar) continue;
      const std::int64_t c = spec().device_costs.cost(d).raw();
      if (c == 0) continue;
      cost_terms_.push_back(smt::Term{smt::pos(l_[e][di]), c});
    }
  }
  if (spec().host_patterns.any()) {
    for (const topology::NodeId j : spec().network.hosts()) {
      for (const model::HostPattern t : spec().host_patterns.enabled()) {
        const std::int64_t c = spec().host_patterns.cost(t).raw();
        if (c == 0) continue;
        cost_terms_.push_back(smt::Term{
            smt::pos(hp_[static_cast<std::size_t>(j)]
                        [static_cast<std::size_t>(
                            model::host_pattern_index(t))]),
            c});
      }
    }
  }
  for (const auto& [endpoint, arr] : ap_) {
    (void)endpoint;
    for (const model::AppPattern t : spec().app_patterns.enabled()) {
      const auto ti = static_cast<std::size_t>(model::app_pattern_index(t));
      if (arr[ti] == smt::kNoVar) continue;
      const std::int64_t c = spec().app_patterns.cost(t).raw();
      if (c == 0) continue;
      cost_terms_.push_back(smt::Term{smt::pos(arr[ti]), c});
    }
  }
}

std::string_view threshold_name(ThresholdKind kind) {
  switch (kind) {
    case ThresholdKind::kIsolation:
      return "isolation";
    case ThresholdKind::kUsability:
      return "usability";
    case ThresholdKind::kCost:
      return "cost";
  }
  return "?";
}

smt::Lit Encoding::isolation_guard(util::Fixed threshold) {
  // Σ iso_terms + iso_const ≥ threshold.raw × |Q|   (all in Fixed raw).
  // Bounds are overflow-checked: a wrapped bound is another constraint.
  const std::int64_t bound = util::checked_sub_i64(
      util::checked_mul_i64(threshold.raw(), iso_pairs_, "isolation bound"),
      iso_const_, "isolation bound");
  const smt::Lit guard = smt::pos(named_bool("g_iso"));
  backend_.add_guarded_linear_ge(guard, iso_terms_, bound);
  ++stats_.linear_constraints;
  return guard;
}

smt::Lit Encoding::usability_guard(util::Fixed threshold) {
  // 10·(A − Σ penalties) ≥ Th·A  ⇔  Σ penalties ≤ A·(10 − Th)/10.
  // The left side is an integer, so flooring the right side is exact.
  const std::int64_t bound =
      util::checked_mul_i64(
          usab_total_rank_raw_,
          util::checked_sub_i64(model::kSliderMax.raw(), threshold.raw(),
                                "usability bound"),
          "usability bound") /
      model::kSliderMax.raw();
  const smt::Lit guard = smt::pos(named_bool("g_usab"));
  backend_.add_guarded_linear_le(guard, usab_penalty_terms_, bound);
  ++stats_.linear_constraints;
  return guard;
}

smt::Lit Encoding::cost_guard(util::Fixed budget) {
  const smt::Lit guard = smt::pos(named_bool("g_cost"));
  backend_.add_guarded_linear_le(guard, cost_terms_, budget.raw());
  ++stats_.linear_constraints;
  return guard;
}

smt::Lit Encoding::add_threshold(ThresholdKind kind, util::Fixed value) {
  switch (kind) {
    case ThresholdKind::kIsolation:
      return isolation_guard(value);
    case ThresholdKind::kUsability:
      return usability_guard(value);
    case ThresholdKind::kCost:
      return cost_guard(value);
  }
  throw util::InternalError("unknown threshold kind");
}

SecurityDesign Encoding::decode() const {
  SecurityDesign design(spec().flows.size(), spec().network.link_count(),
                        spec().network.node_count());
  for (std::size_t f = 0; f < spec().flows.size(); ++f) {
    std::optional<model::IsolationPattern> chosen;
    for (const model::IsolationPattern k : spec().isolation.enabled()) {
      if (backend_.model_value(
              y_[f][static_cast<std::size_t>(model::pattern_index(k))])) {
        CS_ENSURE(!chosen.has_value(), "model selects two patterns (IIC1)");
        chosen = k;
      }
    }
    design.set_pattern(static_cast<model::FlowId>(f), chosen);
  }
  for (std::size_t e = 0; e < l_.size(); ++e) {
    for (const model::DeviceType d : model::kAllDevices) {
      const auto di = static_cast<std::size_t>(model::device_index(d));
      if (l_[e][di] == smt::kNoVar) continue;
      design.set_placed(static_cast<topology::LinkId>(e), d,
                        backend_.model_value(l_[e][di]));
    }
  }
  if (spec().host_patterns.any()) {
    for (const topology::NodeId j : spec().network.hosts()) {
      std::optional<model::HostPattern> chosen;
      for (const model::HostPattern t : spec().host_patterns.enabled()) {
        if (backend_.model_value(
                hp_[static_cast<std::size_t>(j)]
                   [static_cast<std::size_t>(
                       model::host_pattern_index(t))])) {
          CS_ENSURE(!chosen.has_value(),
                    "model deploys two host patterns on one host");
          chosen = t;
        }
      }
      design.set_host_pattern(j, chosen);
    }
  }
  for (const auto& [endpoint, arr] : ap_) {
    std::optional<model::AppPattern> chosen;
    for (const model::AppPattern t : spec().app_patterns.enabled()) {
      const auto ti = static_cast<std::size_t>(model::app_pattern_index(t));
      if (arr[ti] != smt::kNoVar && backend_.model_value(arr[ti])) {
        CS_ENSURE(!chosen.has_value(),
                  "model deploys two app patterns on one endpoint");
        chosen = t;
      }
    }
    design.set_app_pattern(endpoint.first, endpoint.second, chosen);
  }
  return design;
}

smt::BoolVar Encoding::y_var(model::FlowId f,
                             model::IsolationPattern k) const {
  CS_ENSURE(f >= 0 && static_cast<std::size_t>(f) < y_.size(),
            "y_var: bad flow");
  return y_[static_cast<std::size_t>(f)]
           [static_cast<std::size_t>(model::pattern_index(k))];
}

smt::BoolVar Encoding::l_var(topology::LinkId link,
                             model::DeviceType d) const {
  CS_ENSURE(link >= 0 && static_cast<std::size_t>(link) < l_.size(),
            "l_var: bad link");
  return l_[static_cast<std::size_t>(link)]
           [static_cast<std::size_t>(model::device_index(d))];
}

}  // namespace cs::synth
