#include "model/delta.h"

#include <algorithm>

#include "model/subspec.h"
#include "util/error.h"
#include "util/strings.h"

namespace cs::model {

namespace {

using topology::kInvalidNode;
using topology::Network;
using topology::NodeId;
using topology::NodeKind;

/// Names travel as single tokens of the space-free grammar, so the
/// delimiters (and whitespace, which would split the cs-req-v1 line)
/// are forbidden inside them.
void require_name(const std::string& name, std::string_view what) {
  CS_REQUIRE(!name.empty(), "cs-delta-v1: empty " + std::string(what));
  CS_REQUIRE(name.find_first_of(",;= \t") == std::string::npos,
             "cs-delta-v1: " + std::string(what) + " '" + name +
                 "' contains a delimiter");
}

NodeId resolve_node(const Network& net, const std::string& name,
                    std::string_view what) {
  NodeId found = kInvalidNode;
  for (const topology::Node& n : net.nodes()) {
    if (n.name != name) continue;
    CS_REQUIRE(found == kInvalidNode,
               "delta: ambiguous " + std::string(what) + " name '" + name +
                   "' (multiple nodes share it)");
    found = n.id;
  }
  CS_REQUIRE(found != kInvalidNode,
             "delta: unknown " + std::string(what) + " '" + name + "'");
  return found;
}

ServiceId resolve_service(const ServiceCatalog& services,
                          const std::string& name) {
  const auto id = services.find(name);
  CS_REQUIRE(id.has_value(), "delta: unknown service '" + name + "'");
  return *id;
}

Flow resolve_flow(const ProblemSpec& spec, const std::string& src,
                  const std::string& dst, const std::string& service) {
  return Flow{resolve_node(spec.network, src, "flow endpoint"),
              resolve_node(spec.network, dst, "flow endpoint"),
              resolve_service(spec.services, service)};
}

UserConstraint resolve_uic(const ProblemSpec& spec,
                           const std::vector<std::string>& uic) {
  CS_REQUIRE(!uic.empty(), "delta: empty uic production");
  const std::string& form = uic[0];
  const auto arity = [&](std::size_t want) {
    CS_REQUIRE(uic.size() == want + 1,
               "delta: uic form '" + form + "' takes " +
                   std::to_string(want) + " argument(s), got " +
                   std::to_string(uic.size() - 1));
  };
  if (form == "forbid-service") {
    arity(2);
    return ForbidPatternForService{resolve_service(spec.services, uic[1]),
                                   pattern_from_token(uic[2])};
  }
  if (form == "forbid-flow") {
    arity(4);
    return ForbidPatternForFlow{resolve_flow(spec, uic[1], uic[2], uic[3]),
                                pattern_from_token(uic[4])};
  }
  if (form == "require-flow") {
    arity(4);
    return RequirePatternForFlow{resolve_flow(spec, uic[1], uic[2], uic[3]),
                                 pattern_from_token(uic[4])};
  }
  if (form == "deny-one-of") {
    arity(6);
    return DenyOneOf{resolve_flow(spec, uic[1], uic[2], uic[3]),
                     resolve_flow(spec, uic[4], uic[5], uic[6])};
  }
  throw util::SpecError("delta: unknown uic form '" + form + "'");
}

/// Every node of `net` except `drop`, in ascending id order: the keep
/// set of a removal, which restricts the whole spec (model/subspec.h).
std::vector<NodeId> nodes_except(const Network& net,
                                 NodeId drop = kInvalidNode) {
  std::vector<NodeId> keep;
  keep.reserve(net.node_count());
  for (const topology::Node& n : net.nodes())
    if (n.id != drop) keep.push_back(n.id);
  return keep;
}

void apply_op(ProblemSpec& out, const DeltaOp& op) {
  switch (op.kind) {
    case DeltaOpKind::kAddHost: {
      require_name(op.a, "host name");
      for (const topology::Node& n : out.network.nodes())
        CS_REQUIRE(n.name != op.a,
                   "delta: add-host name '" + op.a + "' already in use");
      const NodeId router = resolve_node(out.network, op.b, "router");
      CS_REQUIRE(out.network.node(router).kind == NodeKind::kRouter,
                 "delta: add-host must attach to a router, '" + op.b +
                     "' is not one");
      CS_REQUIRE(op.group_size >= 1, "delta: add-host group must be >= 1");
      const NodeId host = out.network.add_host(op.a, op.group_size);
      out.network.add_link(host, router);
      return;
    }
    case DeltaOpKind::kRemoveHost: {
      const NodeId victim = resolve_node(out.network, op.a, "host");
      CS_REQUIRE(out.network.is_host(victim),
                 "delta: remove-host target '" + op.a + "' is not a host");
      out = project_spec(out, nodes_except(out.network, victim)).spec;
      return;
    }
    case DeltaOpKind::kFailLink: {
      const NodeId a = resolve_node(out.network, op.a, "link endpoint");
      const NodeId b = resolve_node(out.network, op.b, "link endpoint");
      const auto link = out.network.find_link(a, b);
      CS_REQUIRE(link.has_value(), "delta: fail-link: no link between '" +
                                       op.a + "' and '" + op.b + "'");
      out = project_spec(out, nodes_except(out.network), *link).spec;
      CS_REQUIRE(out.network.connected(),
                 "delta: fail-link between '" + op.a + "' and '" + op.b +
                     "' would disconnect the network");
      return;
    }
    case DeltaOpKind::kRestoreLink: {
      const NodeId a = resolve_node(out.network, op.a, "link endpoint");
      const NodeId b = resolve_node(out.network, op.b, "link endpoint");
      CS_REQUIRE(!out.network.has_link(a, b),
                 "delta: restore-link: link between '" + op.a + "' and '" +
                     op.b + "' already present");
      out.network.add_link(a, b);
      return;
    }
    case DeltaOpKind::kAddFlow: {
      const Flow f = resolve_flow(out, op.a, op.b, op.service);
      CS_REQUIRE(!out.flows.find(f).has_value(),
                 "delta: add-flow: flow already present");
      const FlowRanks old_ranks = std::move(out.ranks);
      const FlowId id = out.flows.add(f);
      out.ranks = FlowRanks::uniform(out.flows);  // new flow ranks 1
      for (FlowId i = 0; i < id; ++i) out.ranks.set(i, old_ranks.rank(i));
      if (op.connectivity_required) out.connectivity.add(id);
      return;
    }
    case DeltaOpKind::kRemoveFlow: {
      const Flow f = resolve_flow(out, op.a, op.b, op.service);
      CS_REQUIRE(out.flows.find(f).has_value(),
                 "delta: remove-flow: no such flow");
      out = project_spec(out, nodes_except(out.network), std::nullopt, f)
                .spec;
      return;
    }
    case DeltaOpKind::kAddUic: {
      const UserConstraint c = resolve_uic(out, op.uic);
      const auto it = std::find(out.user_constraints.begin(),
                                out.user_constraints.end(), c);
      CS_REQUIRE(it == out.user_constraints.end(),
                 "delta: add-uic: constraint already present");
      out.user_constraints.push_back(c);
      return;
    }
    case DeltaOpKind::kRemoveUic: {
      const UserConstraint c = resolve_uic(out, op.uic);
      const auto it = std::find(out.user_constraints.begin(),
                                out.user_constraints.end(), c);
      CS_REQUIRE(it != out.user_constraints.end(),
                 "delta: remove-uic: no such constraint");
      out.user_constraints.erase(it);
      return;
    }
    case DeltaOpKind::kRetune: {
      CS_REQUIRE(op.isolation || op.usability || op.budget,
                 "delta: retune with no knobs");
      if (op.isolation) out.sliders.isolation = *op.isolation;
      if (op.usability) out.sliders.usability = *op.usability;
      if (op.budget) out.sliders.budget = *op.budget;
      return;
    }
  }
  throw util::InternalError("delta: unhandled op kind");
}

void render_op(std::string& out, const DeltaOp& op) {
  out += delta_op_name(op.kind);
  const auto arg = [&](const std::string& token, std::string_view what) {
    require_name(token, what);
    out += ',';
    out += token;
  };
  switch (op.kind) {
    case DeltaOpKind::kAddHost:
      arg(op.a, "host name");
      arg(op.b, "router name");
      if (op.group_size != 1) out += ',' + std::to_string(op.group_size);
      return;
    case DeltaOpKind::kRemoveHost:
      arg(op.a, "host name");
      return;
    case DeltaOpKind::kFailLink:
    case DeltaOpKind::kRestoreLink:
      arg(op.a, "link endpoint");
      arg(op.b, "link endpoint");
      return;
    case DeltaOpKind::kAddFlow:
    case DeltaOpKind::kRemoveFlow:
      arg(op.a, "flow source");
      arg(op.b, "flow destination");
      arg(op.service, "service name");
      if (op.kind == DeltaOpKind::kAddFlow && op.connectivity_required)
        out += ",cr";
      return;
    case DeltaOpKind::kAddUic:
    case DeltaOpKind::kRemoveUic:
      CS_REQUIRE(!op.uic.empty(), "cs-delta-v1: uic op with no production");
      for (const std::string& token : op.uic) arg(token, "uic token");
      return;
    case DeltaOpKind::kRetune:
      CS_REQUIRE(op.isolation || op.usability || op.budget,
                 "cs-delta-v1: retune with no knobs");
      if (op.isolation) out += ",iso=" + op.isolation->to_string();
      if (op.usability) out += ",usab=" + op.usability->to_string();
      if (op.budget) out += ",budget=" + op.budget->to_string();
      return;
  }
  throw util::InternalError("cs-delta-v1: unhandled op kind");
}

DeltaOp parse_op(const std::string& text) {
  const std::vector<std::string> tok = util::split(text, ',');
  CS_REQUIRE(!tok[0].empty(), "cs-delta-v1: empty op");
  DeltaOp op;
  const auto arity = [&](std::size_t lo, std::size_t hi) {
    CS_REQUIRE(tok.size() >= lo + 1 && tok.size() <= hi + 1,
               "cs-delta-v1: op '" + tok[0] + "' has bad arity (" +
                   std::to_string(tok.size() - 1) + " args)");
    for (const std::string& t : tok) require_name(t, "token");
  };
  if (tok[0] == "add-host") {
    op.kind = DeltaOpKind::kAddHost;
    arity(2, 3);
    op.a = tok[1];
    op.b = tok[2];
    if (tok.size() == 4) {
      op.group_size = static_cast<int>(util::parse_int(tok[3], "group"));
      CS_REQUIRE(op.group_size != 1,
                 "cs-delta-v1: explicit group of 1 is non-canonical");
    }
    return op;
  }
  if (tok[0] == "remove-host") {
    op.kind = DeltaOpKind::kRemoveHost;
    arity(1, 1);
    op.a = tok[1];
    return op;
  }
  if (tok[0] == "fail-link" || tok[0] == "restore-link") {
    op.kind = tok[0] == "fail-link" ? DeltaOpKind::kFailLink
                                    : DeltaOpKind::kRestoreLink;
    arity(2, 2);
    op.a = tok[1];
    op.b = tok[2];
    return op;
  }
  if (tok[0] == "add-flow" || tok[0] == "remove-flow") {
    const bool add = tok[0] == "add-flow";
    op.kind = add ? DeltaOpKind::kAddFlow : DeltaOpKind::kRemoveFlow;
    arity(3, add ? 4 : 3);
    op.a = tok[1];
    op.b = tok[2];
    op.service = tok[3];
    if (tok.size() == 5) {
      CS_REQUIRE(tok[4] == "cr",
                 "cs-delta-v1: add-flow trailing token must be 'cr'");
      op.connectivity_required = true;
    }
    return op;
  }
  if (tok[0] == "add-uic" || tok[0] == "remove-uic") {
    op.kind = tok[0] == "add-uic" ? DeltaOpKind::kAddUic
                                  : DeltaOpKind::kRemoveUic;
    CS_REQUIRE(tok.size() >= 2, "cs-delta-v1: uic op with no production");
    op.uic.assign(tok.begin() + 1, tok.end());
    for (const std::string& t : op.uic) require_name(t, "uic token");
    return op;
  }
  if (tok[0] == "retune") {
    op.kind = DeltaOpKind::kRetune;
    CS_REQUIRE(tok.size() >= 2, "cs-delta-v1: retune with no knobs");
    for (std::size_t i = 1; i < tok.size(); ++i) {
      const std::size_t eq = tok[i].find('=');
      CS_REQUIRE(eq != std::string::npos,
                 "cs-delta-v1: retune knob without '=': " + tok[i]);
      const std::string knob = tok[i].substr(0, eq);
      const util::Fixed value =
          util::parse_fixed(tok[i].substr(eq + 1), knob);
      // Canonical knob order (iso, usab, budget), each at most once.
      if (knob == "iso") {
        CS_REQUIRE(!op.isolation && !op.usability && !op.budget,
                   "cs-delta-v1: retune knobs out of canonical order");
        op.isolation = value;
      } else if (knob == "usab") {
        CS_REQUIRE(!op.usability && !op.budget,
                   "cs-delta-v1: retune knobs out of canonical order");
        op.usability = value;
      } else if (knob == "budget") {
        CS_REQUIRE(!op.budget,
                   "cs-delta-v1: retune knobs out of canonical order");
        op.budget = value;
      } else {
        throw util::SpecError("cs-delta-v1: unknown retune knob '" + knob +
                              "'");
      }
    }
    return op;
  }
  throw util::SpecError("cs-delta-v1: unknown op '" + tok[0] + "'");
}

}  // namespace

std::string_view delta_op_name(DeltaOpKind kind) {
  switch (kind) {
    case DeltaOpKind::kAddHost:
      return "add-host";
    case DeltaOpKind::kRemoveHost:
      return "remove-host";
    case DeltaOpKind::kFailLink:
      return "fail-link";
    case DeltaOpKind::kRestoreLink:
      return "restore-link";
    case DeltaOpKind::kAddFlow:
      return "add-flow";
    case DeltaOpKind::kRemoveFlow:
      return "remove-flow";
    case DeltaOpKind::kAddUic:
      return "add-uic";
    case DeltaOpKind::kRemoveUic:
      return "remove-uic";
    case DeltaOpKind::kRetune:
      return "retune";
  }
  return "?";
}

std::string_view pattern_token(IsolationPattern pattern) {
  switch (pattern) {
    case IsolationPattern::kAccessDeny:
      return "access-deny";
    case IsolationPattern::kTrustedComm:
      return "trusted-comm";
    case IsolationPattern::kPayloadInspection:
      return "payload-inspection";
    case IsolationPattern::kProxy:
      return "proxy";
    case IsolationPattern::kProxyTrusted:
      return "proxy-trusted";
  }
  return "?";
}

IsolationPattern pattern_from_token(std::string_view token) {
  for (int i = 0; i < kPatternCount; ++i) {
    const auto p = static_cast<IsolationPattern>(i);
    if (pattern_token(p) == token) return p;
  }
  throw util::SpecError("cs-delta-v1: unknown pattern token '" +
                        std::string(token) + "'");
}

std::string render_delta(const SpecDelta& delta) {
  CS_REQUIRE(!delta.ops.empty(), "cs-delta-v1: empty delta");
  std::string out;
  for (std::size_t i = 0; i < delta.ops.size(); ++i) {
    if (i > 0) out += ';';
    render_op(out, delta.ops[i]);
  }
  return out;
}

SpecDelta parse_delta(std::string_view text) {
  CS_REQUIRE(!text.empty(), "cs-delta-v1: empty delta");
  SpecDelta delta;
  for (const std::string& op_text : util::split(text, ';'))
    delta.ops.push_back(parse_op(op_text));
  return delta;
}

ProblemSpec apply_delta(const ProblemSpec& spec, const SpecDelta& delta) {
  CS_REQUIRE(!delta.ops.empty(), "delta: empty delta");
  ProblemSpec out = spec;
  for (const DeltaOp& op : delta.ops) apply_op(out, op);
  out.finalize();
  out.validate();
  return out;
}

}  // namespace cs::model
