// Typed spec deltas — the cs-delta-v1 changefeed (docs/DELTAS.md).
//
// Real deployments mutate: hosts join and leave, links fail and come
// back, flows and policy constraints are added, thresholds get retuned.
// A `SpecDelta` is an ordered list of such operations applied
// *transactionally* to a finalized ProblemSpec: either every op resolves
// and the post-delta spec validates, or `apply_delta` throws SpecError
// and the input spec is untouched.
//
// Ops reference nodes and services by *name*, never by id, so a delta
// rendered against one spec replays against any spec with the same
// naming — ids are an artifact of construction order and removals
// renumber them. The canonical line serialization (`render_delta` /
// `parse_delta`) is space-free so deltas travel as one token of a
// cs-req-v1 request line (`delta:` spec-ref, docs/PROTOCOL.md) and
// through request files:
//
//   delta := op (";" op)*
//   op    := "add-host" "," name "," router ["," group]
//          | "remove-host" "," name
//          | "fail-link" "," name "," name
//          | "restore-link" "," name "," name
//          | "add-flow" "," src "," dst "," service ["," "cr"]
//          | "remove-flow" "," src "," dst "," service
//          | "add-uic" "," uic
//          | "remove-uic" "," uic
//          | "retune" ("," ("iso"|"usab"|"budget") "=" value)+
//   uic   := "forbid-service" "," service "," pattern
//          | "forbid-flow" "," src "," dst "," service "," pattern
//          | "require-flow" "," src "," dst "," service "," pattern
//          | "deny-one-of" "," src "," dst "," service
//                          "," src "," dst "," service
//
// `parse_delta(render_delta(d)) == d` for every valid delta.
//
// Removal semantics cascade (documented in docs/DELTAS.md): removing a
// host drops its flows, their connectivity requirements, any UIC
// referencing those flows, and the host's isolation requirement;
// removing a flow drops its CR and referencing UICs. `fail-link` must
// not disconnect the network. All three removals are restrictions of
// the whole spec through model::project_spec (model/subspec.h).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/spec.h"
#include "util/fixed.h"

namespace cs::model {

enum class DeltaOpKind {
  kAddHost,      // new leaf host attached to an existing router
  kRemoveHost,   // cascade: flows, CRs, UICs, host requirement
  kFailLink,     // remove one link (must not disconnect)
  kRestoreLink,  // add one link between existing nodes
  kAddFlow,      // new (src, dst, service) flow, optionally a CR
  kRemoveFlow,   // cascade: CR, referencing UICs
  kAddUic,       // append one user constraint (set semantics: no dupes)
  kRemoveUic,    // erase one user constraint (must exist)
  kRetune,       // overwrite any subset of the three sliders
};

std::string_view delta_op_name(DeltaOpKind kind);

/// One delta operation. Which fields are meaningful depends on `kind`;
/// `parse_delta` and `apply_delta` enforce the grammar arity, so two ops
/// compare equal iff their canonical renderings do.
struct DeltaOp {
  DeltaOpKind kind = DeltaOpKind::kRetune;

  std::string a;        // add/remove-host: host name; links: endpoint;
                        // flows: source host name
  std::string b;        // add-host: router; links: endpoint; flows: dst
  std::string service;  // flow ops: service name
  bool connectivity_required = false;  // add-flow: also mark as CR
  int group_size = 1;                  // add-host: logical group size

  /// UIC ops: the uic production's comma-joined tokens, first the form
  /// name (`forbid-service`, `forbid-flow`, `require-flow`,
  /// `deny-one-of`), then its arguments in grammar order.
  std::vector<std::string> uic;

  /// Retune: absent knobs keep their current value.
  std::optional<util::Fixed> isolation;
  std::optional<util::Fixed> usability;
  std::optional<util::Fixed> budget;

  bool operator==(const DeltaOp&) const = default;
};

/// An ordered, transactional batch of operations.
struct SpecDelta {
  std::vector<DeltaOp> ops;

  bool operator==(const SpecDelta&) const = default;
};

/// Canonical cs-delta-v1 text (space-free, one line). Throws SpecError
/// if an op is malformed (bad arity, a name containing a delimiter).
std::string render_delta(const SpecDelta& delta);

/// Parses canonical text back into ops. Grammar errors throw SpecError;
/// name resolution is deferred to `apply_delta`.
SpecDelta parse_delta(std::string_view text);

/// Applies `delta` to a copy of `spec` and returns the finalized,
/// validated result. Transactional: any failure (unknown name, duplicate
/// host, disconnecting link failure, missing UIC, invalid slider) throws
/// SpecError and `spec` is unchanged.
ProblemSpec apply_delta(const ProblemSpec& spec, const SpecDelta& delta);

/// Wire token for IsolationPattern in uic productions (`access-deny`,
/// `trusted-comm`, `payload-inspection`, `proxy`, `proxy-trusted`).
std::string_view pattern_token(IsolationPattern pattern);
IsolationPattern pattern_from_token(std::string_view token);

}  // namespace cs::model
