#include "analysis/design_io.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace cs::analysis {

void save_design(std::ostream& out, const synth::SecurityDesign& design) {
  out << "configsynth-design 1\n";
  out << "flows " << design.flow_count() << "\n";
  for (std::size_t f = 0; f < design.flow_count(); ++f) {
    const auto p = design.pattern(static_cast<model::FlowId>(f));
    out << f << " " << (p.has_value() ? model::paper_id(*p) : 0) << "\n";
  }

  std::size_t placed_links = 0;
  for (std::size_t e = 0; e < design.link_count(); ++e) {
    bool any = false;
    for (const model::DeviceType d : model::kAllDevices)
      any = any || design.placed(static_cast<topology::LinkId>(e), d);
    placed_links += any ? 1 : 0;
  }
  out << "links " << design.link_count() << " placed " << placed_links
      << "\n";
  for (std::size_t e = 0; e < design.link_count(); ++e) {
    std::string devices;
    for (const model::DeviceType d : model::kAllDevices) {
      if (design.placed(static_cast<topology::LinkId>(e), d))
        devices.append(" ").append(std::to_string(model::paper_id(d)));
    }
    if (!devices.empty()) out << e << devices << "\n";
  }

  std::size_t host_count = design.host_pattern_count();
  out << "host-patterns " << design.node_count() << " placed " << host_count
      << "\n";
  for (topology::NodeId n = 0;
       host_count > 0 &&
       n < static_cast<topology::NodeId>(design.node_count());
       ++n) {
    if (const auto t = design.host_pattern(n); t.has_value()) {
      out << n << " " << (model::host_pattern_index(*t) + 1) << "\n";
      --host_count;
    }
  }

  const auto app = design.app_patterns();
  out << "app-patterns " << app.size() << "\n";
  for (const auto& [host, service, t] : app)
    out << host << " " << service << " " << (model::app_pattern_index(t) + 1)
        << "\n";
  out << "end\n";
}

std::string design_to_text(const synth::SecurityDesign& design) {
  std::ostringstream out;
  save_design(out, design);
  return out.str();
}

namespace {

std::vector<std::string> read_line(std::istream& in,
                                   std::string_view context) {
  std::string line;
  while (std::getline(in, line)) {
    const std::string trimmed = util::trim(line);
    if (!trimmed.empty()) return util::split_ws(trimmed);
  }
  throw util::SpecError("design file ended while reading " +
                        std::string(context));
}

}  // namespace

synth::SecurityDesign load_design(std::istream& in) {
  std::vector<std::string> tok = read_line(in, "header");
  CS_REQUIRE(tok.size() == 2 && tok[0] == "configsynth-design" &&
                 tok[1] == "1",
             "not a configsynth-design v1 file");

  tok = read_line(in, "flows header");
  CS_REQUIRE(tok.size() == 2 && tok[0] == "flows", "expected 'flows <n>'");
  const auto flow_count = static_cast<std::size_t>(
      util::parse_int(tok[1], "flow count"));

  // Link/node counts are discovered from the body; flow lines are dense.
  synth::SecurityDesign design(flow_count, 0, 0);
  for (std::size_t f = 0; f < flow_count; ++f) {
    tok = read_line(in, "flow row");
    CS_REQUIRE(tok.size() == 2, "flow row needs '<index> <pattern>'");
    const auto idx = static_cast<std::size_t>(
        util::parse_int(tok[0], "flow index"));
    CS_REQUIRE(idx == f, "flow rows must be dense and ordered");
    const long long pid = util::parse_int(tok[1], "pattern id");
    CS_REQUIRE(pid >= 0 && pid <= model::kPatternCount,
               "pattern id out of range");
    if (pid != 0)
      design.set_pattern(static_cast<model::FlowId>(f),
                         static_cast<model::IsolationPattern>(pid - 1));
  }

  tok = read_line(in, "links header");
  CS_REQUIRE(tok.size() == 4 && tok[0] == "links" && tok[2] == "placed",
             "expected 'links <total> placed <rows>'");
  const auto link_total = static_cast<std::size_t>(
      util::parse_int(tok[1], "link total"));
  const auto link_rows = static_cast<std::size_t>(
      util::parse_int(tok[3], "placed link count"));
  std::vector<std::pair<topology::LinkId, model::DeviceType>> placements;
  for (std::size_t r = 0; r < link_rows; ++r) {
    tok = read_line(in, "link row");
    CS_REQUIRE(tok.size() >= 2, "link row needs '<index> <devices...>'");
    const auto link = static_cast<topology::LinkId>(
        util::parse_int(tok[0], "link index"));
    CS_REQUIRE(link >= 0 && static_cast<std::size_t>(link) < link_total,
               "link index out of range");
    for (std::size_t i = 1; i < tok.size(); ++i) {
      const long long did = util::parse_int(tok[i], "device id");
      CS_REQUIRE(did >= 1 && did <= model::kDeviceCount,
                 "device id out of range");
      placements.emplace_back(
          link, static_cast<model::DeviceType>(did - 1));
    }
  }

  tok = read_line(in, "host-patterns header");
  CS_REQUIRE(tok.size() == 4 && tok[0] == "host-patterns" &&
                 tok[2] == "placed",
             "expected 'host-patterns <total> placed <rows>'");
  const auto node_total = static_cast<std::size_t>(
      util::parse_int(tok[1], "node total"));
  const auto hp_rows = static_cast<std::size_t>(
      util::parse_int(tok[3], "host pattern count"));
  std::vector<std::pair<topology::NodeId, model::HostPattern>> hps;
  for (std::size_t r = 0; r < hp_rows; ++r) {
    tok = read_line(in, "host pattern row");
    CS_REQUIRE(tok.size() == 2, "host pattern row needs '<node> <pattern>'");
    const auto node = static_cast<topology::NodeId>(
        util::parse_int(tok[0], "node index"));
    const long long tid = util::parse_int(tok[1], "host pattern id");
    CS_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < node_total,
               "node index out of range");
    CS_REQUIRE(tid >= 1 && tid <= model::kHostPatternCount,
               "host pattern id out of range");
    hps.emplace_back(node, static_cast<model::HostPattern>(tid - 1));
  }

  tok = read_line(in, "app-patterns header");
  CS_REQUIRE(tok.size() == 2 && tok[0] == "app-patterns",
             "expected 'app-patterns <rows>'");
  const auto app_rows = static_cast<std::size_t>(
      util::parse_int(tok[1], "app pattern count"));
  std::vector<std::tuple<topology::NodeId, model::ServiceId,
                         model::AppPattern>>
      aps;
  for (std::size_t r = 0; r < app_rows; ++r) {
    tok = read_line(in, "app pattern row");
    CS_REQUIRE(tok.size() == 3,
               "app pattern row needs '<node> <service> <pattern>'");
    const auto node = static_cast<topology::NodeId>(
        util::parse_int(tok[0], "node index"));
    const auto service = static_cast<model::ServiceId>(
        util::parse_int(tok[1], "service index"));
    const long long tid = util::parse_int(tok[2], "app pattern id");
    CS_REQUIRE(node >= 0 && service >= 0, "negative endpoint index");
    CS_REQUIRE(tid >= 1 && tid <= model::kAppPatternCount,
               "app pattern id out of range");
    aps.emplace_back(node, service,
                     static_cast<model::AppPattern>(tid - 1));
  }

  tok = read_line(in, "trailer");
  CS_REQUIRE(tok.size() == 1 && tok[0] == "end", "missing 'end' trailer");

  synth::SecurityDesign out(flow_count, link_total, node_total);
  for (std::size_t f = 0; f < flow_count; ++f)
    out.set_pattern(static_cast<model::FlowId>(f),
                    design.pattern(static_cast<model::FlowId>(f)));
  for (const auto& [link, d] : placements) out.set_placed(link, d, true);
  for (const auto& [node, t] : hps) out.set_host_pattern(node, t);
  for (const auto& [node, service, t] : aps)
    out.set_app_pattern(node, service, t);
  return out;
}

synth::SecurityDesign design_from_text(const std::string& text) {
  std::istringstream in(text);
  return load_design(in);
}

}  // namespace cs::analysis
