// Table III — assistance on choosing slider values.
//
// Prints the representative (isolation, usability) operating points that
// ConfigSynth presents to its user for the running example: full denial,
// no isolation, deny-all-but-CR, 50% deny, and the 25%/25% deny/trusted
// mix. The paper reports 10/0, 0/10, 8.2/1.8, 5/≈5 and ≈5/7.5 for its
// example; the shape (monotone trade-off, deny-but-CR close to the top) is
// what must reproduce.
#include "common/workloads.h"
#include "synth/assistance.h"

int main() {
  using namespace cs;
  const model::ProblemSpec spec = bench::make_paper_example_spec();

  const std::vector<synth::SliderChoice> rows = synth::slider_assistance(spec);
  std::vector<bench::Row> out;
  for (const synth::SliderChoice& r : rows)
    out.push_back({r.isolation.to_string(), r.usability.to_string(),
                   r.description});
  bench::emit("table3_sliders",
              "Table III: slider assistance (example network)",
              {"isolation", "usability", "configuration"}, out);
  return 0;
}
