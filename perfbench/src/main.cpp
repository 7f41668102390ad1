// perfbench — runs one benchmark workload and prints its metrics.
//
//   perfbench --workload serve_cold|serve_hot|churn --seed <n>
//             --seconds <s> --trace 0|1 [--trace-dir <dir>]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, the per-layer breakdown with --trace 1. Exit status 0 when
// every op passed the correctness gate, 1 when any failed, 2 on a usage
// or set-up error (no result line).
#include <cstdio>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value != "0";
      } else if (flag == "--trace-dir") {
        opt.trace_dir = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (opt.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");

    Report report;
    Outcome outcome;
    if (opt.workload == "serve_cold" || opt.workload == "serve_hot")
      outcome = run_wire(opt, report);
    else if (opt.workload == "churn")
      outcome = run_churn(opt, report);
    else
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    const bool correct = outcome.failed == 0 && outcome.attempted > 0;
    report.print(correct, outcome.attempted, outcome.failed);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
