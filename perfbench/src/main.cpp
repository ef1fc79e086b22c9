// moas_perfbench: one cold pass of one benchmark workload per process.
//
//   moas_perfbench --workload NAME [--seed N] [--trace 0|1] [--spans-out PATH]
//
// Prints gate results and notes to stderr and the pass as one JSON line on
// stdout; exits 1 if any output gate fails. perfbench/run.py runs several
// passes per benchmark run and reports their medians.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      options.traced = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  try {
    perfbench::PassReport report = [&] {
      if (options.workload == "paper_sweep") return perfbench::run_paper_sweep(options);
      if (options.workload == "internet_multiprefix") {
        return perfbench::run_internet_multiprefix(options);
      }
      if (options.workload == "stream_paper_trace") {
        return perfbench::run_stream_paper_trace(options);
      }
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }();
    report.emit();
    return report.ok() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "moas_perfbench: " << error.what() << "\n";
    return 2;
  }
}
