// Figure 10 — Experiment 2: effect of topology size (250 vs 460 vs 630
// ASes). Two panels: (a) one origin AS, (b) two origin ASes; six curves
// each (Normal BGP and Full MOAS Detection per topology).
//
// Paper observations: (1) without detection the three topologies behave
// similarly; (2) with detection, the larger topology is markedly more
// robust (e.g. ~7.8% vs ~31.2% adoption at ~35% attackers for 630 vs 250).
//
// --extended continues the curves past the paper's sizes (2000 / 5000 /
// 9000 ASes, sampled from the ~9.8k-AS shared internet) under the
// rank-ordered wave engine — the event engine's
// timed message load at those sizes is the very wall DESIGN.md §10/§13
// describe. Wave runs are timeless (mrai 0, no route-age preference), so
// every size in extended mode uses the wave engine for comparability.
// Not part of CI; run it to regenerate the extended-figure rows in
// EXPERIMENTS.md.
#include <string>

#include "bench_util.h"

using namespace moas;
using namespace moas::bench;

int main(int argc, char** argv) {
  const std::size_t jobs = bench_jobs(argc, argv);
  bool extended = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--extended") extended = true;
  }
  std::vector<std::size_t> sizes{250, 460, 630};
  if (extended) sizes.insert(sizes.end(), {2000, 5000, 9000});

  for (std::size_t origins : {std::size_t{1}, std::size_t{2}}) {
    std::vector<CurveSpec> specs;
    for (std::size_t size : sizes) {
      core::ExperimentConfig config;
      config.num_origins = origins;
      config.deployment = core::Deployment::None;
      if (extended) {
        config.engine = core::Engine::Wave;
        config.mrai = 0.0;
        config.prefer_established = false;
      }
      specs.push_back(CurveSpec{std::to_string(size) + "as_normal", &paper_topology(size),
                                config, size * 10 + origins, 10});
    }
    for (std::size_t size : sizes) {
      core::ExperimentConfig config;
      config.num_origins = origins;
      config.deployment = core::Deployment::Full;
      if (extended) {
        config.engine = core::Engine::Wave;
        config.mrai = 0.0;
        config.prefer_established = false;
      }
      specs.push_back(CurveSpec{std::to_string(size) + "as_full", &paper_topology(size),
                                config, size * 10 + origins, 10});
    }
    print_report("Figure 10(" + std::string(origins == 1 ? "a" : "b") + "): topology size "
                     "comparison, " + std::to_string(origins) + " origin AS" +
                     (origins > 1 ? "es" : "") +
                     (extended ? " [extended sizes, wave engine]" : ""),
                 "paper: the three normal-BGP curves bunch together at the top; with "
                 "detection, larger topologies are more robust",
                 run_curves(specs, jobs));
  }
  return 0;
}
