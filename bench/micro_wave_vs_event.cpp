// Microbenchmark — wave vs event engine: run the same single-attacker
// valid-MOAS scenarios (the paper's fig10(b) panel — two legitimate
// origins announcing one prefix, plus one hijacker) through the
// event-queue simulation and the rank-ordered wave engine, assert the
// adoption outcomes are identical run for run, and emit BENCH_wave.json
// with the per-prefix speedup. Single attacker on purpose: that is the
// regime where the two engines' converged outcomes are provably identical
// (DESIGN.md §10), so the bench doubles as a differential gate at
// full-Internet scale. The valid-MOAS pair is what makes the comparison
// sharp: three competing origins force the event engine through extended
// path hunting (every transient best-path flip re-exports), while the
// wave engine's staged sweeps deliver each peering's *final* update once
// — its delivery count stays pinned near the flood floor no matter how
// contested the prefix is.
//
// Usage:
//   micro_wave_vs_event [--smoke] [--out PATH]
//
// Full mode propagates over the ~10k-AS shared internet and FAILS unless
// the wave engine is >= 10x faster per prefix; --smoke uses the 630-AS
// paper topology and skips the speed gate (sanitizer builds distort
// timings) while keeping the outcome-identity gate. Each placement is
// timed twice per arm and the minimum propagation time kept — machine
// noise on the multi-second event arm otherwise dwarfs the gate margin.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "moas/util/strings.h"

using namespace moas;
using namespace moas::bench;

namespace {

struct Outcome {
  std::size_t population = 0;
  std::size_t adopted_false = 0;
  std::size_t adopted_valid = 0;
  std::size_t no_route = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome outcome_of(const core::RunResult& result) {
  return {result.population, result.adopted_false, result.adopted_valid, result.no_route};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_wave.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--out" && i + 1 < argc) out_path = argv[i + 1];
  }

  const topo::AsGraph& graph = smoke ? paper_topology(630) : shared_internet();
  const std::size_t runs = 3;

  core::ExperimentConfig event_config;
  // Two valid origins = the paper's legitimate-MOAS panel (fig9(b)/fig10(b));
  // with the hijacker that is three origins racing for the same prefix.
  event_config.num_origins = 2;
  event_config.deployment = core::Deployment::Full;
  event_config.resolver = core::ResolverKind::Oracle;
  // Route-age tie preference is the one knob the timeless wave engine
  // cannot express; turn it off on the event arm too so the outcomes are
  // comparable with operator== (DESIGN.md §10).
  event_config.prefer_established = false;

  core::ExperimentConfig wave_config = event_config;
  wave_config.engine = core::Engine::Wave;
  wave_config.mrai = 0.0;

  std::cout << "=== Micro: wave vs event engine (" << graph.node_count() << "-AS, "
            << runs << " single-attacker runs" << (smoke ? ", smoke" : "") << ") ===\n\n";

  const core::Experiment event(graph, event_config);
  const core::Experiment wave(graph, wave_config);

  // Placements drawn once, shared by both arms — same victim, same
  // attacker, same run seed.
  struct Placement {
    bgp::AsnSet origins;
    bgp::AsnSet attackers;
    std::uint64_t seed = 0;
  };
  util::Rng rng(19980309);
  std::vector<Placement> placements;
  for (std::size_t i = 0; i < runs; ++i) {
    Placement p;
    p.origins = event.draw_origins(rng);
    p.attackers = event.draw_attackers(1, p.origins, rng);
    p.seed = rng.next();
    placements.push_back(std::move(p));
  }

  // Both arms pay identical scenario setup (routers, detectors, scoring);
  // the engines differ only in how they drive updates to the fixpoint. The
  // per-prefix gate therefore compares RunResult::propagation_seconds — the
  // engine's queue-drain / sweep time alone — while total wall time is
  // reported alongside for context.
  struct ArmTiming {
    double wall_seconds = 0.0;
    double propagation_seconds = 0.0;
  };
  // Runs are deterministic (same placement + seed => same RunResult), so
  // repeating one is purely a timing measurement: keep the minimum
  // propagation time of `reps` runs per placement to strip scheduler noise.
  const std::size_t reps = smoke ? 1 : 2;
  auto run_arm = [&](const core::Experiment& experiment,
                     std::vector<Outcome>& outcomes) {
    ArmTiming timing;
    const auto start = std::chrono::steady_clock::now();
    for (const Placement& p : placements) {
      double best = 0.0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const core::RunResult result =
            experiment.run_with(p.origins, p.attackers, p.seed);
        if (rep == 0) {
          best = result.propagation_seconds;
          outcomes.push_back(outcome_of(result));
        } else {
          best = std::min(best, result.propagation_seconds);
        }
      }
      timing.propagation_seconds += best;
    }
    timing.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return timing;
  };

  std::vector<Outcome> event_outcomes, wave_outcomes;
  const ArmTiming event_timing = run_arm(event, event_outcomes);
  const ArmTiming wave_timing = run_arm(wave, wave_outcomes);
  const bool identical = event_outcomes == wave_outcomes;
  const double speedup = wave_timing.propagation_seconds > 0.0
                             ? event_timing.propagation_seconds / wave_timing.propagation_seconds
                             : 0.0;

  util::TablePrinter table({"engine", "wall_sec", "propagation_sec", "prop_sec_per_prefix"});
  const auto add_arm = [&](const char* name, const ArmTiming& t) {
    table.add_row({name, util::fmt_double(t.wall_seconds, 3),
                   util::fmt_double(t.propagation_seconds, 3),
                   util::fmt_double(t.propagation_seconds / static_cast<double>(runs), 4)});
  };
  add_arm("event", event_timing);
  add_arm("wave", wave_timing);
  table.print(std::cout);
  std::cout << "\npropagation speedup (event/wave): " << util::fmt_double(speedup, 2)
            << "x; outcomes identical: " << (identical ? "yes" : "NO") << "\n";

  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"micro_wave_vs_event\",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  out << "  \"topology_ases\": " << graph.node_count() << ",\n";
  out << "  \"runs\": " << runs << ",\n";
  out << "  \"event_wall_seconds\": " << json_double(event_timing.wall_seconds) << ",\n";
  out << "  \"event_propagation_seconds\": " << json_double(event_timing.propagation_seconds)
      << ",\n";
  out << "  \"wave_wall_seconds\": " << json_double(wave_timing.wall_seconds) << ",\n";
  out << "  \"wave_propagation_seconds\": " << json_double(wave_timing.propagation_seconds)
      << ",\n";
  out << "  \"propagation_speedup\": " << json_double(speedup) << ",\n";
  out << "  \"outcomes_identical\": " << (identical ? "true" : "false") << "\n";
  out << "}\n";
  out.close();
  std::cout << "wrote " << out_path << "\n";

  if (!identical) {
    std::cerr << "FAIL: event and wave adoption outcomes diverged on a "
                 "single-attacker run — the engines no longer agree\n";
    return 1;
  }
  if (!smoke && speedup < 10.0) {
    std::cerr << "FAIL: wave propagation is only " << util::fmt_double(speedup, 2)
              << "x faster than the event engine on the full internet "
                 "(gate: >= 10x per prefix)\n";
    return 1;
  }
  return 0;
}
