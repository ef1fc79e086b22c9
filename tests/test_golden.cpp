// Paper-number golden gate. Every case renders a fixed, seeded scenario
// matrix as text and compares it byte for byte against a checked-in
// expected file under tests/golden/:
//   - Experiment sweeps under both engines (mrai 0, prefer_established
//     off), crossed over deployment × resolver × attacker strategy ×
//     origin count × converge_before_attack. Each run prints every
//     deterministic RunResult field (false_alarms pinned explicitly) and a
//     digest of its converged Loc-RIBs; each point prints its SweepPoint
//     summary at %.17g plus its merged metrics manifest.
//   - run_multi_prefix on 630 ASes × 16 prefixes under Full and Partial.
// The determinism and event-vs-wave tests compare the program with
// itself; these files pin it against recorded numbers, so a shift in draw
// order, a tie-break, an interning detail or alarm classification fails
// here even when it moves both engines alike.
//
// Regenerate the expected files only with tests/golden/regen.sh (it sets
// MOAS_GOLDEN_UPDATE=1), so every drift lands as a reviewed diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "moas/core/experiment.h"
#include "moas/core/multi_prefix.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/sampler.h"
#include "moas/util/thread_pool.h"

namespace moas::core {
namespace {

const topo::AsGraph& parent_internet() {
  static const topo::AsGraph graph = [] {
    util::Rng rng(2002);
    topo::InternetConfig config;
    config.tier1 = 8;
    config.tier2 = 48;
    config.tier3 = 90;
    config.stubs = 1800;
    return topo::generate_internet(config, rng);
  }();
  return graph;
}

const topo::AsGraph& sampled(std::size_t size) {
  static std::map<std::size_t, topo::AsGraph> cache;
  auto it = cache.find(size);
  if (it == cache.end()) {
    util::Rng rng(size * 31 + 3);
    it = cache.emplace(size, topo::sample_to_size(parent_internet(), size, rng, 0.10)).first;
  }
  return it->second;
}

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string asns(const bgp::AsnSet& set) {
  std::string out = "{";
  for (bgp::Asn asn : set) {
    if (out.size() > 1) out += ',';
    out += std::to_string(asn);
  }
  return out + "}";
}

/// FNV-1a over every converged Loc-RIB entry: holder, full route text,
/// LOCAL_PREF, MED, origin code and learned-from neighbor.
std::uint64_t rib_digest(const std::vector<FinalRoute>& ribs) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const FinalRoute& r : ribs) {
    const bgp::PathAttributes& a = r.entry.route.attrs;
    const std::string line =
        std::to_string(r.asn) + ' ' + r.entry.route.to_string() + ' ' +
        std::to_string(a.local_pref) + ' ' + std::to_string(a.med) + ' ' +
        std::to_string(static_cast<int>(a.origin_code)) + ' ' +
        std::to_string(r.entry.learned_from) + '\n';
    for (unsigned char c : line) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

void print_run(std::ostream& os, const PlannedRun& plan, const RunResult& r) {
  os << "  run point=" << plan.point << " seed=" << plan.seed
     << " origins=" << asns(r.origin_set) << " attackers=" << asns(r.attacker_set) << '\n'
     << "    total_ases=" << r.total_ases << " attackers=" << r.attackers
     << " population=" << r.population << " adopted_false=" << r.adopted_false
     << " adopted_valid=" << r.adopted_valid << " no_route=" << r.no_route << '\n'
     << "    alarms=" << r.alarms << " false_alarms=" << r.false_alarms
     << " pending=" << r.alarms_pending << " resolved=" << r.alarms_resolved
     << " expired=" << r.alarms_expired << " rejections=" << r.rejections << '\n'
     << "    messages=" << r.messages << " quiesced=" << r.quiesced
     << " withdrawals=" << r.withdrawals << " announcements=" << r.announcements
     << " stale_retained=" << r.stale_retained << " stale_swept=" << r.stale_swept
     << " routes_withdrawn=" << r.routes_withdrawn
     << " error_withdraws=" << r.error_withdraws << '\n'
     << "    attr_corruptions=" << r.attr_corruptions
     << " corrupt_session_resets=" << r.corrupt_session_resets
     << " treat_as_withdraws=" << r.treat_as_withdraws
     << " attr_discards=" << r.attr_discards << " poisoned_blocked=" << r.poisoned_blocked
     << " fault_events=" << r.fault_events << " message_faults=" << r.message_faults << '\n'
     << "    resolver_queries=" << r.resolver_queries
     << " resolver_cache_hits=" << r.resolver_cache_hits
     << " structural_cutoff=" << num(r.structural_cutoff) << '\n'
     << "    attack_injected_at=" << num(r.attack_injected_at)
     << " first_alarm_latency=" << num(r.first_alarm_latency)
     << " eviction_latency=" << num(r.eviction_latency)
     << " false_route_stuck=" << r.false_route_stuck << '\n'
     << "    final_ribs=" << r.final_ribs.size() << " digest=" << rib_digest(r.final_ribs)
     << '\n';
}

void print_point(std::ostream& os, const SweepPoint& p) {
  os << "  point attacker_fraction=" << num(p.attacker_fraction) << " runs=" << p.runs
     << '\n'
     << "    mean_adopted_false=" << num(p.mean_adopted_false)
     << " stddev_adopted_false=" << num(p.stddev_adopted_false) << '\n'
     << "    mean_affected=" << num(p.mean_affected)
     << " mean_no_route=" << num(p.mean_no_route) << '\n'
     << "    mean_alarms=" << num(p.mean_alarms)
     << " mean_false_alarms=" << num(p.mean_false_alarms) << '\n'
     << "    mean_structural_cutoff=" << num(p.mean_structural_cutoff)
     << " runs_false_route_stuck=" << p.runs_false_route_stuck << '\n'
     << "    metrics=" << p.metrics.to_json() << '\n';
}

void print_multi_prefix(std::ostream& os, const MultiPrefixResult& r) {
  // Every field but propagation_seconds, which is wall-clock time.
  os << "  prefixes=" << r.prefixes << " attacked=" << r.attacked << " blocks=" << r.blocks
     << '\n'
     << "  alarms=" << r.alarms << " false_alarms=" << r.false_alarms << '\n'
     << "  adopted_false=" << r.adopted_false << " adopted_valid=" << r.adopted_valid
     << " no_route=" << r.no_route
     << " adopted_false_fraction=" << num(r.adopted_false_fraction()) << '\n'
     << "  routes_installed=" << r.routes_installed << " rib_entries=" << r.rib_entries
     << '\n'
     << "  rib_bytes=" << r.rib_bytes << " baseline_rib_bytes=" << r.baseline_rib_bytes
     << '\n';
}

/// Compare `actual` with tests/golden/<name>.txt, or rewrite the file when
/// MOAS_GOLDEN_UPDATE is set. A mismatch reports the first differing line.
void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(MOAS_GOLDEN_DIR) + "/" + name + ".txt";
  const char* update = std::getenv("MOAS_GOLDEN_UPDATE");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing expected file " << path << " (run tests/golden/regen.sh)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  if (expected == actual) return;
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string el;
  std::string al;
  for (std::size_t line = 1;; ++line) {
    const bool more_e = static_cast<bool>(std::getline(e, el));
    const bool more_a = static_cast<bool>(std::getline(a, al));
    if (!more_e && !more_a) break;
    if (more_e != more_a || el != al) {
      FAIL() << path << " differs at line " << line << "\n  expected: "
             << (more_e ? el : "<end of file>") << "\n  actual:   "
             << (more_a ? al : "<end of output>");
    }
  }
  FAIL() << path << " differs";
}

using SweepCase = std::tuple<Engine, Deployment, ResolverKind>;

const char* resolver_name(ResolverKind kind) {
  switch (kind) {
    case ResolverKind::Oracle: return "oracle";
    case ResolverKind::Dns: return "dns";
    case ResolverKind::Irr: return "irr";
    case ResolverKind::None: return "none";
  }
  return "?";
}

const char* deployment_name(Deployment deployment) {
  switch (deployment) {
    case Deployment::Full: return "full";
    case Deployment::Partial: return "partial";
    case Deployment::None: return "none";
  }
  return "?";
}

std::string case_name(const SweepCase& c) {
  return std::string(to_string(std::get<0>(c))) + "_" + deployment_name(std::get<1>(c)) +
         "_" + resolver_name(std::get<2>(c));
}

constexpr std::size_t kMaxEvents = 2'000'000;
constexpr std::size_t kSweepTopologySize = 120;

class GoldenSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GoldenSweep, MatchesExpected) {
  const auto [engine, deployment, resolver] = GetParam();
  const topo::AsGraph& graph = sampled(kSweepTopologySize);
  util::ThreadPool pool(1);
  std::ostringstream os;
  std::uint64_t sub_case = 0;
  for (AttackerStrategy strategy :
       {AttackerStrategy::OwnList, AttackerStrategy::SubPrefixHijack}) {
    for (std::size_t num_origins : {std::size_t{1}, std::size_t{2}}) {
      for (bool converge : {false, true}) {
        ExperimentConfig config;
        config.engine = engine;
        config.mrai = 0.0;
        config.prefer_established = false;
        config.deployment = deployment;
        if (deployment == Deployment::Partial) {
          config.deployment_fraction = 0.5;
          config.strip_fraction = 0.1;
        }
        config.resolver = resolver;
        if (resolver == ResolverKind::Dns) {
          config.dns_unavailability = 0.1;
          config.dns_forgery = 0.1;
        } else if (resolver == ResolverKind::Irr) {
          config.irr_staleness = 0.2;
        }
        config.strategy = strategy;
        config.num_origins = num_origins;
        config.converge_before_attack = converge;
        config.keep_final_ribs = true;
        // MRAI 0 lets event runs on larger samples explore paths for tens of
        // millions of events; the cap turns such a storm into a quick failure.
        config.max_events = kMaxEvents;
        const Experiment experiment(graph, config);
        // The plan seed depends only on the sub-case, so every engine,
        // deployment and resolver replays the same placements.
        util::Rng rng(9000 + sub_case++);
        const SweepPlan plan = experiment.plan_sweep({0.02, 0.1}, 2, 2, rng);
        os << "sweep strategy=" << to_string(strategy) << " origins=" << num_origins
           << " converge_before_attack=" << converge << '\n';
        const std::vector<RunResult> results = experiment.execute_plan(plan, pool);
        for (std::size_t i = 0; i < plan.runs.size(); ++i) {
          print_run(os, plan.runs[i], results[i]);
        }
        for (const SweepPoint& point : experiment.reduce_plan(plan, results)) {
          print_point(os, point);
        }
      }
    }
  }
  check_golden("sweep_" + case_name(GetParam()), os.str());
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GoldenSweep,
    ::testing::Combine(::testing::Values(Engine::Event, Engine::Wave),
                       ::testing::Values(Deployment::Full, Deployment::Partial,
                                         Deployment::None),
                       ::testing::Values(ResolverKind::Oracle, ResolverKind::Dns,
                                         ResolverKind::Irr)),
    [](const ::testing::TestParamInfo<SweepCase>& info) { return case_name(info.param); });

void check_multi_prefix(Deployment deployment) {
  std::ostringstream os;
  for (AttackerStrategy strategy :
       {AttackerStrategy::OwnList, AttackerStrategy::SubPrefixHijack}) {
    MultiPrefixConfig config;
    config.num_prefixes = 16;
    config.block_size = 4;
    config.origins_per_prefix = 2;
    config.attacked_fraction = 0.75;
    config.strategy = strategy;
    config.deployment = deployment;
    config.deployment_fraction = 0.5;
    config.seed = 0x90de;
    os << "multi_prefix strategy=" << to_string(strategy) << '\n';
    print_multi_prefix(os, run_multi_prefix(sampled(630), config));
  }
  check_golden(std::string("multi_prefix_") + deployment_name(deployment), os.str());
}

TEST(GoldenMultiPrefix, FullDeploymentMatchesExpected) { check_multi_prefix(Deployment::Full); }

TEST(GoldenMultiPrefix, PartialDeploymentMatchesExpected) {
  check_multi_prefix(Deployment::Partial);
}

}  // namespace
}  // namespace moas::core
