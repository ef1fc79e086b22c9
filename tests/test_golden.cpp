// Paper-number golden gate. Every case renders a fixed, seeded scenario
// matrix as text and compares it byte for byte against a checked-in
// expected file under tests/golden/:
//   - Experiment sweeps under both engines (mrai 0, prefer_established
//     off), crossed over deployment × resolver × attacker strategy ×
//     origin count × converge_before_attack. Each run prints every
//     deterministic RunResult field (false_alarms pinned explicitly), its
//     churn, error-handling and cache counters read from its registry, and
//     a digest of its converged Loc-RIBs; each point prints its SweepPoint
//     summary at %.17g plus its merged metrics manifest.
//   - An event sweep under churn (flaps, resets, crashes, lossy links,
//     attribute corruption; graceful restart, resolver cache, invariant
//     audit), once with strict RFC 4271 and once with RFC 7606 error
//     handling: every run, its fault log and invariant report, and the
//     point summary.
//   - The figure benches' curves at a small budget, under their default
//     config (MRAI 30 s, prefer_established, Summary trace): fig9's
//     None vs Full on the 460-AS sample with one and two origins, fig10's
//     250/630-AS curves and fig11's half-deployment curve.
//   - run_multi_prefix on 630 ASes × 16 prefixes under Full and Partial.
//   - The generated Internets (the 9,752-AS default config and the
//     20,200-AS scale config) and the paper's 250/460/630-AS samples: node
//     and edge counts and an FNV-1a hash over every (ASN, kind) and every
//     edge triple.
//   - micro_rib_footprint --smoke's run_multi_prefix on the 630-AS paper
//     sample (64 prefixes): its RIB, Loc-RIB, alarm and outcome counts.
//   - The default-calibrated Section 3 trace through MoasObserver: every
//     TraceSummary field, the Fig 4 daily counts and the Fig 5 duration
//     histogram.
//   - A 60-day stream replay with churn, planned attacks and a FaultyFeed:
//     the alarm log, the metrics manifest, the false-alarm count and every
//     AttackOutcome; and the same replay's checkpoint images, by day, size
//     and checksum.
// The determinism and event-vs-wave tests compare the program with
// itself; these files pin it against recorded numbers, so a shift in draw
// order, a tie-break, an interning detail or alarm classification fails
// here even when it moves both engines alike.
//
// Regenerate the expected files only with tests/golden/regen.sh (it sets
// MOAS_GOLDEN_UPDATE=1), so every drift lands as a reviewed diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "moas/bgp/network.h"
#include "moas/core/experiment.h"
#include "moas/core/multi_prefix.h"
#include "moas/measure/observer.h"
#include "moas/measure/trace_gen.h"
#include "moas/stream/detector.h"
#include "moas/stream/feed.h"
#include "moas/stream/replay.h"
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
  const obs::MetricsRegistry& m = r.metrics;
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
     << " stale_retained=" << m.counter("router.stale_retained")
     << " stale_swept=" << m.counter("router.stale_swept")
     << " routes_withdrawn=" << m.counter("router.routes_withdrawn")
     << " error_withdraws=" << m.counter("router.error_withdraws") << '\n'
     << "    attr_corruptions=" << m.counter("chaos.attr_corruptions_applied")
     << " corrupt_session_resets=" << m.counter("chaos.corrupt_session_resets")
     << " treat_as_withdraws=" << m.counter("chaos.treat_as_withdraws")
     << " attr_discards=" << m.counter("chaos.attr_discards")
     << " poisoned_blocked=" << m.counter("chaos.poisoned_blocked")
     << " fault_events=" << r.fault_events << " message_faults="
     << m.counter("chaos.msgs_dropped") + m.counter("chaos.msgs_reordered") +
            m.counter("chaos.attr_corruptions_applied")
     << '\n'
     << "    resolver_queries=" << r.resolver_queries << " resolver_cache_hits="
     << m.counter("resolver.cache_hits") + m.counter("resolver.cache_negative_hits")
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

/// One curve of a figure bench at a small budget: the benches' default
/// config (MRAI 30 s, prefer_established, Summary trace) and sweep seed,
/// with 3 attacker fractions x 2 origin sets x 2 attacker sets.
struct FigureCurve {
  std::string label;
  std::size_t size;
  std::size_t num_origins;
  Deployment deployment;
  std::uint64_t seed;
};

void check_figure(const std::string& name, const std::vector<FigureCurve>& curves) {
  util::ThreadPool pool(2);
  std::ostringstream os;
  for (const FigureCurve& curve : curves) {
    ExperimentConfig config;
    config.num_origins = curve.num_origins;
    config.deployment = curve.deployment;
    config.trace_level = obs::TraceLevel::Summary;
    config.keep_final_ribs = true;
    const Experiment experiment(bench::paper_topology(curve.size), config);
    util::Rng rng(curve.seed);
    const SweepPlan plan = experiment.plan_sweep({0.04, 0.15, 0.30}, 2, 2, rng);
    os << "curve " << curve.label << " size=" << curve.size
       << " origins=" << curve.num_origins << " seed=" << curve.seed << '\n';
    const std::vector<RunResult> results = experiment.execute_plan(plan, pool);
    for (std::size_t i = 0; i < plan.runs.size(); ++i) {
      print_run(os, plan.runs[i], results[i]);
    }
    for (const SweepPoint& point : experiment.reduce_plan(plan, results)) {
      print_point(os, point);
    }
  }
  check_golden(name, os.str());
}

TEST(GoldenFigure, Fig9MatchesExpected) {
  std::vector<FigureCurve> curves;
  for (std::size_t origins : {std::size_t{1}, std::size_t{2}}) {
    curves.push_back({"normal_bgp", 460, origins, Deployment::None, 460 + origins});
    curves.push_back({"full_moas", 460, origins, Deployment::Full, 460 + origins});
  }
  check_figure("figure_fig9", curves);
}

TEST(GoldenFigure, Fig10And11MatchExpected) {
  std::vector<FigureCurve> curves;
  for (std::size_t size : {std::size_t{250}, std::size_t{630}}) {
    curves.push_back({"normal_bgp", size, 1, Deployment::None, size * 10 + 1});
    curves.push_back({"full_moas", size, 1, Deployment::Full, size * 10 + 1});
  }
  // fig11's 460-AS half-deployment curve (deployment_fraction 0.5).
  curves.push_back({"half_moas", 460, 1, Deployment::Partial, 460 + 2});
  check_figure("figure_fig10_fig11", curves);
}

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

/// FNV-1a over every node's (ASN, kind) and every (a, b, rel_of_b) edge
/// triple, in the graph's ASN-sorted order.
std::uint64_t graph_digest(const topo::AsGraph& g) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto feed = [&hash](const std::string& line) {
    for (unsigned char c : line) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  };
  for (bgp::Asn asn : g.nodes()) {
    feed(std::to_string(asn) + ' ' + topo::to_string(g.kind(asn)) + '\n');
  }
  for (const topo::AsGraph::Edge& e : g.edges()) {
    feed(std::to_string(e.a) + ' ' + std::to_string(e.b) + ' ' +
         std::to_string(static_cast<int>(e.rel_of_b)) + '\n');
  }
  return hash;
}

void print_graph(std::ostream& os, const std::string& label, const topo::AsGraph& g) {
  os << label << " nodes=" << g.node_count() << " stubs=" << g.stubs().size()
     << " edges=" << g.edge_count() << " digest=" << graph_digest(g) << '\n';
}

/// ROADMAP item 12: withdrawal path exploration (Labovitz et al., "Delayed
/// Internet Routing Convergence", SIGCOMM 2000) on the 200-AS sample. AS
/// 711 originates, the network converges, and 711 withdraws. Without MRAI
/// the ghost routes through its neighbours chase each other far past the
/// cap; MRAI batches them, and the exploration ends at a pinned message
/// count. The detector runs on the same sample then quiesce at MRAI 1 s.
TEST(GoldenPathExploration, MraiBoundsWithdrawalExploration) {
  const topo::AsGraph& graph = sampled(200);
  ASSERT_EQ(graph.edge_count(), 444u);
  // Plain BGP: no detector, no attacker. Network seed 7 is the one the
  // quoted count was first measured with.
  const auto withdrawal_messages = [&](const double mrai) -> std::optional<std::uint64_t> {
    bgp::Network::Config net_config;
    net_config.seed = 7;
    bgp::Network network(net_config);
    for (const bgp::Asn asn : graph.nodes()) network.add_router(asn);
    for (const auto& edge : graph.edges()) network.connect(edge.a, edge.b, edge.rel_of_b);
    for (const bgp::Asn asn : graph.nodes()) {
      if (mrai > 0.0) network.router(asn).set_mrai(mrai);
      network.router(asn).set_prefer_established(false);
    }
    const net::Prefix prefix(net::Ipv4Addr(10, 0, 0, 0), 16);
    network.router(711).originate(prefix);
    EXPECT_TRUE(network.run_to_quiescence(100'000)) << "origination, mrai=" << mrai;
    const std::uint64_t before = network.messages_sent();
    network.router(711).withdraw_origination(prefix);
    if (!network.run_to_quiescence(200'000)) return std::nullopt;
    return network.messages_sent() - before;
  };
  EXPECT_EQ(withdrawal_messages(0.0), std::nullopt) << "MRAI 0 quiesced within 200k events";
  EXPECT_EQ(withdrawal_messages(1.0), std::optional<std::uint64_t>(44'478));

  // The detector runs of the sweep recipe, under full, partial and no
  // deployment: each phase must quiesce within 100k events.
  util::ThreadPool pool(1);
  for (const Deployment deployment : {Deployment::Full, Deployment::Partial, Deployment::None}) {
    ExperimentConfig config;
    config.mrai = 1.0;
    config.prefer_established = false;
    config.deployment = deployment;
    config.converge_before_attack = true;
    config.max_events = 100'000;
    const Experiment experiment(graph, config);
    util::Rng rng(9001);
    const SweepPlan plan = experiment.plan_sweep({0.02, 0.1}, 2, 2, rng);
    ASSERT_EQ(plan.runs.size(), 8u);
    for (const RunResult& result : experiment.execute_plan(plan, pool)) {
      EXPECT_TRUE(result.quiesced) << to_string(deployment);
    }
  }
}

TEST(GoldenTopology, MatchesExpected) {
  std::ostringstream os;
  print_graph(os, "internet_default", bench::shared_internet());
  topo::InternetConfig scale;
  scale.tier1 = 12;
  scale.tier2 = 288;
  scale.tier3 = 700;
  scale.stubs = 19'200;
  scale.first_asn = 60'000;
  util::Rng rng(0xf00d);
  print_graph(os, "internet_scale", topo::generate_internet(scale, rng));
  for (std::size_t size : {250, 460, 630}) {
    print_graph(os, "paper_sample_" + std::to_string(size), bench::paper_topology(size));
  }
  check_golden("topology", os.str());
}

TEST(GoldenRibSmoke, MatchesExpected) {
  // micro_rib_footprint --smoke's run. Counts only: run_multi_prefix
  // interns into the process arena, so its byte figures depend on what ran
  // before it in the process.
  MultiPrefixConfig config;
  config.num_prefixes = 64;
  config.block_size = 16;
  config.attacked_fraction = 0.5;
  config.origins_per_prefix = 2;
  config.seed = 0x51b5;
  const MultiPrefixResult r = run_multi_prefix(bench::paper_topology(630), config);
  std::ostringstream os;
  os << "rib_smoke prefixes=" << r.prefixes << " attacked=" << r.attacked
     << " blocks=" << r.blocks << '\n'
     << "  rib_entries=" << r.rib_entries << " loc_rib_routes=" << r.routes_installed << '\n'
     << "  alarms=" << r.alarms << " false_alarms=" << r.false_alarms << '\n'
     << "  adopted_false=" << r.adopted_false << " adopted_valid=" << r.adopted_valid
     << " no_route=" << r.no_route << '\n';
  check_golden("rib_smoke", os.str());
}

void check_churn(bool revised_error_handling) {
  // ablation_churn's moderate regime plus its corruption arm, in one
  // schedule: flaps, session resets, crashes, lossy links and scheduled
  // attribute corruption, with graceful restart and a resolver cache on.
  chaos::ScheduleConfig churn;
  churn.seed = 0xc0ffee;
  churn.horizon = 120.0;
  churn.flaps_per_link = 0.2;
  churn.downtime_mean = 4.0;
  churn.session_resets_per_link = 0.1;
  churn.crashes_per_router = 0.05;
  churn.restart_delay_mean = 8.0;
  churn.msg_drop = 0.005;
  churn.msg_reorder = 0.005;
  churn.attr_corruptions_per_link = 0.1;

  ExperimentConfig config;
  config.churn = churn;
  config.graceful_restart = true;
  config.gr_restart_time = 30.0;
  config.revised_error_handling = revised_error_handling;
  config.resolver_cache_ttl = 30.0;
  config.check_invariants = true;
  config.trace_level = obs::TraceLevel::Summary;
  config.keep_final_ribs = true;
  config.max_events = kMaxEvents;
  const Experiment experiment(sampled(kSweepTopologySize), config);
  util::Rng rng(42);
  const SweepPlan plan = experiment.plan_sweep({0.05}, 2, 2, rng);
  util::ThreadPool pool(1);
  const std::vector<RunResult> results = experiment.execute_plan(plan, pool);
  std::ostringstream os;
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    print_run(os, plan.runs[i], results[i]);
    os << "    fault_log\n" << results[i].fault_log << "    invariant_report "
       << results[i].invariant_report.size() << '\n';
    for (const std::string& violation : results[i].invariant_report) {
      os << "      " << violation << '\n';
    }
  }
  for (const SweepPoint& point : experiment.reduce_plan(plan, results)) {
    print_point(os, point);
  }
  check_golden(revised_error_handling ? "churn_revised" : "churn_strict", os.str());
}

TEST(GoldenChurn, StrictErrorHandlingMatchesExpected) { check_churn(false); }

TEST(GoldenChurn, RevisedErrorHandlingMatchesExpected) { check_churn(true); }

TEST(GoldenTrace, MatchesExpected) {
  // The trace sec3_moas_stats, fig4_moas_timeseries and
  // fig5_duration_histogram measure.
  util::Rng rng(1997);
  const measure::SyntheticTrace trace = measure::generate_trace(measure::TraceConfig{}, rng);
  measure::MoasObserver observer;
  observer.ingest_all(trace);
  const measure::TraceSummary s = observer.summarize();
  std::ostringstream os;
  os << "summary total_cases=" << s.total_cases << " one_day_cases=" << s.one_day_cases
     << " one_day_fraction=" << num(s.one_day_fraction)
     << " one_day_spike_share=" << num(s.one_day_spike_share)
     << " spike_day=" << s.spike_day << '\n'
     << "  two_origin_fraction=" << num(s.two_origin_fraction)
     << " three_origin_fraction=" << num(s.three_origin_fraction) << '\n'
     << "  max_daily_count=" << s.max_daily_count
     << " max_daily_count_day=" << s.max_daily_count_day
     << " median_daily_1998=" << num(s.median_daily_1998)
     << " median_daily_2001=" << num(s.median_daily_2001) << '\n';
  const std::vector<std::size_t>& daily = observer.daily_counts();
  os << "daily_counts days=" << daily.size() << '\n';
  for (std::size_t day = 0; day < daily.size(); ++day) {
    os << "  " << day << ' ' << daily[day] << '\n';
  }
  const util::Histogram durations = observer.duration_histogram();
  os << "duration_histogram total=" << durations.total() << '\n';
  for (const auto& [days, cases] : durations.bins()) {
    os << "  " << days << ' ' << cases << '\n';
  }
  check_golden("trace_sec3", os.str());
}

/// The faulted scenario of stream_replay --smoke, on one worker.
struct FaultedStream {
  measure::SyntheticTrace trace;
  std::vector<stream::AttackPlan> plans;
  std::vector<stream::OriginOverride> overrides;
  chaos::FeedFaultSchedule faults;
  stream::StreamConfig config;
};

FaultedStream faulted_stream() {
  FaultedStream s;
  measure::TraceConfig trace_config;
  trace_config.days = 60;
  trace_config.active_start = 40;
  trace_config.active_end = 50;
  trace_config.faults_per_day = 5.0;
  trace_config.include_spike_1998 = false;
  trace_config.include_spike_2001 = false;
  util::Rng rng(trace_config.days);
  s.trace = measure::generate_trace(trace_config, rng);

  stream::ChurnConfig churn_config;
  churn_config.seed = 11;
  churn_config.share = 0.1;
  churn_config.min_active_days = 30;
  const std::vector<stream::OriginOverride> churn = stream::plan_churn(s.trace, churn_config);
  stream::AttackConfig attack_config;
  attack_config.seed = 13;
  attack_config.attacks = 4;
  s.plans = stream::plan_attacks(s.trace, attack_config, churn);
  s.overrides = churn;
  for (const stream::AttackPlan& p : s.plans) s.overrides.push_back(p.inject);

  chaos::FeedFaultConfig fault_config;
  fault_config.seed = 97;
  fault_config.horizon_days = s.trace.days;
  fault_config.gaps = 2.0;
  fault_config.gap_mean_days = 2.0;
  fault_config.duplicate_prob = 0.01;
  fault_config.reorder_prob = 0.02;
  fault_config.reorder_max_skew = 8;
  fault_config.garble_prob = 0.005;
  s.faults = chaos::compile_feed_faults(fault_config);

  s.config.shards = 8;
  s.config.jobs = 1;
  s.config.flush_margin = 16;
  s.config.shard.alarm_retention = 512;
  s.config.shard.memory_budget_bytes = 128 * 1024;
  s.config.shard.evict_idle_days = 30;
  return s;
}

TEST(GoldenStream, MatchesExpected) {
  const FaultedStream s = faulted_stream();
  const std::vector<stream::AttackPlan>& plans = s.plans;
  stream::TraceReplaySource source(s.trace, s.overrides);
  stream::FaultyFeed feed(source, s.faults);
  stream::StreamDetector detector(s.config);
  detector.run(feed);

  // A false alarm is one no planned attack explains: the churn stressor.
  const std::vector<core::MoasAlarm> alarms = detector.merged_alarms();
  std::size_t false_alarms = 0;
  for (const core::MoasAlarm& alarm : alarms) {
    const bool attack = std::any_of(plans.begin(), plans.end(), [&](const auto& p) {
      return p.inject.prefix == alarm.prefix &&
             alarm.offending_origins.contains(p.inject.add_origin);
    });
    if (!attack) ++false_alarms;
  }
  std::ostringstream os;
  os << "alarm_log\n" << detector.alarm_log_text() << "metrics\n"
     << detector.metrics().to_json() << '\n'
     << "alarms=" << alarms.size() << " false_alarms=" << false_alarms << '\n';
  for (const stream::AttackOutcome& o : stream::evaluate_attacks(plans, alarms, &s.faults)) {
    const stream::OriginOverride& inject = o.plan.inject;
    os << "attack prefix=" << inject.prefix.to_string() << " add_origin=" << inject.add_origin
       << " days=" << inject.first_day << ".." << inject.last_day
       << " injected_at=" << num(o.plan.injected_at) << '\n'
       << "  observable=" << o.observable << " alarmed=" << o.alarmed
       << " first_alarm_at=" << num(o.first_alarm_at)
       << " latency_days=" << num(o.latency_days)
       << " final_state=" << core::to_string(o.final_state)
       << " all_settled=" << o.all_settled << '\n';
  }
  check_golden("stream_faulted", os.str());
}

TEST(GoldenStreamCheckpoint, MatchesExpected) {
  // The same faulted scenario with a checkpoint every 10 flushed days:
  // each image's day, size in bytes and checksum trailer.
  FaultedStream s = faulted_stream();
  s.config.checkpoint_every_days = 10;
  stream::TraceReplaySource source(s.trace, s.overrides);
  stream::FaultyFeed feed(source, s.faults);
  stream::StreamDetector detector(s.config);
  std::ostringstream os;
  detector.run(feed, [&](const stream::StreamDetector& d, int day) {
    std::ostringstream image;
    d.save_checkpoint(image);
    const std::string text = image.str();
    const std::size_t trailer = text.rfind("checksum ");
    ASSERT_NE(trailer, std::string::npos);
    os << "day=" << day << " bytes=" << text.size() << ' ' << text.substr(trailer);
  });
  check_golden("stream_checkpoints", os.str());
}

}  // namespace
}  // namespace moas::core
