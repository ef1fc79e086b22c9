// Ablation — detection latency: in-line checking (modified BGP) versus the
// Section 4.2 off-line monitoring process that "periodically downloads the
// BGP routing messages and checks the MOAS List consistency from multiple
// peers". The off-line path needs no router changes but pays the scan
// period in time-to-alarm.
#include <iostream>

#include "bench_util.h"
#include "moas/core/monitor.h"
#include "moas/topo/route_views.h"
#include "moas/util/stats.h"
#include "moas/util/strings.h"

using namespace moas;
using namespace moas::bench;

namespace {

struct LatencySample {
  bool detected = false;
  double latency = 0.0;
};

/// One attack; returns the time from attack launch to the first alarm.
LatencySample run_once(const topo::AsGraph& graph, bool inline_detection,
                       double scan_period, std::uint64_t seed) {
  util::Rng rng(seed);
  bgp::Network network;
  for (bgp::Asn asn : graph.nodes()) network.add_router(asn);
  for (const auto& edge : graph.edges()) network.connect(edge.a, edge.b, edge.rel_of_b);

  const std::vector<bgp::Asn> stubs = graph.stubs();
  const bgp::Asn origin = stubs[rng.index(stubs.size())];
  const net::Prefix victim = topo::prefix_for_asn(origin);

  auto truth = std::make_shared<core::PrefixOriginDb>();
  truth->set(victim, {origin});
  auto resolver = std::make_shared<core::OracleResolver>(truth);
  auto alarms = std::make_shared<core::AlarmLog>();
  if (inline_detection) {
    for (bgp::Asn asn : graph.nodes()) {
      network.router(asn).set_validator(
          std::make_shared<core::MoasDetector>(alarms, resolver));
    }
  }

  network.router(origin).originate(victim);
  network.run_to_quiescence();

  // The fault strikes a converged network at a known instant.
  bgp::Asn attacker;
  do {
    const auto nodes = graph.nodes();
    attacker = nodes[rng.index(nodes.size())];
  } while (attacker == origin);
  const double attack_time = network.clock().now();
  core::AttackPlan plan;
  plan.attacker = attacker;
  plan.target = victim;
  plan.valid_origins = {origin};
  core::launch_attack(network, plan);

  LatencySample sample;
  if (inline_detection) {
    network.run_to_quiescence();
    if (!alarms->empty()) {
      sample.detected = true;
      double first = alarms->alarms().front().at;
      for (const auto& alarm : alarms->alarms()) first = std::min(first, alarm.at);
      sample.latency = first - attack_time;
    }
    return sample;
  }

  // Off-line monitor: vantages are the five best-connected ASes (a
  // RouteViews-like peer set); scan every `scan_period` seconds.
  std::vector<bgp::Asn> vantages = graph.nodes();
  std::sort(vantages.begin(), vantages.end(), [&](bgp::Asn a, bgp::Asn b) {
    return graph.degree(a) > graph.degree(b);
  });
  vantages.resize(5);
  core::MoasMonitor monitor(vantages);

  // The first scan happens at a uniformly random phase of the period.
  double scan_at = attack_time + rng.uniform01() * scan_period;
  for (int scan = 0; scan < 400; ++scan) {
    network.clock().run_until(scan_at);
    if (!monitor.scan(network).empty()) {
      sample.detected = true;
      sample.latency = scan_at - attack_time;
      return sample;
    }
    scan_at += scan_period;
  }
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = bench_jobs(argc, argv);
  const topo::AsGraph& graph = paper_topology(460);

  std::cout << "=== Ablation: time-to-alarm, in-line checking vs off-line monitor ===\n";
  std::cout << "(single random attacker against a converged 460-AS network; 25 trials "
               "per row; monitor watches the 5 best-connected ASes)\n\n";

  util::TablePrinter table(
      {"mechanism", "detection_rate", "median_latency_s", "p95_latency_s"});
  auto add_row = [&](const std::string& label, bool inline_detection, double period) {
    // Trials carry explicit per-trial seeds, so they run across the pool;
    // the reduction walks trial order to keep the row deterministic.
    constexpr std::size_t kTrials = 25;
    std::vector<LatencySample> samples(kTrials);
    util::ThreadPool pool(jobs);
    pool.parallel_for(kTrials, [&](std::size_t trial) {
      samples[trial] =
          run_once(graph, inline_detection, period, 1000 + static_cast<std::uint64_t>(trial));
    });
    std::vector<double> latencies;
    int detected = 0;
    for (const LatencySample& sample : samples) {
      if (sample.detected) {
        ++detected;
        latencies.push_back(sample.latency);
      }
    }
    table.add_row(
        {label, util::fmt_double(detected * 100.0 / static_cast<double>(kTrials), 0) + "%",
         latencies.empty() ? "-" : util::fmt_double(util::median(latencies), 2),
         latencies.empty() ? "-" : util::fmt_double(util::percentile(latencies, 95), 2)});
  };

  add_row("in-line MOAS checking", true, 0.0);
  add_row("off-line monitor, 30s scans", false, 30.0);
  add_row("off-line monitor, 5min scans", false, 300.0);
  add_row("off-line monitor, daily scans", false, 86400.0);
  table.print(std::cout);
  std::cout << "\nin-line checking alarms within one propagation delay; the off-line "
               "monitor trades router changes for its scan period (the paper's daily "
               "RouteViews dumps put it in the last row).\n";
  return 0;
}
