// internet_multiprefix: one core::run_multi_prefix call on the 20,200-AS
// generated Internet (micro_rib_footprint's full-mode topology), 32 victim
// prefixes with two origins each, a quarter of them attacked.
#include <exception>
#include <string>

#include "moas/bgp/intern.h"
#include "moas/core/multi_prefix.h"
#include "moas/topo/gen_internet.h"
#include "moas/util/rng.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

PassReport run_internet_multiprefix(const Options& options) {
  PassReport report(options);
  SpanLog spans;

  // Set-up: the fixed topology (ASNs 60,000..80,199 straddle 65,535).
  const std::int64_t setup_start = now_ns();
  const std::size_t setup_root =
      options.traced ? spans.add(spans.name_id("setup"), -1, setup_start, setup_start) : 0;
  const std::size_t generate =
      options.traced ? spans.open("topo.generate", static_cast<std::int64_t>(setup_root)) : 0;
  moas::topo::InternetConfig internet;
  internet.tier1 = 12;
  internet.tier2 = 288;
  internet.tier3 = 700;
  internet.stubs = 19'200;
  internet.first_asn = 60'000;
  moas::util::Rng topo_rng(0xf00d);
  const moas::topo::AsGraph graph = moas::topo::generate_internet(internet, topo_rng);
  if (options.traced) spans.close(generate);
  moas::core::MultiPrefixConfig workload;
  workload.num_prefixes = 32;
  workload.block_size = 16;
  workload.origins_per_prefix = 2;
  workload.attacked_fraction = 0.25;
  workload.seed = 0x51b5 + options.seed - 1;
  const std::int64_t setup_end = now_ns();
  if (options.traced) spans.at(setup_root).end_ns = setup_end;

  // Timed section: the call.
  report.timed.begin();
  const auto root = static_cast<std::int64_t>(
      options.traced ? spans.add(spans.name_id("run"), -1, report.timed.start_ns(), 0) : 0);
  const std::size_t call = options.traced ? spans.open("core.multi_prefix", root) : 0;
  moas::core::MultiPrefixResult result;
  report.attempted = 1;
  try {
    result = moas::core::run_multi_prefix(graph, workload);
  } catch (const std::exception& error) {
    ++report.failed;
    report.note(std::string("run_multi_prefix threw: ") + error.what());
  }
  if (options.traced) spans.close(call);
  report.timed.end();

  // Outputs and gates.
  const moas::bgp::intern::PoolStats pools = moas::bgp::intern::pool_stats();
  const double entries = static_cast<double>(result.rib_entries);
  const double interned_per_route =
      static_cast<double>(result.rib_bytes + pools.total_bytes()) / entries;
  const double baseline_per_route = static_cast<double>(result.baseline_rib_bytes) / entries;
  const std::size_t population = graph.node_count() - 1;
  const std::size_t tallied = result.adopted_false + result.adopted_valid + result.no_route;
  report.gate(report.failed == 0, "run_multi_prefix returned");
  report.gate(result.false_alarms == 0, std::to_string(result.false_alarms) + " false alarms");
  report.gate(result.alarms > 0, std::to_string(result.alarms) + " alarms raised");
  report.gate(interned_per_route < baseline_per_route,
              "interned " + json_number(interned_per_route) + " B/route < baseline " +
                  json_number(baseline_per_route) + " B/route");
  report.gate(tallied == result.attacked * population,
              "outcome tallies " + std::to_string(tallied) + " == attacked " +
                  std::to_string(result.attacked) + " x (ASes - 1) " +
                  std::to_string(population));

  Fingerprint fingerprint;
  for (const std::size_t value :
       {result.prefixes, result.attacked, result.blocks, result.alarms, result.false_alarms,
        result.adopted_false, result.adopted_valid, result.no_route, result.routes_installed,
        result.rib_entries, result.rib_bytes, result.baseline_rib_bytes, pools.paths.entries,
        pools.community_sets.entries, pools.large_community_sets.entries,
        pools.total_bytes()}) {
    fingerprint.add(static_cast<std::uint64_t>(value));
  }
  report.fingerprint = fingerprint.hex();
  report.note(std::to_string(graph.node_count()) + " ASes, " +
              std::to_string(result.routes_installed) + " Loc-RIB routes, " +
              std::to_string(result.rib_entries) + " RIB entries, " +
              std::to_string(result.alarms) + " alarms");
  const Ratio failed_ratio =
      batch_failed_ratio(report.failed, report.attempted, "calls that threw", "calls");
  report.note("failed_ratio " + failed_ratio.describe());

  EndToEnd e2e;
  e2e.setup_s = (setup_end - setup_start) / 1e9;
  e2e.work = static_cast<double>(result.routes_installed);
  e2e.success_ratio = 1.0 - failed_ratio.value();
  // The workload is one request per pass, so there is no latency
  // distribution: both latency fields carry that request's latency.
  e2e.latency_ms_p50 = e2e.latency_ms_p90 = report.timed.wall_s() * 1e3;
  report.note("latency = the one run_multi_prefix call (n=1 per pass; p50 and p90 are "
              "that request's latency, not percentiles)");
  report_end_to_end(report, e2e);

  if (options.traced) {
    spans.at(static_cast<std::size_t>(root)).end_ns = report.timed.end_ns();
    report_layers(report, spans, static_cast<std::size_t>(root), options);
    const double call_ms =
        static_cast<double>(spans.spans()[call].duration_ns()) / 1e6;
    const double propagate_ms = result.propagation_seconds * 1e3;
    report.set("topo.generate_ms",
               static_cast<double>(spans.spans()[generate].duration_ns()) / 1e6);
    report.set("core.multi_prefix_ms", call_ms);
    report.set("core.multi_prefix_other_ms", call_ms - propagate_ms);
    report.set("sim.propagate_ms", propagate_ms);
    report.set("sim.propagate_share", propagate_ms / call_ms);
    report.set("sim.ns_per_route",
               result.propagation_seconds * 1e9 / static_cast<double>(result.routes_installed));
    report.set("sim.blocks", static_cast<double>(result.blocks));
    report.set("core.alarms", static_cast<double>(result.alarms));
    report.set("core.false_alarms", static_cast<double>(result.false_alarms));
    report.set("bgp.rib_entries", entries);
    report.set("bgp.loc_rib_routes", static_cast<double>(result.routes_installed));
    report.set("bgp.rib_bytes", static_cast<double>(result.rib_bytes));
    report.set("bgp.intern.pool_bytes", static_cast<double>(pools.total_bytes()));
    report.set("bgp.intern.paths", static_cast<double>(pools.paths.entries));
    report.set("bgp.bytes_per_route", interned_per_route);
    report.note("program-reported: sim.propagate_ms (MultiPrefixResult::propagation_seconds), "
                "bgp.* and core.alarms (MultiPrefixResult fields, intern::pool_stats)");
  }
  return report;
}

}  // namespace perfbench
