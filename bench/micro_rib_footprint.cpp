// Microbenchmark — RIB memory footprint at multi-prefix scale: run the
// multi-prefix workload (core::run_multi_prefix) on a large topology,
// account the converged routing state two ways, and emit BENCH_rib.json:
//
//   interned   — what the process actually holds: the compact FlatMap RIB
//                containers (MultiPrefixResult::rib_bytes) plus the
//                interning pools (bgp::intern::pool_stats), counted once —
//                shared path/MOAS-list data is stored exactly once no
//                matter how many RIB entries point at it.
//   baseline   — the pre-interning layout, modeled per entry in the SAME
//                run (MultiPrefixResult::baseline_rib_bytes): private deep
//                attribute copies, inline vector-header attributes, and
//                std::map red-black nodes. The model is conservative
//                (malloc chunk overhead ignored), so a pass here
//                understates the real win.
//
// --gate fails the bench unless interned bytes/route is strictly below
// baseline bytes/route, and (full mode only) routes/sec stays above a
// conservative floor. Full mode's ASNs straddle the 2-octet boundary by
// construction, so the gate also proves the post-AS4 pipeline carries
// >65,535-AS workloads end to end.
//
// Usage:
//   micro_rib_footprint [--smoke] [--gate] [--out PATH]
//
// --smoke shrinks the workload (the 630-AS paper topology, 64 prefixes) so
// the ASan CI subset finishes in seconds; full mode runs >=20k ASes x
// >=1024 prefixes.
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench_util.h"
#include "moas/bgp/intern.h"
#include "moas/core/multi_prefix.h"
#include "moas/topo/gen_internet.h"
#include "moas/util/strings.h"
#include "moas/util/table.h"

using namespace moas;
using namespace moas::bench;

namespace {

/// Full-mode throughput floor (converged Loc-RIB routes per second of wave
/// propagation). Deliberately far below any observed single-core figure —
/// it exists to catch order-of-magnitude regressions, not scheduler noise.
constexpr double kRoutesPerSecFloor = 200.0;

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  std::string out_path = "BENCH_rib.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--gate") gate = true;
    if (arg == "--out" && i + 1 < argc) out_path = argv[i + 1];
  }

  // Full mode generates its own >=20k-AS topology with ASNs starting below
  // and ending far above the 2-octet boundary — every path through the core
  // mixes narrow and wide ASNs, so a surviving 16-bit assumption aborts
  // here, not in production.
  const topo::AsGraph* graph = nullptr;
  topo::AsGraph generated;
  core::MultiPrefixConfig workload;
  if (smoke) {
    graph = &paper_topology(630);
    workload.num_prefixes = 64;
    workload.block_size = 16;
    workload.attacked_fraction = 0.5;
  } else {
    topo::InternetConfig internet;
    internet.tier1 = 12;
    internet.tier2 = 288;
    internet.tier3 = 700;
    internet.stubs = 19'200;      // 20,200 ASes total
    internet.first_asn = 60'000;  // ASNs 60,000..80,199 straddle 65,535
    util::Rng topo_rng(0xf00d);
    generated = topo::generate_internet(internet, topo_rng);
    graph = &generated;
    workload.num_prefixes = 1'024;
    workload.block_size = 128;
    workload.attacked_fraction = 0.25;
  }
  workload.origins_per_prefix = 2;  // every prefix carries a MOAS list
  workload.seed = 0x51b5;

  std::cout << "=== Micro: RIB footprint (" << graph->node_count() << "-AS, "
            << workload.num_prefixes << " prefixes" << (smoke ? ", smoke" : "")
            << ") ===\n\n";

  const core::MultiPrefixResult result = core::run_multi_prefix(*graph, workload);
  const bgp::intern::PoolStats pools = bgp::intern::pool_stats();

  const std::size_t interned_bytes = result.rib_bytes + pools.total_bytes();
  const double routes = static_cast<double>(result.rib_entries);
  const double interned_per_route = interned_bytes / routes;
  const double baseline_per_route = result.baseline_rib_bytes / routes;
  const double routes_per_sec =
      result.propagation_seconds > 0.0
          ? static_cast<double>(result.routes_installed) / result.propagation_seconds
          : 0.0;

  util::TablePrinter table({"metric", "value"});
  table.add_row({"ASes", std::to_string(graph->node_count())});
  table.add_row({"prefixes", std::to_string(result.prefixes)});
  table.add_row({"attacked", std::to_string(result.attacked)});
  table.add_row({"blocks", std::to_string(result.blocks)});
  table.add_row({"rib entries", std::to_string(result.rib_entries)});
  table.add_row({"loc-rib routes", std::to_string(result.routes_installed)});
  table.add_row({"alarms", std::to_string(result.alarms)});
  table.add_row({"interned MB", util::fmt_double(interned_bytes / 1048576.0, 1)});
  table.add_row({"baseline MB",
                 util::fmt_double(result.baseline_rib_bytes / 1048576.0, 1)});
  table.add_row({"interned B/route", util::fmt_double(interned_per_route, 1)});
  table.add_row({"baseline B/route", util::fmt_double(baseline_per_route, 1)});
  table.add_row({"routes/sec", util::fmt_double(routes_per_sec, 1)});
  table.add_row({"propagation sec", util::fmt_double(result.propagation_seconds, 2)});
  table.print(std::cout);

  const unsigned hardware = std::thread::hardware_concurrency();
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"micro_rib_footprint\",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  out << "  \"topology_ases\": " << graph->node_count() << ",\n";
  out << "  \"first_asn\": " << (smoke ? 1 : 60'000) << ",\n";
  out << "  \"prefixes\": " << result.prefixes << ",\n";
  out << "  \"attacked_prefixes\": " << result.attacked << ",\n";
  out << "  \"blocks\": " << result.blocks << ",\n";
  out << "  \"rib_entries\": " << result.rib_entries << ",\n";
  out << "  \"loc_rib_routes\": " << result.routes_installed << ",\n";
  out << "  \"alarms\": " << result.alarms << ",\n";
  out << "  \"false_alarms\": " << result.false_alarms << ",\n";
  out << "  \"adopted_false_fraction\": " << json_double(result.adopted_false_fraction())
      << ",\n";
  out << "  \"interned_bytes\": " << interned_bytes << ",\n";
  out << "  \"rib_container_bytes\": " << result.rib_bytes << ",\n";
  out << "  \"pool_bytes\": " << pools.total_bytes() << ",\n";
  out << "  \"pool_paths\": " << pools.paths.entries << ",\n";
  out << "  \"pool_community_sets\": " << pools.community_sets.entries << ",\n";
  out << "  \"pool_large_community_sets\": " << pools.large_community_sets.entries
      << ",\n";
  out << "  \"baseline_bytes\": " << result.baseline_rib_bytes << ",\n";
  out << "  \"interned_bytes_per_route\": " << json_double(interned_per_route) << ",\n";
  out << "  \"baseline_bytes_per_route\": " << json_double(baseline_per_route) << ",\n";
  out << "  \"routes_per_sec\": " << json_double(routes_per_sec) << ",\n";
  out << "  \"propagation_seconds\": " << json_double(result.propagation_seconds) << ",\n";
  out << "  \"hardware_concurrency\": " << hardware << ",\n";
  if (hardware <= 1) {
    // Annotate single-core baselines in the artifact itself, per the
    // BENCH_* convention: absolute throughput on one core is not
    // comparable to the multicore CI artifact.
    out << "  \"note\": \"1-core baseline: routes/sec reflects a single core; "
           "compare against the multicore CI artifact for real throughput\",\n";
  }
  out << "  \"routes_per_sec_floor\": " << json_double(kRoutesPerSecFloor) << "\n";
  out << "}\n";
  out.close();
  std::cout << "\nwrote " << out_path << " (hardware_concurrency=" << hardware << ")\n";

  if (gate) {
    bool ok = true;
    if (!(interned_per_route < baseline_per_route)) {
      std::cerr << "FAIL: interned bytes/route (" << interned_per_route
                << ") is not below the un-interned baseline (" << baseline_per_route
                << ") — the memory model regressed\n";
      ok = false;
    }
    if (!smoke && routes_per_sec < kRoutesPerSecFloor) {
      std::cerr << "FAIL: " << routes_per_sec << " routes/sec is below the "
                << kRoutesPerSecFloor << " floor\n";
      ok = false;
    }
    if (result.alarms == 0 && result.attacked > 0) {
      std::cerr << "FAIL: an attacked multi-prefix run raised no alarms\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "gate: interned " << util::fmt_double(interned_per_route, 1)
              << " B/route < baseline " << util::fmt_double(baseline_per_route, 1)
              << " B/route; " << result.alarms << " alarms raised\n";
  }
  return 0;
}
