// Shared plumbing for the figure-reproduction benches: the fixed synthetic
// Internet, the paper's three sampled topologies (250/460/630 ASes), the
// attacker-fraction x-axis of Figures 9-11, and a uniform way to print a
// sweep as the rows the paper plots.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "moas/core/experiment.h"
#include "moas/obs/metrics.h"
#include "moas/obs/trace.h"
#include "moas/topo/graph.h"
#include "moas/util/table.h"
#include "moas/util/thread_pool.h"

namespace moas::bench {

/// A double for a JSON report: "%.17g" — full round-trip precision, no
/// locale surprises.
std::string json_double(double value);

/// The deterministic "full Internet" all benches sample from — the default
/// topo::InternetConfig (~10k ASes: 12 tier-1 + 240 tier-2 + 500 tier-3 +
/// 9000 stubs). The first call logs the actual generated node/edge counts
/// to stderr so this claim cannot silently rot.
const topo::AsGraph& shared_internet();

/// The paper's sampled topology of roughly `target` ASes (cached). The
/// paper's three sizes (250/460/630) are pre-warmed in one shot, so
/// concurrent curves read an immutable map lock-free; other sizes go
/// through a mutex-guarded side cache. Safe to call from pool workers.
const topo::AsGraph& paper_topology(std::size_t target);

/// Worker count for parallel sweeps: `--jobs N` / `--jobs=N` on the
/// command line beats the MOAS_JOBS env var beats the hardware
/// concurrency (util::ThreadPool::default_jobs()).
std::size_t bench_jobs(int argc, char** argv);

/// Figures 9-11 x-axis: attacker percentage of all ASes.
std::vector<double> paper_attacker_fractions();

/// Event-trace dump options: `--trace-out PATH` / `--trace-out=PATH` on the
/// command line beats the MOAS_TRACE env var (either enables the dump; off
/// by default). `--trace-full` or MOAS_TRACE_LEVEL=full upgrades the level
/// from Summary to Full (per-UPDATE send/receive). The dump is JSONL, one
/// event per line, runs concatenated in plan order — bit-identical for any
/// --jobs. Schema: EXPERIMENTS.md.
struct TraceOptions {
  std::string path;  // empty = no dump
  obs::TraceLevel level = obs::TraceLevel::Off;
  bool enabled() const { return !path.empty(); }
};
TraceOptions bench_trace(int argc, char** argv);

/// Append every run's kept event stream to `out` as JSONL, in the order the
/// results are given (plan order for execute_plan output).
void write_run_traces(std::ostream& out, const std::vector<core::RunResult>& results);

/// The paper's per-point run budget: 3 origin sets x 5 attacker sets.
inline constexpr std::size_t kOriginSets = 3;
inline constexpr std::size_t kAttackerSets = 5;

/// Label -> curve, printed as one table with a column per curve (mirrors
/// the multi-series figures).
struct Curve {
  std::string label;
  std::vector<core::SweepPoint> points;
};

/// A curve request for run_curves(): topology + label + config + sweep
/// seed. `graph` must outlive the call (the cached paper topologies do).
struct CurveSpec {
  std::string label;
  const topo::AsGraph* graph = nullptr;
  core::ExperimentConfig config;
  std::uint64_t seed = 0;
  std::size_t attacker_sets = kAttackerSets;
};

/// Run several curves' planned runs through ONE worker pool, so the tail
/// of one curve overlaps the head of the next instead of each curve
/// draining its own pool. Each curve's points are identical to a lone
/// Experiment::sweep over paper_attacker_fractions() with the same seed, for
/// any job count. The paper uses 3 origin sets x 5 attacker sets = 15 runs
/// per point; figure benches pass `attacker_sets` = 10 (30 runs) for
/// tighter error bars. When `trace` is
/// enabled, every run records events at (at least) trace.level and the
/// streams are dumped to trace.path curve-major in plan order.
std::vector<Curve> run_curves(const std::vector<CurveSpec>& specs, std::size_t jobs,
                              const TraceOptions& trace = {});

util::TablePrinter curves_table(const std::vector<Curve>& curves);

/// Print the standard bench banner + the table (+ CSV).
void print_report(const std::string& title, const std::string& paper_note,
                  const std::vector<Curve>& curves);

/// Print each curve's per-point alarm-latency summary, rendered from the
/// SweepPoint metrics registries ("detector.first_alarm_latency" /
/// "detector.eviction_latency" histograms): how many runs detected the
/// attack, how fast, and how fast the network evicted the false route.
/// Requires the runs to have traced at Summary level (else eviction shows
/// all runs stuck at 0 samples).
void print_latency_report(const std::vector<Curve>& curves);

}  // namespace moas::bench
