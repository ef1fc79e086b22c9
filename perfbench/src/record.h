// One pass of one workload: what the harness measured, the output gates it
// checked, and the host/build record that explains a slow pass. A pass is a
// whole process — every timed section is a cold start, as a user's is.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Load comes from one process with at most this many worker threads.
inline constexpr std::size_t kJobs = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  std::string spans_out;  // traced passes write their spans here ("" = don't)
};

/// Wall clock, process CPU time and /proc/stat steal ticks across the timed
/// section. Steal is recorded, never compared: it explains a slow pass.
class TimedSection {
 public:
  void begin();
  void end();
  std::int64_t start_ns() const { return start_ns_; }
  std::int64_t end_ns() const { return end_ns_; }
  double wall_s() const { return (end_ns_ - start_ns_) / 1e9; }
  double cpu_per_wall() const;
  std::int64_t steal_ticks() const {
    return steal_start_ < 0 || steal_end_ < 0 ? -1 : steal_end_ - steal_start_;
  }

 private:
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = 0;
  double cpu_start_ = 0.0;
  double cpu_end_ = 0.0;
  std::int64_t steal_start_ = -1;
  std::int64_t steal_end_ = -1;
};

class PassReport {
 public:
  explicit PassReport(const Options& options) : options_(options) {}

  void set(const std::string& name, double value) { values_.emplace_back(name, value); }
  /// Record a gate; a failing gate makes the pass exit non-zero.
  void gate(bool ok, const std::string& what);
  void note(const std::string& line) { notes_.push_back(line); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string fingerprint;
  TimedSection timed;

  bool ok() const { return gate_failures_.empty(); }
  /// Human-readable lines to stderr, then the pass as one JSON line on
  /// stdout (the last line the orchestrator reads).
  void emit() const;

 private:
  Options options_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> gate_failures_;
  std::vector<std::string> gates_passed_;
  std::vector<std::string> notes_;
};

/// ru_maxrss of this process, in MiB.
double peak_rss_mb();

/// The end-to-end metrics every workload reports.
struct EndToEnd {
  double setup_s = 0.0;
  double work = 0.0;  // runs, converged routes, or delivered updates
  double success_ratio = 1.0;
  double latency_ms_p50 = 0.0;
  double latency_ms_p90 = 0.0;
};
void report_end_to_end(PassReport& report, const EndToEnd& e2e);

/// Traced passes: per-layer self times under `root`, the check that they
/// add up to the root's wall time, and the span dump (minus `skip_dump`).
void report_layers(PassReport& report, const SpanLog& log, std::size_t root,
                   const Options& options, const std::set<std::string>& skip_dump = {});

}  // namespace perfbench
