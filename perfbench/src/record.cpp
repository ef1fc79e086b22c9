#include "record.h"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "stats.h"

namespace perfbench {

namespace {

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

/// The aggregate "cpu" line's 8th value (steal), or -1 where /proc/stat is
/// absent.
std::int64_t steal_ticks_now() {
  std::ifstream in("/proc/stat");
  std::string label;
  std::int64_t field = 0;
  if (!(in >> label) || label != "cpu") return -1;
  for (int i = 0; i < 8; ++i) {
    if (!(in >> field)) return -1;
  }
  return field;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void TimedSection::begin() {
  steal_start_ = steal_ticks_now();
  cpu_start_ = cpu_seconds();
  start_ns_ = now_ns();
}

void TimedSection::end() {
  end_ns_ = now_ns();
  cpu_end_ = cpu_seconds();
  steal_end_ = steal_ticks_now();
}

double TimedSection::cpu_per_wall() const {
  const double wall = wall_s();
  return wall > 0.0 ? (cpu_end_ - cpu_start_) / wall : 0.0;
}

void PassReport::gate(bool ok, const std::string& what) {
  (ok ? gates_passed_ : gate_failures_).push_back(what);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report_end_to_end(PassReport& report, const EndToEnd& e2e) {
  const double wall = report.timed.wall_s();
  report.set("setup_s", e2e.setup_s);
  report.set("wall_s", wall);
  report.set("throughput_per_s", e2e.work / wall);
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("success_ratio", e2e.success_ratio);
  report.set("latency_ms_p50", e2e.latency_ms_p50);
  report.set("latency_ms_p90", e2e.latency_ms_p90);
}

void report_layers(PassReport& report, const SpanLog& log, std::size_t root,
                   const Options& options, const std::set<std::string>& skip_dump) {
  const auto layers = layer_times(log, root);
  const std::int64_t wall = log.spans()[root].duration_ns();
  std::int64_t self_sum = 0;
  for (const auto& [name, layer] : layers) {
    self_sum += layer.self_ns;
    report.note("self " + name + ": " + json_number(layer.self_ns / 1e6) + " ms over " +
                std::to_string(layer.count) + " spans");
  }
  // Self times partition the root's interval when children nest without
  // overlap; a mismatch means a span was recorded outside its parent.
  report.gate(std::llabs(self_sum - wall) <= wall / 1'000'000,
              "per-layer self times sum to the traced wall time (" +
                  json_number(self_sum / 1e6) + " of " + json_number(wall / 1e6) + " ms)");
  const auto unattributed = layers.find(log.names()[log.spans()[root].name]);
  report.set("trace.unattributed_share",
             static_cast<double>(unattributed->second.self_ns) / static_cast<double>(wall));
  report.set("util.cpu_per_wall", report.timed.cpu_per_wall());
  if (!options.spans_out.empty()) {
    std::ofstream out(options.spans_out);
    write_spans(out, log, skip_dump);
  }
}

void PassReport::emit() const {
  const std::string tag =
      "[" + options_.workload + (options_.traced ? " traced" : "") + "] ";
  for (const std::string& line : notes_) std::cerr << tag << line << "\n";
  for (const std::string& line : gates_passed_) std::cerr << tag << "gate ok: " << line << "\n";
  for (const std::string& line : gate_failures_) {
    std::cerr << tag << "GATE FAILED: " << line << "\n";
  }

  std::ostringstream out;
  out << "{\"workload\":" << json_string(options_.workload) << ",\"seed\":" << options_.seed
      << ",\"traced\":" << (options_.traced ? "true" : "false")
      << ",\"ok\":" << (ok() ? "true" : "false") << ",\"attempted\":" << attempted
      << ",\"failed\":" << failed << ",\"fingerprint\":" << json_string(fingerprint)
      << ",\"host\":{\"jobs\":" << kJobs
      << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
      << ",\"git_describe\":" << json_string(PERFBENCH_GIT_DESCRIBE)
      << ",\"steal_ticks\":" << timed.steal_ticks() << "},\"values\":{";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out << (i ? "," : "") << json_string(values_[i].first) << ":"
        << json_number(values_[i].second);
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace perfbench
