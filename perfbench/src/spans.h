// In-memory spans for the traced run. The harness records them from its
// own files, around its calls into each layer (topo, core, sim, bgp, util,
// measure, stream); nothing inside the library is instrumented. Spans are
// kept in memory while the workload runs and written out at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;     // index into SpanLog::names()
  std::uint32_t track = 0;    // 0 = the harness thread; >0 = pool workers
  std::int64_t parent = -1;   // the span that caused this one; -1 for a root
  std::int64_t request = -1;  // request id (sweep run, trace day); -1 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Append-only span store. Not thread-safe: pool workers time their own
/// slots and the harness thread adds those spans after the pool drains.
/// A parent is always added before its children.
class SpanLog {
 public:
  std::uint32_t name_id(std::string_view name);

  std::size_t add(std::uint32_t name, std::int64_t parent, std::int64_t start_ns,
                  std::int64_t end_ns, std::int64_t request = -1, std::uint32_t track = 0);
  /// Starts a span now; close() stamps its end.
  std::size_t open(std::string_view name, std::int64_t parent = -1, std::int64_t request = -1);
  void close(std::size_t index) { spans_[index].end_ns = now_ns(); }

  Span& at(std::size_t index) { return spans_[index]; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
};

/// Self time of every span: its duration minus the durations of its
/// children on the same track. Children on another track ran concurrently
/// with the parent (pool workers under a drain) and are not subtracted.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct LayerTime {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Per-name count, total and self time over the spans under `root`
/// (inclusive) on root's track.
std::map<std::string, LayerTime> layer_times(const SpanLog& log, std::size_t root);

/// Durations in ms of every span named `name`, in recording order.
std::vector<double> durations_ms(const SpanLog& log, std::string_view name);

/// JSON lines, one per span, skipping the names in `skip` (high-volume
/// per-call spans whose totals are reported through layer_times instead).
void write_spans(std::ostream& os, const SpanLog& log, const std::set<std::string>& skip);

}  // namespace perfbench
