#include "spans.h"

#include <ostream>

namespace perfbench {

std::uint32_t SpanLog::name_id(std::string_view name) {
  if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::size_t SpanLog::add(std::uint32_t name, std::int64_t parent, std::int64_t start_ns,
                         std::int64_t end_ns, std::int64_t request, std::uint32_t track) {
  spans_.push_back({name, track, parent, request, start_ns, end_ns});
  return spans_.size() - 1;
}

std::size_t SpanLog::open(std::string_view name, std::int64_t parent, std::int64_t request) {
  const std::int64_t start = now_ns();
  return add(name_id(name), parent, start, start, request);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration_ns();
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const auto parent = static_cast<std::size_t>(span.parent);
    if (spans[parent].track == span.track) self[parent] -= span.duration_ns();
  }
  return self;
}

std::map<std::string, LayerTime> layer_times(const SpanLog& log, std::size_t root) {
  const std::vector<Span>& spans = log.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  // Parents precede children, so one forward pass finds the subtree.
  std::vector<bool> inside(spans.size(), false);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = root; i < spans.size(); ++i) {
    const Span& span = spans[i];
    inside[i] = i == root || (span.parent >= 0 && inside[static_cast<std::size_t>(span.parent)] &&
                              span.track == spans[root].track);
    if (!inside[i]) continue;
    LayerTime& layer = out[log.names()[span.name]];
    ++layer.count;
    layer.total_ns += span.duration_ns();
    layer.self_ns += self[i];
  }
  return out;
}

std::vector<double> durations_ms(const SpanLog& log, std::string_view name) {
  std::vector<double> out;
  for (const Span& span : log.spans()) {
    if (log.names()[span.name] == name) out.push_back(span.duration_ns() / 1e6);
  }
  return out;
}

void write_spans(std::ostream& os, const SpanLog& log, const std::set<std::string>& skip) {
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& span = log.spans()[i];
    const std::string& name = log.names()[span.name];
    if (skip.contains(name)) continue;
    os << "{\"id\":" << i << ",\"name\":\"" << name << "\",\"parent\":" << span.parent
       << ",\"track\":" << span.track << ",\"request\":" << span.request
       << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns << "}\n";
  }
}

}  // namespace perfbench
