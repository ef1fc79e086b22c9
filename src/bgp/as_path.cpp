#include "moas/bgp/as_path.h"

#include <algorithm>
#include <utility>

#include "moas/util/assert.h"
#include "moas/util/strings.h"

namespace moas::bgp {

namespace {

/// Append `asns` to a raw segment vector, extending a trailing sequence
/// segment or starting one — the shared mutation core of append_sequence,
/// the sequence constructor, and parse.
void raw_append_sequence(std::vector<PathSegment>& segments, const std::vector<Asn>& asns) {
  for (Asn asn : asns) {
    MOAS_REQUIRE(asn != kNoAs, "cannot append the null ASN");
    if (segments.empty() || segments.back().kind != PathSegment::Kind::Sequence) {
      segments.push_back(PathSegment{PathSegment::Kind::Sequence, {asn}});
    } else {
      segments.back().asns.push_back(asn);
    }
  }
}

}  // namespace

AsPath::AsPath(std::vector<Asn> sequence) {
  if (!sequence.empty()) {
    std::vector<PathSegment> segments;
    segments.push_back(PathSegment{PathSegment::Kind::Sequence, std::move(sequence)});
    data_ = intern::make_path(std::move(segments));
  }
}

void AsPath::prepend(Asn asn) {
  MOAS_REQUIRE(asn != kNoAs, "cannot prepend the null ASN");
  // Build the new value at its exact size (every export interns one), so
  // neither a front insert nor the intern's shrink reallocates it.
  const std::vector<PathSegment>& old = this->segments();
  const bool extend = !old.empty() && old.front().kind == PathSegment::Kind::Sequence;
  std::vector<PathSegment> segments;
  segments.reserve(old.size() + (extend ? 0 : 1));
  PathSegment& front = segments.emplace_back();
  front.asns.reserve(1 + (extend ? old.front().asns.size() : 0));
  front.asns.push_back(asn);
  if (extend) front.asns.insert(front.asns.end(), old.front().asns.begin(), old.front().asns.end());
  segments.insert(segments.end(), old.begin() + (extend ? 1 : 0), old.end());
  data_ = intern::make_path(std::move(segments));
}

void AsPath::append_set(AsnSet asns) {
  MOAS_REQUIRE(!asns.empty(), "AS_SET segment must be non-empty");
  std::vector<PathSegment> segments = this->segments();
  segments.push_back(PathSegment{PathSegment::Kind::Set, {asns.begin(), asns.end()}});
  data_ = intern::make_path(std::move(segments));
}

void AsPath::append_sequence(const std::vector<Asn>& asns) {
  if (asns.empty()) return;
  std::vector<PathSegment> segments = this->segments();
  raw_append_sequence(segments, asns);
  data_ = intern::make_path(std::move(segments));
}

bool AsPath::contains(Asn asn) const {
  for (const auto& seg : segments()) {
    if (std::find(seg.asns.begin(), seg.asns.end(), asn) != seg.asns.end()) return true;
  }
  return false;
}

std::optional<Asn> AsPath::first() const {
  if (empty()) return std::nullopt;
  const auto& seg = segments().front();
  if (seg.kind == PathSegment::Kind::Sequence) return seg.asns.front();
  return std::nullopt;  // ambiguous: path starts with an aggregate set
}

std::optional<Asn> AsPath::origin() const {
  if (empty()) return std::nullopt;
  const auto& seg = segments().back();
  if (seg.kind == PathSegment::Kind::Sequence) return seg.asns.back();
  return std::nullopt;
}

AsnSet AsPath::origin_candidates() const {
  const std::span<const Asn> view = origin_view();
  return {view.begin(), view.end()};
}

std::span<const Asn> AsPath::origin_view() const {
  if (empty()) return {};
  const auto& seg = segments().back();
  if (seg.kind == PathSegment::Kind::Sequence) return {&seg.asns.back(), 1};
  return seg.asns;
}

std::string AsPath::to_string() const {
  std::string out;
  for (const auto& seg : segments()) {
    if (seg.kind == PathSegment::Kind::Sequence) {
      for (Asn asn : seg.asns) {
        if (!out.empty()) out += ' ';
        out += std::to_string(asn);
      }
    } else {
      if (!out.empty()) out += ' ';
      out += '{';
      for (std::size_t i = 0; i < seg.asns.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(seg.asns[i]);
      }
      out += '}';
    }
  }
  return out;
}

std::optional<AsPath> AsPath::parse(std::string_view s) {
  std::vector<PathSegment> segments;
  for (const auto& raw : util::split(s, ' ')) {
    const auto token = util::trim(raw);
    if (token.empty()) continue;
    if (token.front() == '{') {
      if (token.back() != '}') return std::nullopt;
      AsnSet set;
      for (const auto& member : util::split(token.substr(1, token.size() - 2), ',')) {
        std::uint64_t asn = 0;
        if (!util::parse_u64(util::trim(member), asn) || asn > ~0u) return std::nullopt;
        set.insert(static_cast<Asn>(asn));
      }
      if (set.empty()) return std::nullopt;
      segments.push_back(PathSegment{PathSegment::Kind::Set, {set.begin(), set.end()}});
    } else {
      std::uint64_t asn = 0;
      if (!util::parse_u64(token, asn) || asn > ~0u) return std::nullopt;
      // Extend a trailing sequence segment, or start one. (No null-ASN
      // REQUIRE here: parse reports malformed input via nullopt, and the
      // pre-intern parser accepted "0" — behavior is pinned by tests.)
      if (segments.empty() || segments.back().kind != PathSegment::Kind::Sequence) {
        segments.push_back(
            PathSegment{PathSegment::Kind::Sequence, {static_cast<Asn>(asn)}});
      } else {
        segments.back().asns.push_back(static_cast<Asn>(asn));
      }
    }
  }
  return AsPath(intern::make_path(std::move(segments)));
}

}  // namespace moas::bgp
