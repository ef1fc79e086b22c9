#include "moas/bgp/as_path.h"

#include <algorithm>
#include <utility>

#include "moas/util/assert.h"

namespace moas::bgp {

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
  for (Asn asn : asns) {
    MOAS_REQUIRE(asn != kNoAs, "cannot append the null ASN");
    if (segments.empty() || segments.back().kind != PathSegment::Kind::Sequence) {
      segments.push_back(PathSegment{PathSegment::Kind::Sequence, {asn}});
    } else {
      segments.back().asns.push_back(asn);
    }
  }
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

}  // namespace moas::bgp
