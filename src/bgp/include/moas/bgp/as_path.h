// BGP AS_PATH attribute.
//
// An AS path is a list of segments; a segment is either an ordered AS_SEQUENCE
// or an unordered AS_SET (produced by route aggregation — the paper's
// footnote 1). The "origin AS" is the last element; when the last segment is
// a set, any member is a candidate origin.
//
// Representation: AsPath is a handle onto an interned PathData in the
// current intern arena (see intern.h / DESIGN.md §13). A converged RIB
// holds the same few paths hundreds of thousands of times; structural
// sharing makes each copy one pointer, equality one pointer compare, and
// selection_length() a cached field instead of an O(segments) walk per
// decision-process comparison.
// Value semantics are unchanged: ordering still compares segment contents,
// mutators rebuild and re-intern, and nothing observable depends on where
// the shared data lives.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "moas/bgp/asn.h"

namespace moas::bgp {

class AsPath;

/// One path segment.
struct PathSegment {
  enum class Kind { Sequence, Set };

  Kind kind = Kind::Sequence;
  /// Members; kept in announcement order for Sequence, sorted for Set.
  std::vector<Asn> asns;

  friend auto operator<=>(const PathSegment&, const PathSegment&) = default;
};

namespace intern {

/// One interned AS path: the canonical copy of a segment vector, plus the
/// derived values every holder would otherwise recompute. Lives in the
/// arena that interned it (stable address for the life of that arena); all
/// AsPath handles of one arena with equal contents point at the same
/// PathData.
struct PathData {
  std::vector<PathSegment> segments;
  /// Stable 32-bit id, unique per distinct path value within an arena.
  /// Assignment order depends on thread interleaving — ids are for
  /// diagnostics and tests, never for output or ordering.
  std::uint32_t id = 0;
  /// Cached AsPath::selection_length().
  std::uint32_t selection_length = 0;
};

/// Canonical handle for `segments` in the calling thread's current arena;
/// nullptr for the empty path. Thread-safe; the returned pointer is valid
/// for the life of that arena (the process arena outside a run).
const PathData* make_path(std::vector<PathSegment> segments);

/// `path` with its segments interned into the process arena, for a handle
/// that must outlive the run arena that interned it.
AsPath to_process_arena(const AsPath& path);

/// The shared empty segment vector (what AsPath::segments() returns for the
/// empty path).
const std::vector<PathSegment>& empty_path_segments();

}  // namespace intern

class AsPath {
 public:
  /// Empty path (a locally originated route before export).
  AsPath() = default;

  /// Convenience: a single AS_SEQUENCE.
  explicit AsPath(std::vector<Asn> sequence);

  /// Prepend an AS at the front (export-time). Extends the front sequence
  /// segment, creating one if the path starts with a set.
  void prepend(Asn asn);

  /// Append an AS_SET segment at the back (aggregation).
  void append_set(AsnSet asns);

  /// Append ASes at the back, extending a trailing sequence segment or
  /// starting a new one (wire decoding, path construction).
  void append_sequence(const std::vector<Asn>& asns);

  /// True if `asn` appears anywhere in the path (loop detection).
  bool contains(Asn asn) const;

  /// Route-selection length: each sequence member counts 1, each set segment
  /// counts 1 total (RFC 4271 §9.1.2.2 rule). Cached on the interned data —
  /// O(1), which is what the decision process compares on every candidate.
  std::size_t selection_length() const { return data_ ? data_->selection_length : 0; }

  /// First AS on the path (the advertising neighbor), if any.
  std::optional<Asn> first() const;

  /// The unique origin AS: the last element when the path ends in a
  /// sequence; nullopt for an empty path or one ending in an AS_SET.
  std::optional<Asn> origin() const;

  /// All candidate origins: {last sequence element} or the members of the
  /// trailing set. Empty for an empty path.
  AsnSet origin_candidates() const;

  /// origin_candidates() without the copy: a view into the interned
  /// trailing segment, ascending and duplicate-free (a set segment is
  /// stored sorted; a sequence contributes its last element). Valid for the
  /// life of the handle's arena, like the handle itself.
  std::span<const Asn> origin_view() const;

  bool empty() const { return data_ == nullptr; }
  const std::vector<PathSegment>& segments() const {
    return data_ ? data_->segments : intern::empty_path_segments();
  }

  /// The interned id (0 for the empty path). Diagnostics/tests only — ids
  /// are arena-local and interleaving-dependent; never emit them.
  std::uint32_t intern_id() const { return data_ ? data_->id : 0; }

  /// "3 2 1" with set segments braced: "3 {4,5}".
  std::string to_string() const;

  /// Interning canonicalizes within an arena: equal contents == same
  /// pointer. Handles from two arenas compare by <=>, never by ==.
  friend bool operator==(const AsPath& a, const AsPath& b) { return a.data_ == b.data_; }
  /// Value ordering, identical to the pre-intern defaulted comparison over
  /// the segment vector (with a pointer fast path for the equal case).
  friend std::strong_ordering operator<=>(const AsPath& a, const AsPath& b) {
    if (a.data_ == b.data_) return std::strong_ordering::equal;
    return a.segments() <=> b.segments();
  }

 private:
  friend AsPath intern::to_process_arena(const AsPath& path);
  explicit AsPath(const intern::PathData* data) : data_(data) {}

  const intern::PathData* data_ = nullptr;
};

}  // namespace moas::bgp
