// The unit of work of the streaming pipeline: one per-prefix observation.
//
// A StreamUpdate is what one archive table line becomes once the feed layer
// has attributed it to a day and a delivery slot: "at time `at` (in days),
// prefix P was announced with origin set O". The batch pipeline consumes
// whole DailyDump maps; the streaming detector consumes these one at a
// time, in whatever order the transport delivers them.
#pragma once

#include <cstdint>
#include <optional>

#include "moas/core/moas_list.h"
#include "moas/net/prefix.h"

namespace moas::stream {

struct StreamUpdate {
  /// Feed sequence number, assigned by the source in emission order.
  /// Fault decisions and duplicate suppression key on it.
  std::uint64_t seq = 0;
  /// Trace day the observation belongs to.
  int day = 0;
  /// Observation time in days (day + a per-prefix intra-day fraction).
  double at = 0.0;
  /// A garbled line: it consumed a sequence number and a delivery slot but
  /// carries no parseable observation. The ingest front-end rejects it.
  bool malformed = false;
  net::Prefix prefix;
  /// The announced origin set, interned: a copy is a pointer copy, and two
  /// updates announce the same set exactly when their handles are equal.
  core::MoasList origins;

  bool operator==(const StreamUpdate&) const = default;
};

/// A pull-based update source. next() returns updates until the feed is
/// exhausted, then nullopt forever.
class UpdateFeed {
 public:
  virtual ~UpdateFeed() = default;
  virtual std::optional<StreamUpdate> next() = 0;
};

/// Discard the next `n` updates (checkpoint restore fast-forwards a freshly
/// recreated feed chain past everything the saved detector had consumed).
/// Throws std::invalid_argument if the feed runs dry first.
void fast_forward(UpdateFeed& feed, std::uint64_t n);

/// splitmix64 finalizer: the stream layer's stateless hash, used for
/// prefix -> shard assignment and per-prefix intra-day jitter. Pure, so the
/// same prefix lands on the same shard in every run and after any restore.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A prefix's stable 64-bit identity (network address and mask length).
inline std::uint64_t prefix_key(const net::Prefix& prefix) {
  return (static_cast<std::uint64_t>(prefix.network().value()) << 8) |
         static_cast<std::uint64_t>(prefix.length());
}

/// Deterministic intra-day observation time in (0, 1): each prefix is seen
/// at a fixed fraction of the day, so `at = day + intra_day_frac(prefix)`.
inline double intra_day_frac(const net::Prefix& prefix) {
  const std::uint64_t h = mix64(prefix_key(prefix) ^ 0x5eedf00dULL);
  // 53 high bits -> [0, 1), squeezed into [0.05, 0.95) so observations
  // never collide with exact day boundaries.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return 0.05 + 0.9 * u;
}

}  // namespace moas::stream
