#include "moas/stream/feed.h"

namespace moas::stream {

FaultyFeed::FaultyFeed(UpdateFeed& inner, const chaos::FeedFaultSchedule& schedule)
    : inner_(&inner), schedule_(&schedule) {}

void FaultyFeed::fill() {
  // Pull until the earliest pending item is due at the current slot — a
  // delayed update is overtaken by exactly the traffic the skew says.
  while (!inner_done_ && (pending_.empty() || pending_.top().release > slot_)) {
    auto u = inner_->next();
    if (!u.has_value()) {
      inner_done_ = true;
      break;
    }
    const std::uint64_t slot = slot_++;
    if (schedule_->gapped(u->day)) {
      ++counters_.gap_dropped;
      continue;
    }
    const auto decision = schedule_->decide(u->seq);
    if (decision.garble) {
      ++counters_.garbled;
      u->malformed = true;
      u->origins = {};
    }
    std::uint64_t release = slot;
    if (decision.reorder_skew > 0) {
      ++counters_.reordered;
      release += static_cast<std::uint64_t>(decision.reorder_skew);
    }
    if (decision.duplicate) {
      ++counters_.duplicated;
      pending_.push(Item{release + 1, order_ + 1, *u});
    }
    pending_.push(Item{release, order_, std::move(*u)});
    order_ += 2;  // keep (original, copy) adjacent in the tie-break order
  }
}

std::optional<StreamUpdate> FaultyFeed::next() {
  fill();
  if (pending_.empty()) return std::nullopt;
  StreamUpdate u = pending_.top().update;
  pending_.pop();
  return u;
}

}  // namespace moas::stream
