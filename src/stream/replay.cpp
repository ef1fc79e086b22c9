#include "moas/stream/replay.h"

#include <algorithm>
#include <limits>
#include <set>

#include "moas/util/assert.h"
#include "moas/util/rng.h"

namespace moas::stream {

namespace {

/// The victim keeps announcing this many days after an attack ends, so the
/// alarm can observe the conflict clear and resolve.
constexpr int kMarginDays = 3;

/// Long-lived valid cases whose active window spans at least `min_span`
/// days. Trace active days are contiguous for valid cases, so indexing into
/// active_days is safe.
std::vector<std::size_t> eligible_cases(const measure::SyntheticTrace& trace,
                                        std::size_t min_span) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < trace.cases.size(); ++i) {
    const auto& c = trace.cases[i];
    if (!c.valid() || c.active_days.size() < min_span) continue;
    out.push_back(i);
  }
  return out;
}

}  // namespace

std::vector<AttackPlan> plan_attacks(const measure::SyntheticTrace& trace,
                                     const AttackConfig& config,
                                     const std::vector<OriginOverride>& avoid) {
  MOAS_REQUIRE(config.lead_days >= 0, "attack lead must be non-negative");
  MOAS_REQUIRE(config.duration_mean_days >= 1.0, "attacks last at least one day");

  const std::size_t min_span = static_cast<std::size_t>(config.lead_days) +
                               static_cast<std::size_t>(kMarginDays) + 1;
  std::vector<std::size_t> candidates = eligible_cases(trace, min_span);

  std::set<net::Prefix> taken;
  for (const auto& o : avoid) taken.insert(o.prefix);

  util::Rng rng(config.seed ^ 0xa77ac4ULL);
  std::vector<AttackPlan> plans;
  rng.shuffle(candidates);
  for (const std::size_t idx : candidates) {
    if (plans.size() == config.attacks) break;
    const auto& c = trace.cases[idx];
    if (!taken.insert(c.prefix).second) continue;

    const std::size_t span = c.active_days.size();
    std::size_t duration = 1 + rng.poisson(config.duration_mean_days - 1.0);
    const std::size_t room = span - static_cast<std::size_t>(config.lead_days) -
                             static_cast<std::size_t>(kMarginDays);
    duration = std::min(duration, room);
    const std::size_t last_start = span - static_cast<std::size_t>(kMarginDays) - duration;
    const std::size_t start = rng.uniform(static_cast<std::uint64_t>(config.lead_days),
                                          static_cast<std::uint64_t>(last_start));

    AttackPlan plan;
    plan.inject.prefix = c.prefix;
    // Trace origins live in [1, 30000]; planner ASNs sit above, so an
    // injected origin can never collide with a legitimate one.
    plan.inject.add_origin = static_cast<bgp::Asn>(rng.uniform(50001, 60000));
    plan.inject.first_day = c.active_days[start];
    plan.inject.last_day = c.active_days[start + duration - 1];
    plan.injected_at = static_cast<double>(plan.inject.first_day) + intra_day_frac(c.prefix);
    plans.push_back(std::move(plan));
  }
  MOAS_REQUIRE(plans.size() == config.attacks,
               "trace cannot host the requested number of attacks");
  return plans;
}

std::vector<OriginOverride> plan_churn(const measure::SyntheticTrace& trace,
                                       const ChurnConfig& config) {
  MOAS_REQUIRE(config.share >= 0.0 && config.share <= 1.0, "churn share outside [0, 1]");
  MOAS_REQUIRE(config.min_active_days >= 4, "churn needs room to pick a pivot");

  util::Rng rng(config.seed ^ 0xc4e21ULL);
  std::vector<OriginOverride> out;
  for (const auto& c : trace.cases) {
    if (!c.valid() || c.active_days.size() < static_cast<std::size_t>(config.min_active_days)) {
      continue;
    }
    if (!rng.chance(config.share)) continue;
    const std::size_t span = c.active_days.size();
    const std::size_t pivot = rng.uniform(span / 4, (3 * span) / 4);
    OriginOverride o;
    o.prefix = c.prefix;
    o.add_origin = static_cast<bgp::Asn>(rng.uniform(40001, 50000));
    o.first_day = c.active_days[pivot];
    o.last_day = c.active_days.back();
    out.push_back(std::move(o));
  }
  return out;
}

TraceReplaySource::TraceReplaySource(const measure::SyntheticTrace& trace,
                                     std::vector<OriginOverride> overrides, int limit_days)
    : trace_(&trace) {
  days_ = (limit_days > 0 && limit_days < trace.days) ? limit_days : trace.days;
  for (auto& o : overrides) {
    MOAS_REQUIRE(o.first_day <= o.last_day, "override window runs backwards");
    MOAS_REQUIRE(o.add_origin != bgp::kNoAs, "override adds the null ASN");
    overrides_[o.prefix].push_back(std::move(o));
  }
}

core::MoasList TraceReplaySource::origins_on(const int day, const std::size_t index) {
  // Days only increase, so the memo holds until the next override window
  // of the case opens or closes.
  CaseMemo& memo = memo_[index];
  if (day < memo.until) return memo.origins;
  const measure::SyntheticCase& c = trace_->cases[index];
  memo.until = std::numeric_limits<std::int64_t>::max();
  scratch_ = c.origins;
  if (const auto it = overrides_.find(c.prefix); it != overrides_.end()) {
    for (const OriginOverride& o : it->second) {
      if (day < o.first_day) {
        memo.until = std::min<std::int64_t>(memo.until, o.first_day);
      } else if (day <= o.last_day) {
        scratch_.insert(o.add_origin);
        memo.until = std::min(memo.until, std::int64_t{o.last_day} + 1);
      }
    }
  }
  memo.origins = core::MoasList::of(scratch_);
  return memo.origins;
}

void TraceReplaySource::load_day(const int day) {
  // Sized here rather than in the constructor, which callers build inside
  // their set-up; the memo fills as cases first appear.
  if (memo_.size() != trace_->cases.size()) memo_.resize(trace_->cases.size());
  day_.clear();
  cursor_ = 0;
  for (const std::size_t index : trace_->day_cases(day)) {
    StreamUpdate& u = day_.emplace_back();
    u.day = day;
    u.prefix = trace_->cases[index].prefix;
    u.at = static_cast<double>(day) + intra_day_frac(u.prefix);
    u.origins = origins_on(day, index);
  }
  std::sort(day_.begin(), day_.end(), [](const StreamUpdate& a, const StreamUpdate& b) {
    return a.at != b.at ? a.at < b.at : a.prefix < b.prefix;
  });
  for (StreamUpdate& u : day_) u.seq = next_seq_++;
}

std::optional<StreamUpdate> TraceReplaySource::next() {
  while (cursor_ == day_.size() && next_day_ < days_) load_day(next_day_++);
  if (cursor_ == day_.size()) return std::nullopt;
  return day_[cursor_++];
}

void fast_forward(UpdateFeed& feed, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    MOAS_REQUIRE(feed.next().has_value(), "fast_forward ran past the end of the feed");
  }
}

std::vector<AttackOutcome> evaluate_attacks(const std::vector<AttackPlan>& plans,
                                            const std::vector<core::MoasAlarm>& alarms,
                                            const chaos::FeedFaultSchedule* faults) {
  std::vector<AttackOutcome> out;
  out.reserve(plans.size());
  for (const auto& plan : plans) {
    AttackOutcome o;
    o.plan = plan;

    if (faults != nullptr) {
      o.observable = false;
      for (int day = plan.inject.first_day; day <= plan.inject.last_day; ++day) {
        if (!faults->gapped(day)) {
          o.observable = true;
          break;
        }
      }
    }

    for (const auto& alarm : alarms) {
      if (alarm.prefix != plan.inject.prefix) continue;
      if (alarm.state == core::MoasAlarm::State::Raised ||
          alarm.state == core::MoasAlarm::State::Pending) {
        o.all_settled = false;
      }
      if (alarm.at + 1e-9 < plan.injected_at) continue;
      if (!o.alarmed || alarm.at < o.first_alarm_at) {
        o.alarmed = true;
        o.first_alarm_at = alarm.at;
        o.final_state = alarm.state;
      }
    }
    if (o.alarmed) o.latency_days = o.first_alarm_at - plan.injected_at;
    out.push_back(std::move(o));
  }
  return out;
}

}  // namespace moas::stream
