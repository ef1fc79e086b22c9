// Replaying the synthetic trace as a time-ordered update stream, with
// injected false originations and legitimate origin churn on top.
//
// The batch pipeline (measure::observer) sees whole-day snapshots; the
// streaming detector must survive the same workload one observation at a
// time. TraceReplaySource materializes each trace day as per-prefix
// StreamUpdates with deterministic intra-day timestamps, applies any
// OriginOverride windows, and hands them out in (at, prefix) order with
// dense sequence numbers — the same seed yields a byte-identical stream no
// matter how the consumer is threaded, checkpointed, or restored.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "moas/chaos/feed_fault.h"
#include "moas/core/alarm.h"
#include "moas/measure/trace_gen.h"
#include "moas/stream/update.h"

namespace moas::stream {

/// Add `add_origin` to `prefix`'s announced origin set on every day in
/// [first_day, last_day] (inclusive) on which the prefix is active. Both
/// injected attacks and legitimate churn are expressed this way; the
/// detector cannot tell them apart except by how long they persist.
struct OriginOverride {
  net::Prefix prefix;
  bgp::Asn add_origin = bgp::kNoAs;
  int first_day = 0;
  int last_day = 0;

  bool operator==(const OriginOverride&) const = default;
};

/// One planned false origination: the override plus the ground-truth time
/// the first hijacked announcement enters the feed (for latency SLOs).
struct AttackPlan {
  OriginOverride inject;
  double injected_at = 0.0;
};

struct AttackConfig {
  std::uint64_t seed = 7;
  std::size_t attacks = 20;
  /// Attack length: 1 + Poisson(duration_mean_days - 1) active days.
  double duration_mean_days = 3.0;
  /// Victim must have been stably announced this many days before the
  /// attack starts (the reference list is warm), and keep announcing a few
  /// days after it ends.
  int lead_days = 5;
};

/// Plan `attacks` false originations against long-lived valid cases, at
/// most one per prefix, never against a prefix in `avoid`. Deterministic in
/// the seed. Throws std::invalid_argument if the trace cannot host the
/// requested count.
std::vector<AttackPlan> plan_attacks(const measure::SyntheticTrace& trace,
                                     const AttackConfig& config,
                                     const std::vector<OriginOverride>& avoid = {});

struct ChurnConfig {
  std::uint64_t seed = 11;
  /// Share of eligible (long-lived valid) cases that legitimately gain an
  /// origin partway through their life and keep it until the case ends.
  double share = 0.0;
  int min_active_days = 60;
};

/// Plan legitimate origin churn: the false-alarm stressor. A churned prefix
/// raises a real mismatch that never clears, which only the conflict-TTL
/// adoption path can retire.
std::vector<OriginOverride> plan_churn(const measure::SyntheticTrace& trace,
                                       const ChurnConfig& config);

/// Replays a SyntheticTrace day by day as a flat update stream.
class TraceReplaySource final : public UpdateFeed {
 public:
  /// `trace` must outlive the source. `limit_days` truncates the replay
  /// (0 = all days). Overrides may target any prefix; days on which the
  /// prefix is inactive are skipped (no announcement to modify).
  TraceReplaySource(const measure::SyntheticTrace& trace,
                    std::vector<OriginOverride> overrides = {}, int limit_days = 0);

  std::optional<StreamUpdate> next() override;

  int days() const { return days_; }
  std::uint64_t emitted() const { return next_seq_; }

 private:
  /// The origin set one case announces, overrides applied, from the day
  /// it was computed until (not including) day `until`.
  struct CaseMemo {
    core::MoasList origins;
    std::int64_t until = 0;  // 0: not computed yet
  };

  void load_day(int day);
  /// The origin set case `index` announces on `day`, overrides applied. It
  /// is interned when the case first appears and again only when one of
  /// its override windows opens or closes.
  core::MoasList origins_on(int day, std::size_t index);

  const measure::SyntheticTrace* trace_;
  std::map<net::Prefix, std::vector<OriginOverride>> overrides_;
  int days_ = 0;
  int next_day_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<CaseMemo> memo_;     // by case index, sized by the first load_day
  bgp::AsnSet scratch_;            // a memo's set before interning, reused
  std::vector<StreamUpdate> day_;  // the loaded day, in emission order
  std::size_t cursor_ = 0;         // next update of day_ to hand out
};

/// Ground-truth evaluation of one attack after a run.
struct AttackOutcome {
  AttackPlan plan;
  /// False when every attack day fell inside a feed gap window: no detector
  /// could have seen it, so it is excluded from the zero-lost-alarms gate.
  bool observable = true;
  bool alarmed = false;
  double first_alarm_at = -1.0;
  double latency_days = -1.0;  // first_alarm_at - injected_at
  /// State of the first alarm raised at/after the injection (Raised when
  /// none was).
  core::MoasAlarm::State final_state = core::MoasAlarm::State::Raised;
  /// True when every alarm for the prefix reached a terminal state.
  bool all_settled = true;
};

/// Match each plan against the merged alarm log. `faults` (may be null)
/// supplies the gap windows for the observability check.
std::vector<AttackOutcome> evaluate_attacks(const std::vector<AttackPlan>& plans,
                                            const std::vector<core::MoasAlarm>& alarms,
                                            const chaos::FeedFaultSchedule* faults);

}  // namespace moas::stream
