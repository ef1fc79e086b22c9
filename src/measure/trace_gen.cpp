#include "moas/measure/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "moas/measure/dates.h"
#include "moas/util/assert.h"

namespace moas::measure {

namespace {

/// The ASNs the paper names.
constexpr bgp::Asn kAs8584 = 8584;    // the 4/7/1998 event
constexpr bgp::Asn kAs15412 = 15412;  // the 4/6/2001 event
constexpr bgp::Asn kAs3561 = 3561;    // its upstream in the observed pair

// Baseline lifetimes.
constexpr double kPermanentShare = 0.25;      // valid cases that never end
constexpr double kValidMeanDuration = 300.0;  // mean days for the others

// Ordinary fault churn.
constexpr double kFaultOneDayShare = 0.126;  // rest last 2+ days
constexpr double kFaultMeanExtraDays = 3.0;

// Origin-set sizes. Faults are two-origin by nature (victim + faulty AS)
// unless they overlay an existing MOAS.
constexpr double kValidThreeOriginShare = 0.08;
constexpr double kValidFourOriginShare = 0.004;
constexpr double kFaultThreeOriginShare = 0.045;

/// Distinct prefixes for synthetic cases: /24s carved sequentially out of
/// 24.0.0.0/6 (plenty for ~250k cases).
net::Prefix case_prefix(std::size_t index) {
  MOAS_REQUIRE(index < (1u << 18), "too many synthetic cases for the prefix pool");
  const std::uint32_t base = 24u << 24;
  return net::Prefix(net::Ipv4Addr(base + (static_cast<std::uint32_t>(index) << 8)), 24);
}

/// Random registered-range ASN (2-octet world, away from the reserved ones).
bgp::Asn random_asn(util::Rng& rng) {
  return static_cast<bgp::Asn>(rng.uniform(1, 30000));
}

bgp::AsnSet random_origin_set(std::size_t n, util::Rng& rng) {
  bgp::AsnSet out;
  while (out.size() < n) out.insert(random_asn(rng));
  return out;
}

/// Exponential with the given mean, at least `floor_days`.
int exp_duration(double mean, int floor_days, util::Rng& rng) {
  double u;
  do {
    u = rng.uniform01();
  } while (u <= 0.0);
  const int d = static_cast<int>(std::ceil(-mean * std::log(u)));
  return std::max(floor_days, d);
}

std::vector<int> contiguous_days(int first, int duration, int last_day) {
  std::vector<int> out;
  for (int d = first; d < first + duration && d <= last_day; ++d) out.push_back(d);
  return out;
}

}  // namespace

const char* to_string(CaseKind kind) {
  switch (kind) {
    case CaseKind::ValidMultihoming: return "valid-multihoming";
    case CaseKind::ValidAse: return "valid-ase";
    case CaseKind::ValidExchangePoint: return "valid-exchange-point";
    case CaseKind::Fault: return "fault";
    case CaseKind::Spike1998: return "spike-1998";
    case CaseKind::Spike2001: return "spike-2001";
  }
  return "?";
}

DailyDump SyntheticTrace::day_dump(int day) const {
  DailyDump dump;
  dump.day = day;
  for (std::size_t idx : day_cases(day)) {
    const SyntheticCase& c = cases[idx];
    dump.origins[c.prefix] = c.origins;
  }
  return dump;
}

const std::vector<std::size_t>& SyntheticTrace::day_cases(int day) const {
  MOAS_REQUIRE(day >= 0 && day < days, "day out of range");
  return by_day_[static_cast<std::size_t>(day)];
}

std::vector<std::size_t> SyntheticTrace::daily_case_counts() const {
  std::vector<std::size_t> out(static_cast<std::size_t>(days));
  for (int d = 0; d < days; ++d) out[static_cast<std::size_t>(d)] = by_day_[static_cast<std::size_t>(d)].size();
  return out;
}

SyntheticTrace generate_trace(const TraceConfig& config, util::Rng& rng) {
  SyntheticTrace trace;
  trace.days = config.days > 0 ? config.days : trace_length_days();
  const int last_day = trace.days - 1;

  std::size_t next_prefix = 0;
  auto add_case = [&](bgp::AsnSet origins, std::vector<int> active, CaseKind kind) {
    MOAS_ENSURE(origins.size() >= 2, "a MOAS case needs at least two origins");
    MOAS_ENSURE(!active.empty(), "a MOAS case needs at least one active day");
    SyntheticCase c;
    c.prefix = case_prefix(next_prefix++);
    c.origins = std::move(origins);
    c.active_days = std::move(active);
    c.kind = kind;
    trace.cases.push_back(std::move(c));
  };

  // --- long-lived (mostly valid) baseline, ramped to the paper's medians ---
  // Maintain the active-valid population against a linearly growing target;
  // expiries are tracked with a min-heap of end days.
  std::priority_queue<int, std::vector<int>, std::greater<>> expiries;
  std::size_t active_valid = 0;
  for (int day = 0; day <= last_day; ++day) {
    while (!expiries.empty() && expiries.top() < day) {
      expiries.pop();
      --active_valid;
    }
    const double t = last_day == 0 ? 0.0 : static_cast<double>(day) / last_day;
    const auto target = static_cast<std::size_t>(
        std::lround(config.active_start + t * (config.active_end - config.active_start)));
    while (active_valid < target) {
      const bool permanent = rng.chance(kPermanentShare);
      const int duration =
          permanent ? (last_day - day + 1) : exp_duration(kValidMeanDuration, 2, rng);
      const int end = std::min(day + duration - 1, last_day);

      std::size_t n_origins = 2;
      const double roll = rng.uniform01();
      if (roll < kValidFourOriginShare) {
        n_origins = 4;
      } else if (roll < kValidFourOriginShare + kValidThreeOriginShare) {
        n_origins = 3;
      }
      // Kind mix: mostly static-config multi-homing, some ASE, a sliver of
      // exchange-point prefixes (the paper: "only a very small percentage").
      CaseKind kind = CaseKind::ValidMultihoming;
      const double kind_roll = rng.uniform01();
      if (kind_roll < 0.02) {
        kind = CaseKind::ValidExchangePoint;
      } else if (kind_roll < 0.30) {
        kind = CaseKind::ValidAse;
      }
      add_case(random_origin_set(n_origins, rng), contiguous_days(day, end - day + 1, last_day),
               kind);
      expiries.push(end);
      ++active_valid;
    }
  }

  // --- ordinary fault churn --------------------------------------------------
  for (int day = 0; day <= last_day; ++day) {
    const unsigned n = rng.poisson(config.faults_per_day);
    for (unsigned i = 0; i < n; ++i) {
      int duration = 1;
      if (!rng.chance(kFaultOneDayShare)) {
        duration = 2 + static_cast<int>(rng.poisson(kFaultMeanExtraDays));
      }
      const std::size_t n_origins = rng.chance(kFaultThreeOriginShare) ? 3 : 2;
      add_case(random_origin_set(n_origins, rng),
               contiguous_days(day, duration, last_day), CaseKind::Fault);
    }
  }

  // --- 4/7/1998: AS8584 announces thousands of prefixes it does not own ----
  if (config.include_spike_1998) {
    const int day = trace_day(CivilDate{1998, 4, 7});
    if (day >= 0 && day <= last_day) {
      for (std::size_t i = 0; i < config.spike_1998_cases; ++i) {
        bgp::AsnSet origins{kAs8584, random_asn(rng)};
        while (origins.size() < 2) origins.insert(random_asn(rng));
        add_case(std::move(origins), {day}, CaseKind::Spike1998);
      }
    }
  }

  // --- 4/6/2001: the AS15412 de-aggregation fault (lasts a few days) -------
  if (config.include_spike_2001) {
    const int day = trace_day(CivilDate{2001, 4, 6});
    if (day >= 0 && day <= last_day) {
      for (std::size_t i = 0; i < config.spike_2001_pair_cases; ++i) {
        bgp::AsnSet origins{kAs15412, random_asn(rng)};
        while (origins.size() < 2) origins.insert(random_asn(rng));
        const int duration = 2 + static_cast<int>(rng.uniform(0, 2));  // 2-4 days
        add_case(std::move(origins), contiguous_days(day, duration, last_day),
                 CaseKind::Spike2001);
      }
      for (std::size_t i = 0; i < config.spike_2001_other_cases; ++i) {
        const int duration = rng.chance(0.3) ? 1 : 2 + static_cast<int>(rng.uniform(0, 1));
        add_case(random_origin_set(2, rng), contiguous_days(day, duration, last_day),
                 CaseKind::Spike2001);
      }
    }
  }

  // Index cases by day.
  trace.by_day_.assign(static_cast<std::size_t>(trace.days), {});
  for (std::size_t idx = 0; idx < trace.cases.size(); ++idx) {
    for (int day : trace.cases[idx].active_days) {
      trace.by_day_[static_cast<std::size_t>(day)].push_back(idx);
    }
  }
  (void)kAs3561;  // named for documentation; the pair is visible in AS paths
  return trace;
}

}  // namespace moas::measure
