#include "moas/core/resolver.h"

#include <algorithm>
#include <atomic>

#include "moas/obs/metrics.h"
#include "moas/util/assert.h"

namespace moas::core {

void PrefixOriginDb::set(const net::Prefix& prefix, bgp::AsnSet origins) {
  MOAS_REQUIRE(!origins.empty(), "origin set must be non-empty");
  db_[prefix] = std::move(origins);
}

std::optional<bgp::AsnSet> PrefixOriginDb::lookup(const net::Prefix& prefix) const {
  auto it = db_.find(prefix);
  if (it == db_.end()) return std::nullopt;
  return it->second;
}

void OriginResolver::collect_metrics(obs::MetricsRegistry& registry) const {
  registry.count("resolver.queries", counters_.queries);
  registry.count("resolver.failures", counters_.failures);
  registry.count("resolver.corrupted", counters_.corrupted);
}

OracleResolver::OracleResolver(std::shared_ptr<const PrefixOriginDb> truth)
    : truth_(std::move(truth)) {
  MOAS_REQUIRE(truth_ != nullptr, "oracle needs a truth database");
}

std::optional<bgp::AsnSet> OracleResolver::resolve(const net::Prefix& prefix) {
  // Atomic counters: the oracle is stateless otherwise, so detectors on
  // concurrently draining wave-engine routers share one instance.
  std::atomic_ref(counters_.queries).fetch_add(1, std::memory_order_relaxed);
  auto answer = truth_->lookup(prefix);
  if (!answer) std::atomic_ref(counters_.failures).fetch_add(1, std::memory_order_relaxed);
  return answer;
}

DnsResolver::DnsResolver(std::shared_ptr<const PrefixOriginDb> db, Config config)
    : db_(std::move(db)), config_(config), rng_(config.seed) {
  MOAS_REQUIRE(db_ != nullptr, "DNS resolver needs a database");
  MOAS_REQUIRE(config_.unavailability >= 0.0 && config_.unavailability <= 1.0,
               "unavailability must be a probability");
  MOAS_REQUIRE(config_.forgery >= 0.0 && config_.forgery <= 1.0,
               "forgery must be a probability");
}

std::optional<bgp::AsnSet> DnsResolver::resolve(const net::Prefix& prefix) {
  ++counters_.queries;
  if (rng_.chance(config_.unavailability)) {
    ++counters_.failures;
    return std::nullopt;
  }
  if (!config_.forged_answer.empty() && rng_.chance(config_.forgery)) {
    ++counters_.corrupted;
    return config_.forged_answer;
  }
  auto answer = db_->lookup(prefix);
  if (!answer) ++counters_.failures;
  return answer;
}

IrrResolver::IrrResolver(std::shared_ptr<const PrefixOriginDb> current,
                         std::shared_ptr<const PrefixOriginDb> stale_snapshot, Config config)
    : current_(std::move(current)),
      stale_(std::move(stale_snapshot)),
      config_(config),
      rng_(config.seed) {
  MOAS_REQUIRE(current_ != nullptr && stale_ != nullptr, "IRR needs both databases");
  MOAS_REQUIRE(config_.staleness >= 0.0 && config_.staleness <= 1.0,
               "staleness must be a probability");
}

std::optional<bgp::AsnSet> IrrResolver::resolve(const net::Prefix& prefix) {
  ++counters_.queries;
  auto [it, inserted] = record_is_stale_.try_emplace(prefix, false);
  if (inserted) {
    it->second = rng_.chance(config_.staleness);
    record_order_.push_back(prefix);
    // Bounded memory: drop the oldest-inserted sticky decision. A re-query
    // of an evicted prefix re-draws its staleness — acceptable drift, and
    // deterministic because insertion order is deterministic.
    if (config_.max_records > 0 && record_is_stale_.size() > config_.max_records) {
      record_is_stale_.erase(record_order_.front());
      record_order_.pop_front();
    }
  }
  if (it->second) {
    auto old = stale_->lookup(prefix);
    if (old) {
      // Only a stale record that actually *disagrees* with the current
      // registry is corrupted data; an unchanged record answers correctly
      // no matter how old it is.
      if (current_->lookup(prefix) != old) ++counters_.corrupted;
      return old;
    }
    ++counters_.failures;
    return std::nullopt;  // record simply missing from the registry
  }
  auto answer = current_->lookup(prefix);
  if (!answer) ++counters_.failures;
  return answer;
}

CachingResolver::CachingResolver(std::shared_ptr<OriginResolver> inner, TimeFn now,
                                 Config config)
    : inner_(std::move(inner)), now_(std::move(now)), config_(config) {
  MOAS_REQUIRE(inner_ != nullptr, "cache needs a resolver to wrap");
  MOAS_REQUIRE(now_ != nullptr, "cache needs a time source");
  MOAS_REQUIRE(config_.ttl >= 0.0, "ttl must be non-negative");
  MOAS_REQUIRE(config_.negative_ttl >= 0.0, "negative ttl must be non-negative");
}

double CachingResolver::negative_lifetime(std::uint32_t streak) const {
  double lifetime = config_.negative_ttl;
  if (lifetime <= 0.0) return 0.0;
  // Double per prior consecutive failure, saturating at the cap. The loop
  // stops as soon as the cap is reached, so a long streak cannot overflow.
  for (std::uint32_t i = 1; i < streak && lifetime < config_.negative_ttl_cap; ++i) {
    lifetime *= 2.0;
  }
  return std::min(lifetime, std::max(config_.negative_ttl, config_.negative_ttl_cap));
}

double CachingResolver::next_negative_ttl(const net::Prefix& prefix) const {
  auto it = cache_.find(prefix);
  const std::uint32_t streak = it == cache_.end() ? 0 : it->second.failure_streak;
  return negative_lifetime(streak + 1);
}

void CachingResolver::evict_oldest_expiry(const net::Prefix& keep) {
  // Deterministic victim: smallest expiry among entries other than `keep`
  // (the just-inserted one — evicting it would make short-lived negative
  // entries evict themselves at the cap while long positives survive); the
  // map's prefix order breaks ties (strict < keeps the lowest prefix).
  auto victim = cache_.end();
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->first == keep) continue;
    if (victim == cache_.end() || it->second.expires < victim->second.expires) {
      victim = it;
    }
  }
  if (victim == cache_.end()) return;
  cache_.erase(victim);
  ++cache_counters_.evictions;
}

std::optional<bgp::AsnSet> CachingResolver::resolve(const net::Prefix& prefix) {
  ++cache_counters_.lookups;
  const double now = now_();
  auto it = cache_.find(prefix);
  if (it != cache_.end() && now < it->second.expires) {
    if (it->second.answer) {
      ++cache_counters_.hits;
    } else {
      ++cache_counters_.negative_hits;
    }
    return it->second.answer;
  }
  ++cache_counters_.misses;
  auto answer = inner_->resolve(prefix);
  const std::uint32_t streak =
      answer ? 0 : (it != cache_.end() ? it->second.failure_streak : 0) + 1;
  const double lifetime = answer ? config_.ttl : negative_lifetime(streak);
  if (lifetime > 0.0) {
    cache_.insert_or_assign(prefix, Entry{answer, now + lifetime, streak});
    if (config_.max_entries > 0 && cache_.size() > config_.max_entries) {
      evict_oldest_expiry(prefix);
    }
  } else if (it != cache_.end()) {
    cache_.erase(it);  // expired and not re-cacheable
  }
  return answer;
}

void CachingResolver::collect_metrics(obs::MetricsRegistry& registry) const {
  inner_->collect_metrics(registry);
  registry.count("resolver.cache_lookups", cache_counters_.lookups);
  registry.count("resolver.cache_hits", cache_counters_.hits);
  registry.count("resolver.cache_negative_hits", cache_counters_.negative_hits);
  registry.count("resolver.cache_misses", cache_counters_.misses);
  registry.count("resolver.cache_evictions", cache_counters_.evictions);
}

}  // namespace moas::core
