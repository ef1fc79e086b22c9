// Origin resolution (the paper's Section 4.4).
//
// Once a MOAS alarm fires, something must decide which origin is the valid
// one. The paper sketches a DNS-based lookup (MOASRR records); its
// simulation assumes resolution succeeds ("they stop the further propagation
// of a false route, e.g. by checking with DNS"). We model that assumption
// with OracleResolver and provide knobbed DNS/IRR resolvers for the
// limitation ablations. The synchronous resolvers here are the *backends*;
// the clock-driven, fault-tolerant request path around them lives in
// async_resolver.h.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "moas/bgp/asn.h"
#include "moas/net/prefix.h"
#include "moas/util/rng.h"

namespace moas::obs {
class MetricsRegistry;
}  // namespace moas::obs

namespace moas::core {

/// Ground-truth registry of who may originate what. Shared by resolvers and
/// by the experiment harness (for scoring).
class PrefixOriginDb {
 public:
  void set(const net::Prefix& prefix, bgp::AsnSet origins);
  /// nullopt if the prefix is unregistered.
  std::optional<bgp::AsnSet> lookup(const net::Prefix& prefix) const;
  std::size_t size() const { return db_.size(); }

 private:
  std::map<net::Prefix, bgp::AsnSet> db_;
};

/// Resolves the set of valid origins for a prefix; nullopt means resolution
/// failed (no record / infrastructure unavailable).
///
/// Counters live in the obs::MetricsRegistry ("resolver.*" names, written by
/// collect_metrics) — the registry is the source of truth; the hot path only
/// bumps cheap local fields.
class OriginResolver {
 public:
  virtual ~OriginResolver() = default;
  virtual std::optional<bgp::AsnSet> resolve(const net::Prefix& prefix) = 0;
  virtual std::string name() const = 0;

  /// Snapshot the backend counters into `registry`:
  ///   resolver.queries   — lookups that reached this backend
  ///   resolver.failures  — lookups answered with nothing
  ///   resolver.corrupted — lookups answered with wrong data
  /// Counters sum on repeated calls / registry merge, so collecting every
  /// source of a fallback chain yields the chain-wide aggregate.
  virtual void collect_metrics(obs::MetricsRegistry& registry) const;

 protected:
  struct Counters {
    std::uint64_t queries = 0;
    std::uint64_t failures = 0;   // no answer
    std::uint64_t corrupted = 0;  // answered with wrong data
  };
  Counters counters_;
};

/// Always answers with the truth — the simulation-section assumption.
/// resolve() is safe to call concurrently (the truth DB is read-only).
class OracleResolver final : public OriginResolver {
 public:
  explicit OracleResolver(std::shared_ptr<const PrefixOriginDb> truth);
  std::optional<bgp::AsnSet> resolve(const net::Prefix& prefix) override;
  std::string name() const override { return "oracle"; }

 private:
  std::shared_ptr<const PrefixOriginDb> truth_;
};

/// DNS MOASRR model: queries fail with probability `unavailability` (DNS
/// needs routing to work — the circular dependency [3] is criticized for),
/// and with probability `forgery` return an attacker-chosen answer (the
/// forgeable-DNS threat of [1]).
class DnsResolver final : public OriginResolver {
 public:
  struct Config {
    double unavailability = 0.0;
    double forgery = 0.0;
    bgp::AsnSet forged_answer;  // what a forged lookup returns
    std::uint64_t seed = 7;
  };

  DnsResolver(std::shared_ptr<const PrefixOriginDb> db, Config config);
  std::optional<bgp::AsnSet> resolve(const net::Prefix& prefix) override;
  std::string name() const override { return "dns-moasrr"; }

 private:
  std::shared_ptr<const PrefixOriginDb> db_;
  Config config_;
  util::Rng rng_;
};

/// IRR model (the route-filtering baseline [21]): records exist but a
/// fraction are stale — they answer with an outdated origin set.
class IrrResolver final : public OriginResolver {
 public:
  struct Config {
    double staleness = 0.0;  // probability a record is outdated
    std::uint64_t seed = 11;
    /// Cap on the sticky per-prefix staleness map; the oldest-inserted
    /// decision is evicted (deterministically) when the cap is exceeded.
    /// 0 = unbounded.
    std::size_t max_records = 1 << 16;
  };

  IrrResolver(std::shared_ptr<const PrefixOriginDb> current,
              std::shared_ptr<const PrefixOriginDb> stale_snapshot, Config config);
  std::optional<bgp::AsnSet> resolve(const net::Prefix& prefix) override;
  std::string name() const override { return "irr"; }

  std::size_t record_count() const { return record_is_stale_.size(); }

 private:
  std::shared_ptr<const PrefixOriginDb> current_;
  std::shared_ptr<const PrefixOriginDb> stale_;
  Config config_;
  util::Rng rng_;
  std::map<net::Prefix, bool> record_is_stale_;  // sticky per-prefix decision
  std::deque<net::Prefix> record_order_;         // insertion order, for eviction
};

/// Churn-aware cache wrapping any resolver. Session flaps re-trigger MOAS
/// alarms for the same prefixes, and naively each alarm costs a fresh
/// lookup; a short TTL absorbs that burst without changing outcomes (the
/// registry does not churn at flap timescales). Failed lookups are cached
/// too (negative cache), and the negative TTL backs off exponentially on
/// repeated failures for the same prefix so a long registry outage is not
/// probed at a fixed cadence.
class CachingResolver final : public OriginResolver {
 public:
  struct Config {
    double ttl = 30.0;          // positive-answer lifetime (seconds); 0 = no caching
    double negative_ttl = 5.0;  // first failed-lookup lifetime; 0 = don't cache failures
    /// Repeated failures for the same prefix double the negative lifetime
    /// (negative_ttl, 2x, 4x, ...) up to this cap; a success resets the
    /// streak. <= negative_ttl disables the backoff.
    double negative_ttl_cap = 60.0;
    /// Cap on cached entries; the entry with the oldest expiry — never the
    /// one just inserted — is evicted (deterministically — ties break toward
    /// the smallest prefix) when the cap is exceeded. 0 = unbounded.
    std::size_t max_entries = 1 << 16;
  };
  /// Current simulation time, supplied by the owner (e.g. the network clock).
  using TimeFn = std::function<double()>;

  CachingResolver(std::shared_ptr<OriginResolver> inner, TimeFn now, Config config);
  std::optional<bgp::AsnSet> resolve(const net::Prefix& prefix) override;
  std::string name() const override { return inner_->name() + "+cache"; }

  /// Adds on top of the inner backend's counters:
  ///   resolver.cache_lookups       — caller queries seen by the cache
  ///   resolver.cache_hits          — served from a live positive entry
  ///   resolver.cache_negative_hits — served from a live negative entry
  ///   resolver.cache_misses        — forwarded to the inner resolver
  ///   resolver.cache_evictions     — entries evicted by the max_entries cap
  void collect_metrics(obs::MetricsRegistry& registry) const override;

  const OriginResolver& inner() const { return *inner_; }
  std::size_t entry_count() const { return cache_.size(); }

  /// The negative lifetime the next failure for `prefix` would be cached
  /// with (exposes the backoff state; tests use this).
  double next_negative_ttl(const net::Prefix& prefix) const;

 private:
  struct Entry {
    std::optional<bgp::AsnSet> answer;
    double expires = 0.0;
    /// Consecutive failed refreshes for this prefix (drives the negative-TTL
    /// backoff); survives expiry, reset by the first success.
    std::uint32_t failure_streak = 0;
  };

  double negative_lifetime(std::uint32_t streak) const;
  void evict_oldest_expiry(const net::Prefix& keep);

  std::shared_ptr<OriginResolver> inner_;
  TimeFn now_;
  Config config_;
  std::map<net::Prefix, Entry> cache_;

  struct CacheCounters {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t negative_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  CacheCounters cache_counters_;
};

}  // namespace moas::core
