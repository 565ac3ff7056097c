// PlanCache: the service's prepared-plan/result cache.
//
// A query answered against snapshot version V is a pure function of
// (query, notion, semantics, backend, every answer-affecting knob, V) — the
// engine's knobs are all bit-identity-preserving, but the *stats* they
// report are not, so the cache key covers them too and a hit returns the
// stored cold-run QueryResponse verbatim: relation, plan, optimized plan,
// stats, probabilities, everything.
//
// Keys are RAFingerprint-derived (structural hash of the parsed plan mixed
// with a digest of the request options); fingerprint collisions are guarded
// by an exact identity string stored in the entry. Invalidation is
// dependency-based and checked at lookup time against the *reader's*
// snapshot: an entry computed at version E serves a snapshot S iff E is not
// newer than S and no relation the plan scans changed after E (per S's
// last-changed map).
// Plans containing Δ, the world-quantified notions (certain-enum, possible,
// probabilistic — their world domain and null set depend on the whole
// instance), and SQL with no RA translation depend on every relation and
// invalidate whenever anything changed. Lookup-time validation makes
// publish/insert races harmless: a stale entry can never serve, whatever
// order sweeps and inserts land in. Publishes additionally Sweep the cache
// eagerly so dead entries don't occupy LRU capacity.

#ifndef INCDB_SERVICE_PLAN_CACHE_H_
#define INCDB_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/query_engine.h"
#include "service/snapshot.h"

namespace incdb {

/// One cached prepared query.
struct PlanCacheEntry {
  /// Exact textual identity of (query, options); guards key collisions.
  std::string identity;
  /// The cold-run response served verbatim on every hit. Its relation's
  /// tuple storage and hash index are forced before insertion, so hit-path
  /// copies are read-only for any number of concurrent sessions.
  QueryResponse response;
  /// Base relations the plan scans (sorted, unique). Empty when
  /// depends_on_all.
  std::vector<std::string> scans;
  /// Whole-database dependency (Δ plans, world-quantified notions,
  /// untranslatable SQL).
  bool depends_on_all = false;
  /// Snapshot version the entry was computed against.
  uint64_t snapshot_version = 0;

  /// True when no dependency changed after snapshot_version, per `snap`.
  bool ValidFor(const DatabaseSnapshot& snap) const;
};

/// Thread-safe LRU map: key → PlanCacheEntry. Capacity 0 disables caching.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// The entry for `key` when present, identity-matching, computed at a
  /// version no newer than `snap`'s, and valid for `snap`; null otherwise.
  /// Invalid entries are dropped on sight; newer ones stay.
  std::shared_ptr<const PlanCacheEntry> Lookup(uint64_t key,
                                               const std::string& identity,
                                               const DatabaseSnapshot& snap);

  /// Inserts (or refreshes) the entry for `key`, evicting LRU overflow.
  void Insert(uint64_t key, std::shared_ptr<const PlanCacheEntry> entry);

  /// Drops every entry invalid for `snap`; returns how many were dropped.
  size_t Sweep(const DatabaseSnapshot& snap);

  void Clear();
  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t hits() const;
  uint64_t misses() const;
  /// Entries dropped by Sweep or by lookup-time validation.
  uint64_t invalidated() const;

 private:
  struct Slot {
    std::shared_ptr<const PlanCacheEntry> entry;
    std::list<uint64_t>::iterator lru_it;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<uint64_t> lru_;  // front = most recently used
  std::unordered_map<uint64_t, Slot> slots_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidated_ = 0;
};

}  // namespace incdb

#endif  // INCDB_SERVICE_PLAN_CACHE_H_
