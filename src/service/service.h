// IncDbService: an embeddable, thread-safe, long-running query service over
// one incomplete database (ROADMAP item 4).
//
// The one-shot tools construct a Database, run one query, and exit. The
// service keeps the database resident and serves many concurrent sessions:
//
//  * Snapshot isolation. The instance lives in an immutable versioned
//    DatabaseSnapshot (service/snapshot.h). Every query pins the current
//    snapshot for its whole evaluation, so readers never observe a torn
//    write; writers build the next snapshot off to the side (CoW relation
//    copies make untouched relations free) and publish it atomically.
//  * Prepared-plan caching. Responses are cached by structural plan
//    fingerprint + options digest (service/plan_cache.h) with pre-forced
//    result indexes; ingestion invalidates exactly the entries whose
//    scanned relations changed.
//  * Admission control. ServiceLimits maps per-query budgets onto the
//    engine's existing knobs — max_worlds, eval/sampling thread counts —
//    and adds a bounded in-flight-query gate, a result-row budget, and a
//    best-effort wall-clock budget. Over-budget work is refused with
//    kResourceExhausted, never queued or silently truncated.
//
// Sessions are cheap value handles (OpenSession); any number may run
// concurrently, each from its own thread. tools/incdb_serve wraps the same
// API in a newline-delimited socket protocol (docs/SERVICE.md).

#ifndef INCDB_SERVICE_SERVICE_H_
#define INCDB_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "engine/query_engine.h"
#include "service/plan_cache.h"
#include "service/snapshot.h"
#include "util/status.h"

namespace incdb {

/// Per-query admission budgets and service sizing. Zero means "no limit"
/// for every field except plan_cache_capacity (0 disables caching).
struct ServiceLimits {
  /// Queries evaluated concurrently; excess calls are rejected with
  /// kResourceExhausted immediately instead of queueing.
  int max_in_flight = 64;
  /// Ceiling on world_options.max_worlds — per-request budgets are clamped
  /// down to this, never raised.
  uint64_t max_worlds_per_query = 0;
  /// Responses with more result rows are rejected (after evaluation; the
  /// world budget is the pre-evaluation lever).
  uint64_t max_result_rows = 0;
  /// Best-effort wall-clock budget: queries that finish over it are
  /// rejected post hoc and not cached. The world budget bounds the work
  /// actually done; this backstops mispriced queries.
  double max_query_seconds = 0.0;
  /// Ceiling on eval.num_threads, which bounds evaluation and sampling
  /// alike; "auto" (0) requests are pinned to the ceiling.
  int max_threads_per_query = 0;
  /// Prepared-plan/result cache entries kept (LRU).
  size_t plan_cache_capacity = 256;
};

/// Monotone service counters (one consistent sample per Stats() call).
struct ServiceStats {
  uint64_t queries = 0;            ///< admitted Run calls
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t rejected_overload = 0;  ///< in-flight gate refusals
  uint64_t rejected_budget = 0;    ///< row/time budget refusals
  uint64_t snapshots_published = 0;
  uint64_t invalidated_entries = 0;
  uint64_t cache_entries = 0;      ///< current cache size (not monotone)
};

/// A QueryResponse plus the service-level context it was answered in.
struct ServiceResponse {
  QueryResponse response;
  /// Version of the snapshot the answer was computed against.
  uint64_t snapshot_version = 0;
  /// True when the response was served from the plan cache.
  bool cache_hit = false;
  /// Wall-clock seconds inside the service (≈0 on a hit).
  double seconds = 0.0;
};

/// One tuple destined for one relation in an ingestion batch.
struct IngestRow {
  std::string relation;
  Tuple tuple;
};

/// Parses one wire `ingest` row, `<relation> <value> ...`: a relation name
/// of [A-Za-z0-9_], then space-separated values in the core/io.h syntax
/// (a quoted string may hold spaces). Errors name the column and token.
Result<IngestRow> ParseIngestRow(std::string_view line);

class IncDbService;

/// One client's handle on the service. Sessions are cheap value types; use
/// each from one thread at a time, any number of sessions concurrently.
class Session {
 public:
  /// Answers one query against the snapshot current at call time.
  Result<ServiceResponse> Run(const QueryRequest& request);

  /// Atomically ingests a batch; returns the published snapshot version.
  Result<uint64_t> Ingest(const std::vector<IngestRow>& batch);

  /// Version the next Run will (at least) see.
  uint64_t SnapshotVersion() const;

  uint64_t id() const { return id_; }

 private:
  friend class IncDbService;
  Session(IncDbService* service, uint64_t id) : service_(service), id_(id) {}

  IncDbService* service_;
  uint64_t id_;
};

/// The service. Thread-safe; construct once, share freely.
class IncDbService {
 public:
  /// Takes ownership of `db` and publishes it as snapshot version 1.
  explicit IncDbService(Database db, ServiceLimits limits = {});

  Session OpenSession() { return Session(this, next_session_id_++); }

  /// Session-independent entry points (Session forwards here).
  Result<ServiceResponse> Run(const QueryRequest& request);
  Result<uint64_t> Ingest(const std::vector<IngestRow>& batch);

  /// Replaces the whole instance with `db`, published as a new snapshot.
  Result<uint64_t> Replace(Database db);

  /// The currently published snapshot (readers pin it by holding the ptr).
  std::shared_ptr<const DatabaseSnapshot> CurrentSnapshot() const;

  /// Version of the currently published snapshot.
  uint64_t SnapshotVersion() const {
    return version_.load(std::memory_order_acquire);
  }

  ServiceStats Stats() const;
  const ServiceLimits& limits() const { return limits_; }

 private:
  // Publishes `next` as the successor of the current snapshot and sweeps
  // the plan cache. Caller must hold write_mu_.
  uint64_t Publish(Database next);

  ServiceLimits limits_;
  PlanCache cache_;

  mutable std::mutex snapshot_mu_;  // guards snapshot_ (pointer swap only)
  std::shared_ptr<const DatabaseSnapshot> snapshot_;
  std::mutex write_mu_;  // serializes Ingest/Replace
  std::atomic<uint64_t> version_{0};

  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<int> in_flight_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> rejected_budget_{0};
  std::atomic<uint64_t> snapshots_published_{0};
};

}  // namespace incdb

#endif  // INCDB_SERVICE_SERVICE_H_
