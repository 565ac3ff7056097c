// DatabaseSnapshot: an immutable, versioned, read-optimized view of a whole
// database instance — the unit the service layer shares between concurrent
// sessions.
//
// The core Relation is already copy-on-write: copies share one canonical
// tuple vector, hash index, columnar form and completeness memo, and
// mutators clone storage before writing. What a single-threaded caller gets
// for free, concurrent sessions do not: the shared caches are built lazily
// by const accessors, so two readers racing on a cold relation would both
// write the cache. DatabaseSnapshot::Make closes that gap by *forcing*
// every relation's lazy state on the publishing thread — after Make
// returns, every accessor a query evaluator touches is a read-only lookup,
// so any number of sessions can evaluate against the snapshot without
// synchronization.
//
// A snapshot also carries the invalidation metadata the plan cache needs:
// its version (monotonically increasing across publishes), the version at
// which each relation last changed, and the version of the last publish
// that changed anything. Change detection reuses the CoW machinery —
// a relation is unchanged across a publish iff it still shares tuple
// storage with its previous incarnation (or both sides are empty; empty
// relations never share storage).

#ifndef INCDB_SERVICE_SNAPSHOT_H_
#define INCDB_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/database.h"

namespace incdb {

/// One published version of the database. Immutable after Make; always held
/// behind shared_ptr<const> so readers pin the version they started with.
class DatabaseSnapshot {
 public:
  /// Builds a snapshot of `db` at `version`, forcing every relation's lazy
  /// caches on the calling thread and diffing against `prev` (null for the
  /// seed snapshot) to update the last-changed map.
  static std::shared_ptr<const DatabaseSnapshot> Make(
      Database db, uint64_t version,
      const std::shared_ptr<const DatabaseSnapshot>& prev);

  const Database& db() const { return db_; }
  uint64_t version() const { return version_; }

  /// Version at which relation `name` last changed. 0 for relations that
  /// have been in place (or empty) since the seed snapshot.
  uint64_t LastChanged(const std::string& name) const;

  /// Version of the most recent publish that changed any relation (the seed
  /// version if nothing changed since). Whole-database dependents (plans
  /// with Δ, world-quantified notions) invalidate against this.
  uint64_t any_changed() const { return any_changed_; }

 private:
  DatabaseSnapshot(Database db, uint64_t version)
      : db_(std::move(db)), version_(version) {}

  Database db_;
  uint64_t version_;
  uint64_t any_changed_ = 0;
  std::map<std::string, uint64_t> last_changed_;
};

}  // namespace incdb

#endif  // INCDB_SERVICE_SNAPSHOT_H_
