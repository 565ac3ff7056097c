#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <utility>

#include "algebra/optimize.h"
#include "algebra/parser.h"
#include "sql/parser.h"
#include "sql/to_algebra.h"

namespace incdb {

namespace {

// RAII admission gate over the in-flight counter. Rejection is immediate —
// the service never queues work it cannot start.
class InFlightGuard {
 public:
  InFlightGuard(std::atomic<int>* counter, int limit) : counter_(counter) {
    const int prev = counter_->fetch_add(1, std::memory_order_acq_rel);
    admitted_ = limit <= 0 || prev < limit;
    if (!admitted_) counter_->fetch_sub(1, std::memory_order_acq_rel);
  }
  ~InFlightGuard() {
    if (admitted_) counter_->fetch_sub(1, std::memory_order_acq_rel);
  }
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

  bool admitted() const { return admitted_; }

 private:
  std::atomic<int>* counter_;
  bool admitted_ = false;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

void CollectScans(const RAExprPtr& e, std::set<std::string>* scans,
                  bool* has_delta) {
  if (e == nullptr) return;
  if (e->kind() == RAExpr::Kind::kScan) scans->insert(e->relation_name());
  if (e->kind() == RAExpr::Kind::kDelta) *has_delta = true;
  CollectScans(e->left(), scans, has_delta);
  CollectScans(e->right(), scans, has_delta);
}

// The world-quantified notions range over valuations of the *whole*
// instance: the enumeration domain and null set change whenever any
// relation does, so their cached answers depend on everything.
bool NotionDependsOnWholeDatabase(AnswerNotion n) {
  return n == AnswerNotion::kCertainEnum || n == AnswerNotion::kPossible ||
         n == AnswerNotion::kCertainWithProbability;
}

// Digest of every request field besides the query that can change the
// answer or the reported counters. The engine's knobs preserve answers but
// not stats (e.g. the delta/fallback split varies with num_threads), and a
// hit returns the stored response verbatim — so all of them key the cache.
std::string OptionsIdentity(const QueryRequest& req) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "n%d s%d b%d f%d|w%d/%llu|e%d/%d/%zu/%d/%d|p%.17g/%llu/%llu/"
      "%.17g/%d/%d/%llu",
      static_cast<int>(req.notion), static_cast<int>(req.semantics),
      static_cast<int>(req.backend), req.force ? 1 : 0,
      req.world_options.fresh_constants,
      static_cast<unsigned long long>(req.world_options.max_worlds),
      req.eval.use_hash_kernels ? 1 : 0, req.eval.num_threads,
      req.eval.parallel_row_threshold, req.eval.optimize ? 1 : 0,
      req.eval.delta_eval ? 1 : 0, req.probability.threshold,
      static_cast<unsigned long long>(req.probability.sampling.samples),
      static_cast<unsigned long long>(req.probability.sampling.seed),
      req.probability.sampling.z, req.probability.sampling.num_threads,
      req.probability.force_sampling ? 1 : 0,
      static_cast<unsigned long long>(req.probability.max_exact_worlds));
  std::string out = buf;
  for (const Value& v : req.world_options.required_constants) {
    out += '|';
    out += v.ToString();
  }
  return out;
}

// How one request interacts with the cache.
struct CachePlan {
  bool cacheable = false;
  uint64_t key = 0;
  std::string identity;
  std::vector<std::string> scans;  // sorted unique
  bool depends_on_all = false;
  RAExprPtr parsed_ra;  // set when the service parsed RA text itself
};

Result<CachePlan> AnalyzeRequest(const QueryRequest& req) {
  CachePlan out;
  RAExprPtr plan;
  switch (req.input.kind()) {
    case QueryInput::Kind::kRaText: {
      INCDB_ASSIGN_OR_RETURN(plan, ParseRA(req.input.text()));
      out.parsed_ra = plan;
      break;
    }
    case QueryInput::Kind::kRa:
      plan = req.input.ra();
      break;
    case QueryInput::Kind::kSqlText: {
      // SQL caches by text. Its evaluator reads whatever FROM clauses and
      // subqueries name, so the entry conservatively depends on everything.
      out.cacheable = true;
      out.key = Mix(std::hash<std::string>{}(req.input.text()), 0x53514cull);
      out.identity = "sql:" + req.input.text();
      out.depends_on_all = true;
      return out;
    }
    default:
      // kSql ASTs have no stable textual identity here; kNone errors in the
      // engine. Both pass through uncached.
      return out;
  }
  if (plan == nullptr) return out;

  std::set<std::string> scans;
  bool has_delta = false;
  CollectScans(plan, &scans, &has_delta);
  out.cacheable = true;
  out.key = RAFingerprint(plan);
  out.identity = "ra:" + plan->ToString();
  out.depends_on_all = has_delta || NotionDependsOnWholeDatabase(req.notion);
  if (!out.depends_on_all) {
    out.scans.assign(scans.begin(), scans.end());
  }
  return out;
}

}  // namespace

Result<ServiceResponse> Session::Run(const QueryRequest& request) {
  return service_->Run(request);
}

Result<uint64_t> Session::Ingest(const std::vector<IngestRow>& batch) {
  return service_->Ingest(batch);
}

uint64_t Session::SnapshotVersion() const {
  return service_->SnapshotVersion();
}

IncDbService::IncDbService(Database db, ServiceLimits limits)
    : limits_(limits), cache_(limits.plan_cache_capacity) {
  snapshot_ = DatabaseSnapshot::Make(std::move(db), 1, nullptr);
  version_.store(1, std::memory_order_release);
  snapshots_published_.store(1, std::memory_order_relaxed);
}

std::shared_ptr<const DatabaseSnapshot> IncDbService::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

Result<ServiceResponse> IncDbService::Run(const QueryRequest& request) {
  InFlightGuard guard(&in_flight_, limits_.max_in_flight);
  if (!guard.admitted()) {
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "service overloaded: too many in-flight queries");
  }
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Pin the snapshot for the whole evaluation: everything below sees one
  // version no matter how many publishes land meanwhile.
  const std::shared_ptr<const DatabaseSnapshot> snap = CurrentSnapshot();

  // Map the admission budgets onto the engine's knobs (clamp down only).
  QueryRequest req = request;
  if (limits_.max_worlds_per_query > 0) {
    req.world_options.max_worlds =
        std::min(req.world_options.max_worlds, limits_.max_worlds_per_query);
  }
  if (limits_.max_threads_per_query > 0) {
    auto clamp = [this](int n) {
      return n == 0 ? limits_.max_threads_per_query
                    : std::min(n, limits_.max_threads_per_query);
    };
    req.eval.num_threads = clamp(req.eval.num_threads);
    req.probability.sampling.num_threads =
        clamp(req.probability.sampling.num_threads);
  }

  // The cache key covers the *clamped* request, so equal effective requests
  // share an entry regardless of how they were phrased.
  INCDB_ASSIGN_OR_RETURN(CachePlan cp, AnalyzeRequest(req));
  if (cp.cacheable) {
    cp.key = Mix(cp.key, std::hash<std::string>{}(OptionsIdentity(req)));
    cp.identity += '\x1f';
    cp.identity += OptionsIdentity(req);
    if (auto entry = cache_.Lookup(cp.key, cp.identity, *snap)) {
      queries_.fetch_add(1, std::memory_order_relaxed);
      if (request.eval.stats != nullptr) {
        request.eval.stats->Merge(entry->response.stats);
      }
      ServiceResponse out;
      out.response = entry->response;
      out.snapshot_version = snap->version();
      out.cache_hit = true;
      out.seconds = elapsed();
      return out;
    }
  }

  // Cold path: evaluate against the pinned snapshot. Reuse the parse the
  // analysis already did.
  QueryRequest engine_req = req;
  if (cp.parsed_ra != nullptr) {
    engine_req.input = QueryInput::Ra(cp.parsed_ra);
  }
  const QueryEngine engine(snap->db());
  INCDB_ASSIGN_OR_RETURN(QueryResponse resp, engine.Run(engine_req));
  queries_.fetch_add(1, std::memory_order_relaxed);

  if (limits_.max_result_rows > 0 &&
      resp.relation.size() > limits_.max_result_rows) {
    rejected_budget_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted("result exceeds the row budget");
  }
  if (limits_.max_query_seconds > 0 && elapsed() > limits_.max_query_seconds) {
    rejected_budget_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted("query exceeded the time budget");
  }

  // A zero-capacity cache would drop the entry on insert: skip building it.
  if (cp.cacheable && cache_.capacity() > 0) {
    auto entry = std::make_shared<PlanCacheEntry>();
    entry->identity = std::move(cp.identity);
    entry->response = resp;
    entry->scans = std::move(cp.scans);
    entry->depends_on_all = cp.depends_on_all;
    entry->snapshot_version = snap->version();
    // Force the stored relation's caches so hit-path copies are read-only.
    entry->response.relation.tuples();
    entry->response.relation.HashIndex();
    entry->response.relation.IsComplete();
    cache_.Insert(cp.key, std::move(entry));
  }

  ServiceResponse out;
  out.response = std::move(resp);
  out.snapshot_version = snap->version();
  out.cache_hit = false;
  out.seconds = elapsed();
  return out;
}

Result<uint64_t> IncDbService::Ingest(const std::vector<IngestRow>& batch) {
  std::lock_guard<std::mutex> writer(write_mu_);
  const std::shared_ptr<const DatabaseSnapshot> snap = CurrentSnapshot();

  // Validate up front: Relation::Add aborts on arity mismatches, and a
  // half-applied batch must never publish.
  for (const IngestRow& row : batch) {
    if (row.relation.empty()) {
      return Status::InvalidArgument("ingest: empty relation name");
    }
    size_t expected = row.tuple.arity();
    if (snap->db().HasRelation(row.relation)) {
      expected = snap->db().GetRelation(row.relation).arity();
    } else if (snap->db().schema().HasRelation(row.relation)) {
      expected = *snap->db().schema().Arity(row.relation);
    }
    if (row.tuple.arity() != expected) {
      return Status::InvalidArgument(
          "ingest: arity mismatch for relation " + row.relation);
    }
  }

  Database next = snap->db();  // CoW: untouched relations stay shared
  for (const IngestRow& row : batch) next.AddTuple(row.relation, row.tuple);
  return Publish(std::move(next));
}

Result<uint64_t> IncDbService::Replace(Database db) {
  std::lock_guard<std::mutex> writer(write_mu_);
  return Publish(std::move(db));
}

uint64_t IncDbService::Publish(Database next) {
  const std::shared_ptr<const DatabaseSnapshot> prev = CurrentSnapshot();
  const uint64_t v = prev->version() + 1;
  // Forcing and diffing happen here, on the writer thread, before anyone
  // can see the snapshot.
  auto snap = DatabaseSnapshot::Make(std::move(next), v, prev);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = snap;
  }
  version_.store(v, std::memory_order_release);
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
  // Eager sweep reclaims capacity; correctness never depends on it (lookup
  // re-validates against the reader's snapshot).
  cache_.Sweep(*snap);
  return v;
}

ServiceStats IncDbService::Stats() const {
  ServiceStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.rejected_budget = rejected_budget_.load(std::memory_order_relaxed);
  s.snapshots_published = snapshots_published_.load(std::memory_order_relaxed);
  s.invalidated_entries = cache_.invalidated();
  s.cache_entries = cache_.size();
  return s;
}

}  // namespace incdb
