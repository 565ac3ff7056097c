#include "algebra/certain.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algebra/eval.h"
#include "algebra/optimize.h"
#include "engine/delta_eval.h"
#include "util/thread_pool.h"

namespace incdb {
namespace {

// Forces a relation's lazily built shared state on the calling thread so
// parallel workers only read it.
void ForceRelation(const Relation& r) {
  r.tuples();
  r.HashIndex();
  r.IsComplete();
  r.Columnar();
}

// Forces every ConstRel literal in `e`, user-written ones included.
void ForcePlanLiterals(const RAExprPtr& e) {
  if (e == nullptr) return;
  if (e->kind() == RAExpr::Kind::kConstRel) ForceRelation(e->literal());
  ForcePlanLiterals(e->left());
  ForcePlanLiterals(e->right());
}

// Per-driver plan preparation: algebraic optimization (once, not per world)
// and literal forcing (so the workers fanned out below only read literals).
// Guards and fragment checks run on the caller's original expression; the
// optimizer preserves answers exactly.
RAExprPtr PrepareEnumPlan(const RAExprPtr& e, const Database& db,
                          const EvalOptions& options) {
  RAExprPtr plan = options.optimize ? Optimize(e, db) : e;
  ForcePlanLiterals(plan);
  return plan;
}

// True when the delta-evaluation path should drive enumeration for this
// plan: the knob is on, there is more than one world, and the plan compiles
// differentially (no Δ). The probe Build also forces the scanned relations'
// lazy state on the calling thread, which the parallel paths rely on.
bool DeltaEligible(const RAExprPtr& plan, const Database& db,
                   const EvalOptions& options) {
  if (!options.delta_eval || db.Nulls().empty()) return false;
  EvalOptions probe_options = options;
  probe_options.stats = nullptr;
  DeltaEvaluator probe;
  return probe.Build(plan, db, probe_options).ok();
}

// Per-worker state of the enumeration drivers. The parallel world drivers
// call each worker index from one thread at a time, so no slot ever needs a
// lock; only the final merge reads across slots.
struct Worker {
  // Delta path: the worker's evaluator, built at the start of its Gray chain.
  std::unique_ptr<DeltaEvaluator> de;
  // Certain answers on the delta path: the candidates present in every
  // world of the worker's chain so far.
  std::unordered_set<Tuple, TupleHash> alive;
  // The intersection (certain) or union (possible) of the answers in the
  // worlds the worker saw.
  Relation acc;
  // Certain answers: the worker saw at least one world, so `acc` (or
  // `alive`) is a real intersection rather than the empty start value.
  bool started = false;
  EvalStats stats;
  Status error = Status::OK();
};

// One slot per chunk of the parallel world drivers, and at least one: at
// one thread they hand off to the serial enumerators as worker 0, and a
// database without nulls is its own single world, also worker 0.
std::vector<Worker> MakeWorkers(const Database& db,
                                const WorldEnumOptions& opts, int num_threads,
                                size_t arity) {
  size_t n = 1;
  if (ResolveNumThreads(num_threads) > 1) {
    n = std::max<size_t>(1, ParallelChunkCount(num_threads,
                                               WorldDomain(db, opts).size(),
                                               /*grain=*/1));
  }
  std::vector<Worker> workers(n);
  for (Worker& w : workers) w.acc = Relation(arity);
  return workers;
}

// Builds the worker's delta evaluator at the first world of its Gray chain
// (has_delta == false), or advances it by one single-null step.
Status StepDelta(Worker& w, const RAExprPtr& plan, const Database& db,
                 const EvalOptions& options, const Valuation& v,
                 const ValuationDelta& d) {
  if (d.has_delta) return w.de->ApplyDelta(d);
  w.de = std::make_unique<DeltaEvaluator>();
  EvalOptions worker_options = options;
  worker_options.stats = &w.stats;
  INCDB_RETURN_IF_ERROR(w.de->Build(plan, db, worker_options));
  return w.de->Initialize(v);
}

// Evaluates the plan in one world into the worker's stats slot. Delta
// evaluation requested for a plan it rejects (one containing Δ) counts one
// fallback per world.
Result<Relation> EvalWorld(Worker& w, const RAExprPtr& plan,
                           const Database& world, const EvalOptions& options,
                           bool delta_fallback) {
  EvalOptions worker_options = options;
  worker_options.stats = &w.stats;
  INCDB_ASSIGN_OR_RETURN(Relation ans,
                         EvalComplete(plan, world, worker_options));
  if (delta_fallback) w.stats.CountDeltaFallbacks(1);
  return ans;
}

// Folds each worker's evaluator counters into its stats slot and merges the
// slots into the caller's sink in worker order. Returns the lowest-worker
// evaluation error if any, else the enumeration status `st`.
Status MergeWorkers(std::vector<Worker>& workers, const EvalOptions& options,
                    const Status& st) {
  Status error = Status::OK();
  for (Worker& w : workers) {
    if (w.de != nullptr) {
      w.stats.CountDeltaApplied(w.de->deltas_applied());
      w.stats.CountDeltaFallbacks(w.de->node_fallbacks());
    }
    if (options.stats != nullptr) options.stats->Merge(w.stats);
    if (error.ok() && !w.error.ok()) error = w.error;
  }
  INCDB_RETURN_IF_ERROR(error);
  return st;
}

// Intersects the per-worker intersections. ∩ is associative and commutative
// and Relation is canonical, so the result is bit-identical to one
// intersection over every world. Workers that saw no world are skipped.
Relation IntersectWorkers(std::vector<Worker>& workers, size_t arity) {
  bool any = false;
  Relation acc(arity);
  for (Worker& w : workers) {
    if (!w.started) continue;
    if (!any) {
      acc = std::move(w.acc);
      any = true;
      continue;
    }
    Relation next(arity);
    for (const Tuple& t : acc.tuples()) {
      if (w.acc.Contains(t)) next.Add(t);
    }
    acc = std::move(next);
  }
  return acc;
}

// Unions the per-worker unions (bit-identical to one union over every world,
// for the same reasons as IntersectWorkers).
Relation UnionWorkers(const std::vector<Worker>& workers, size_t arity) {
  Relation acc(arity);
  for (const Worker& w : workers) acc.AddAll(w.acc);
  return acc;
}

}  // namespace

Relation DropNullTuples(const Relation& r) {
  Relation out(r.arity());
  for (const Tuple& t : r.tuples()) {
    if (!t.HasNull()) out.Add(t);
  }
  return out;
}

Result<Relation> CertainAnswersNaive(const RAExprPtr& e, const Database& db,
                                     WorldSemantics semantics, bool force,
                                     const EvalOptions& options) {
  if (!force && !NaiveEvaluationWorks(e, semantics)) {
    return Status::Unsupported(
        std::string("naive evaluation has no certain-answer guarantee for a ") +
        QueryClassName(Classify(e)) + " query under " +
        WorldSemanticsName(semantics));
  }
  INCDB_ASSIGN_OR_RETURN(Relation naive, EvalNaive(e, db, options));
  return DropNullTuples(naive);
}

Result<Relation> CertainObjectNaive(const RAExprPtr& e, const Database& db,
                                    const EvalOptions& options) {
  return EvalNaive(e, db, options);
}

Result<Relation> CertainAnswersEnum(const RAExprPtr& e, const Database& db,
                                    WorldSemantics semantics,
                                    const WorldEnumOptions& opts,
                                    const EvalOptions& options) {
  INCDB_ASSIGN_OR_RETURN(size_t arity, e->InferArity(db.schema()));

  if (semantics == WorldSemantics::kOpenWorld ||
      semantics == WorldSemantics::kWeakClosedWorld) {
    // Sound only for monotone queries: the intersection over all worlds then
    // equals the intersection over the minimal worlds v(D).
    if (!IsPositive(e)) {
      return Status::Unsupported(
          "certain answers under owa/wcwa by enumeration require a positive "
          "(monotone) query; got " +
          std::string(QueryClassName(Classify(e))));
    }
  }

  const RAExprPtr plan = PrepareEnumPlan(e, db, options);
  const bool delta = DeltaEligible(plan, db, options);
  std::vector<Worker> workers =
      MakeWorkers(db, opts, options.num_threads, arity);
  if (delta) {
    // Delta driver: one Gray chain per worker. The worker seeds its
    // candidate set from its chain's first world and thereafter only kills
    // candidates reported removed by ApplyDelta — an incremental
    // intersection (a tuple absent from any earlier world of the chain can
    // never re-enter). Early exit: an empty candidate set forces the answer
    // empty, so it stops every worker.
    Status st = ForEachValuationGrayParallel(
        db, opts, options.num_threads,
        [&](const Valuation& v, const ValuationDelta& d, size_t wi) {
          Worker& w = workers[wi];
          w.error = StepDelta(w, plan, db, options, v, d);
          if (!w.error.ok()) return false;
          if (d.has_delta) {
            for (const Tuple& t : w.de->removed()) w.alive.erase(t);
          } else {
            const Relation out = w.de->Output();
            for (const Tuple& t : out.tuples()) w.alive.insert(t);
            w.started = true;
          }
          return !w.alive.empty();
        });
    INCDB_RETURN_IF_ERROR(MergeWorkers(workers, options, st));
    for (Worker& w : workers) {
      w.acc = Relation(arity,
                       std::vector<Tuple>(w.alive.begin(), w.alive.end()));
    }
    return IntersectWorkers(workers, arity);
  }
  // Per-world driver: each worker intersects the answers of its own
  // sub-space. Early exit: an empty worker intersection forces the answer
  // empty, so it stops every worker.
  const bool delta_fallback = options.delta_eval && !db.Nulls().empty();
  Status st = ForEachWorldCwaParallel(
      db, opts, options.num_threads, [&](const Database& world, size_t wi) {
        Worker& w = workers[wi];
        Result<Relation> ans = EvalWorld(w, plan, world, options,
                                         delta_fallback);
        if (!ans.ok()) {
          w.error = ans.status();
          return false;
        }
        if (!w.started) {
          w.acc = std::move(ans).value();
          w.started = true;
        } else {
          Relation next(arity);
          for (const Tuple& t : w.acc.tuples()) {
            if (ans->Contains(t)) next.Add(t);
          }
          w.acc = std::move(next);
        }
        return !w.acc.empty();
      });
  INCDB_RETURN_IF_ERROR(MergeWorkers(workers, options, st));
  return IntersectWorkers(workers, arity);
}

Result<Relation> PossibleAnswersEnum(const RAExprPtr& e, const Database& db,
                                     const WorldEnumOptions& opts,
                                     const EvalOptions& options) {
  INCDB_ASSIGN_OR_RETURN(size_t arity, e->InferArity(db.schema()));
  const RAExprPtr plan = PrepareEnumPlan(e, db, options);
  const bool delta = DeltaEligible(plan, db, options);
  std::vector<Worker> workers =
      MakeWorkers(db, opts, options.num_threads, arity);
  if (delta) {
    // Delta driver: the union only grows, so each worker adds its chain's
    // first output once and thereafter only the tuples ApplyDelta reports
    // inserted.
    Status st = ForEachValuationGrayParallel(
        db, opts, options.num_threads,
        [&](const Valuation& v, const ValuationDelta& d, size_t wi) {
          Worker& w = workers[wi];
          w.error = StepDelta(w, plan, db, options, v, d);
          if (!w.error.ok()) return false;
          if (d.has_delta) {
            for (const Tuple& t : w.de->added()) w.acc.Add(t);
          } else {
            w.acc.AddAll(w.de->Output());
          }
          return true;
        });
    INCDB_RETURN_IF_ERROR(MergeWorkers(workers, options, st));
    return UnionWorkers(workers, arity);
  }
  // Per-world driver: per-worker unions merged at the end.
  const bool delta_fallback = options.delta_eval && !db.Nulls().empty();
  Status st = ForEachWorldCwaParallel(
      db, opts, options.num_threads, [&](const Database& world, size_t wi) {
        Worker& w = workers[wi];
        Result<Relation> ans = EvalWorld(w, plan, world, options,
                                         delta_fallback);
        if (!ans.ok()) {
          w.error = ans.status();
          return false;
        }
        w.acc.AddAll(*ans);
        return true;
      });
  INCDB_RETURN_IF_ERROR(MergeWorkers(workers, options, st));
  return UnionWorkers(workers, arity);
}

}  // namespace incdb
