#include "algebra/certain.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/eval.h"
#include "algebra/optimize.h"
#include "core/code_rows.h"
#include "engine/delta_eval.h"
#include "util/thread_pool.h"

namespace incdb {
namespace {

// Per-worker state of the enumeration drivers. The Gray driver calls each
// worker index from one thread at a time, so no slot ever needs a lock;
// only the final merge reads across slots.
struct Worker {
  // The worker's evaluator, built at the start of its Gray chain.
  std::unique_ptr<DeltaEvaluator> de;
  // Certain answers: the candidates present in every world of the worker's
  // chain so far. Possible answers: the union of the answers in the worlds
  // the worker saw. Code rows of the query's dictionary.
  CodeRows rows;
  // Certain answers: the worker saw at least one world, so `rows` is a real
  // intersection rather than the empty start value.
  bool started = false;
  EvalStats stats;
  Status error = Status::OK();
};

// One slot per chunk of the Gray driver, and at least one.
std::vector<Worker> MakeWorkers(const WorldSpace& space, int num_threads,
                                size_t arity) {
  const size_t n = std::max<size_t>(
      1, ParallelChunkCount(num_threads, space.domain.size(), /*grain=*/1));
  std::vector<Worker> workers(n);
  for (Worker& w : workers) w.rows = CodeRows(arity);
  return workers;
}

// Builds the worker's delta evaluator at the first world of its Gray chain
// (has_delta == false), or advances it by one single-null step. The
// evaluator counts into the worker's slot only when the caller has a sink.
Status StepDelta(Worker& w, const DeltaPlan& plan, const EvalOptions& options,
                 const Valuation& v, const ValuationDelta& d) {
  if (d.has_delta) return w.de->ApplyDelta(d);
  w.de = std::make_unique<DeltaEvaluator>(
      plan, options.stats != nullptr ? &w.stats : nullptr);
  return w.de->Initialize(v);
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

// Intersects the per-worker intersections on codes and decodes the result.
// ∩ is associative and commutative, so the answer is bit-identical to one
// intersection over every world. Workers that saw no world are skipped.
Relation IntersectWorkers(std::vector<Worker>& workers,
                          const DeltaPlan& plan) {
  CodeRows* acc = nullptr;
  std::vector<uint32_t> gone;
  for (Worker& w : workers) {
    if (!w.started) continue;
    if (acc == nullptr) {
      acc = &w.rows;
      continue;
    }
    gone.clear();
    acc->ForEach([&](uint32_t s) {
      if (!w.rows.Contains(acc->Row(s))) gone.push_back(s);
    });
    for (uint32_t s : gone) acc->Erase(s);
  }
  return acc == nullptr ? Relation(plan.arity()) : plan.Decode(*acc);
}

// Unions the per-worker unions on codes and decodes the result
// (bit-identical to one union over every world, for the same reasons as
// IntersectWorkers).
Relation UnionWorkers(std::vector<Worker>& workers, const DeltaPlan& plan) {
  CodeRows& acc = workers[0].rows;
  for (size_t i = 1; i < workers.size(); ++i) {
    const CodeRows& more = workers[i].rows;
    more.ForEach([&](uint32_t s) { acc.Insert(more.Row(s)); });
  }
  return plan.Decode(acc);
}

// The world budget, decided before any world is walked: the answer's
// status then depends only on the plan, the database and `max_worlds`,
// never on how far the chains got before an early exit stopped them.
Status CheckWorldBudget(const WorldSpace& space, uint64_t max_worlds) {
  if (space.Count() <= max_worlds) return Status::OK();
  return Status::ResourceExhausted("world enumeration exceeded max_worlds=" +
                                   std::to_string(max_worlds));
}

}  // namespace

Result<Relation> CertainAnswersNaive(const RAExprPtr& e, const Database& db,
                                     WorldSemantics semantics, bool force,
                                     const EvalOptions& options) {
  if (!force && !NaiveEvaluationWorks(e, semantics)) {
    std::string why;
    if (LiteralHoldsNull(e)) {
      why = " whose relation literal holds a null";
    } else if (const std::optional<Value> null = SelectionNull(e)) {
      why = " whose selection compares with the null " + null->ToString();
    }
    return Status::Unsupported(
        std::string("naive evaluation has no certain-answer guarantee for a ") +
        QueryClassName(Classify(e)) + " query under " +
        WorldSemanticsName(semantics) + why);
  }
  INCDB_ASSIGN_OR_RETURN(Relation naive, EvalNaive(e, db, options));
  return naive.CompletePart();
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

  const RAExprPtr plan = options.optimize ? Optimize(e, db) : e;
  const WorldSpace space = MakeWorldSpace(db, WithQueryConstants(e, opts));
  // A database without nulls is its own single world.
  if (space.nulls.empty()) return EvalNaive(plan, db, options);
  INCDB_RETURN_IF_ERROR(CheckWorldBudget(space, opts.max_worlds));
  INCDB_ASSIGN_OR_RETURN(const std::shared_ptr<const DeltaPlan> compiled,
                         DeltaPlan::Compile(plan, db, space));
  std::vector<Worker> workers =
      MakeWorkers(space, options.num_threads, arity);
  // One Gray chain per worker. The worker seeds its candidate set from its
  // chain's first world and thereafter only kills candidates reported
  // removed by ApplyDelta — an incremental intersection (a row absent from
  // any earlier world of the chain can never re-enter). Early exit: an empty
  // candidate set forces the answer empty, so it stops every worker; the
  // budget was checked above, so stopping early cannot change the status.
  Status st = ForEachValuationGrayParallel(
      db, space, opts.max_worlds, options.num_threads,
      [&](const Valuation& v, const ValuationDelta& d, size_t wi) {
        Worker& w = workers[wi];
        w.error = StepDelta(w, *compiled, options, v, d);
        if (!w.error.ok()) return false;
        if (d.has_delta) {
          const RowChanges& changes = w.de->changes();
          for (size_t i = 0; i < changes.size(); ++i) {
            if (changes.sign(i) < 0) w.rows.EraseRow(changes.Row(i));
          }
        } else {
          const CodeRows& out = w.de->output();
          out.ForEach([&](uint32_t s) { w.rows.Insert(out.Row(s)); });
          w.started = true;
        }
        return !w.rows.empty();
      });
  INCDB_RETURN_IF_ERROR(MergeWorkers(workers, options, st));
  return IntersectWorkers(workers, *compiled);
}

Result<Relation> PossibleAnswersEnum(const RAExprPtr& e, const Database& db,
                                     const WorldEnumOptions& opts,
                                     const EvalOptions& options) {
  INCDB_ASSIGN_OR_RETURN(size_t arity, e->InferArity(db.schema()));
  const RAExprPtr plan = options.optimize ? Optimize(e, db) : e;
  const WorldSpace space = MakeWorldSpace(db, WithQueryConstants(e, opts));
  if (space.nulls.empty()) return EvalNaive(plan, db, options);
  INCDB_RETURN_IF_ERROR(CheckWorldBudget(space, opts.max_worlds));
  INCDB_ASSIGN_OR_RETURN(const std::shared_ptr<const DeltaPlan> compiled,
                         DeltaPlan::Compile(plan, db, space));
  std::vector<Worker> workers =
      MakeWorkers(space, options.num_threads, arity);
  // One Gray chain per worker: the union only grows, so each worker adds
  // its chain's first output once and thereafter only the rows ApplyDelta
  // reports inserted.
  Status st = ForEachValuationGrayParallel(
      db, space, opts.max_worlds, options.num_threads,
      [&](const Valuation& v, const ValuationDelta& d, size_t wi) {
        Worker& w = workers[wi];
        w.error = StepDelta(w, *compiled, options, v, d);
        if (!w.error.ok()) return false;
        if (d.has_delta) {
          const RowChanges& changes = w.de->changes();
          for (size_t i = 0; i < changes.size(); ++i) {
            if (changes.sign(i) > 0) w.rows.Insert(changes.Row(i));
          }
        } else {
          const CodeRows& out = w.de->output();
          out.ForEach([&](uint32_t s) { w.rows.Insert(out.Row(s)); });
        }
        return true;
      });
  INCDB_RETURN_IF_ERROR(MergeWorkers(workers, options, st));
  return UnionWorkers(workers, *compiled);
}

}  // namespace incdb
