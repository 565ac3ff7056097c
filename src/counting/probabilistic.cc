#include "counting/probabilistic.h"

#include <map>
#include <memory>
#include <utility>

#include "algebra/eval.h"
#include "algebra/optimize.h"
#include "core/code_rows.h"
#include "counting/world_count.h"
#include "ctables/code_ctable.h"
#include "engine/delta_eval.h"

namespace incdb {
namespace {

constexpr double kWilsonZ = 1.96;  // a sampled probability's 95% interval

Status CheckCwa(WorldSemantics semantics) {
  if (semantics != WorldSemantics::kClosedWorld) {
    return Status::Unsupported(
        "answer probabilities are defined over the CWA valuation measure; "
        "OWA/WCWA world sets carry no uniform distribution");
  }
  return Status::OK();
}

// Emits the thresholded relation and (optionally) the probability table
// from the canonical tuple → probability map.
Relation EmitAnswers(size_t arity,
                     const std::map<Tuple, TupleProbability>& table,
                     double threshold,
                     std::vector<TupleProbability>* probabilities) {
  Relation out(arity);
  if (probabilities != nullptr) probabilities->clear();
  for (const auto& [tuple, p] : table) {
    if (probabilities != nullptr) probabilities->push_back(p);
    if (p.probability >= threshold) out.Add(tuple);
  }
  return out;
}

}  // namespace

Result<Relation> CertainAnswersWithProbabilityEnum(
    const RAExprPtr& e, const Database& db, WorldSemantics semantics,
    const ProbabilisticOptions& popts, const WorldEnumOptions& wopts,
    const EvalOptions& options,
    std::vector<TupleProbability>* probabilities) {
  INCDB_RETURN_IF_ERROR(CheckCwa(semantics));
  INCDB_ASSIGN_OR_RETURN(const size_t arity, e->InferArity(db.schema()));
  RAExprPtr plan = e;
  if (options.optimize) plan = Optimize(plan, db);

  const WorldSpace space = MakeWorldSpace(db, WithQueryConstants(e, wopts));
  if (!space.nulls.empty() && space.domain.empty()) {
    return Status::InvalidArgument("empty world domain with nulls present");
  }

  // Per-sample evaluations must not re-optimize, and the sampled path runs
  // them concurrently on the query's threads, so they get no shared stats
  // sink and no nested parallelism.
  EvalOptions body = options;
  body.optimize = false;
  body.stats = nullptr;
  body.num_threads = 1;

  std::map<Tuple, TupleProbability> table;
  const uint64_t total = space.Count();
  const bool exact = !popts.force_sampling && total != UINT64_MAX &&
                     total <= popts.max_exact_worlds &&
                     total <= wopts.max_worlds;
  if (exact) {
    // One serial Gray chain through the delta evaluator. A row's count is
    // the length of every run of consecutive worlds that contain it: a run
    // opens where the row enters and closes where it leaves, or at the
    // world count when it is still open after the last world. Rows stay
    // codes until the table is built.
    INCDB_ASSIGN_OR_RETURN(const std::shared_ptr<const DeltaPlan> compiled,
                           DeltaPlan::Compile(plan, db, space));
    DeltaEvaluator de(*compiled, options.stats);
    CodeRows entered(arity), hit_rows(arity);
    std::vector<uint64_t> entered_at, hit_worlds;
    auto enter = [&](const uint32_t* row, uint64_t world) {
      bool inserted;
      const uint32_t s = entered.Insert(row, &inserted);
      if (s >= entered_at.size()) entered_at.resize(entered.slot_bound());
      if (inserted) entered_at[s] = world;
    };
    auto count = [&](const uint32_t* row, uint64_t worlds) {
      bool inserted;
      const uint32_t s = hit_rows.Insert(row, &inserted);
      if (s >= hit_worlds.size()) hit_worlds.resize(hit_rows.slot_bound());
      if (inserted) hit_worlds[s] = 0;
      hit_worlds[s] += worlds;
    };
    uint64_t world = 0;
    Status eval_status = Status::OK();
    INCDB_RETURN_IF_ERROR(ForEachValuationGrayParallel(
        db, space, wopts.max_worlds, /*num_threads=*/1,
        [&](const Valuation& v, const ValuationDelta& d, size_t) {
          if (d.has_delta) {
            ++world;
            eval_status = de.ApplyDelta(d);
            if (!eval_status.ok()) return false;
            const RowChanges& changes = de.changes();
            for (size_t i = 0; i < changes.size(); ++i) {
              const uint32_t* row = changes.Row(i);
              if (changes.sign(i) > 0) {
                enter(row, world);
                continue;
              }
              const uint32_t s = entered.Find(row);
              count(row, world - entered_at[s]);
              entered.Erase(s);
            }
            return true;
          }
          eval_status = de.Initialize(v);
          if (!eval_status.ok()) return false;
          const CodeRows& out = de.output();
          out.ForEach([&](uint32_t s) { enter(out.Row(s), 0); });
          return true;
        }));
    INCDB_RETURN_IF_ERROR(eval_status);
    entered.ForEach(
        [&](uint32_t s) { count(entered.Row(s), total - entered_at[s]); });
    if (options.stats != nullptr) {
      options.stats->CountWorldsCounted(total);
      options.stats->CountExactCountHits(hit_rows.size());
      options.stats->CountDeltaApplied(de.deltas_applied());
      options.stats->CountDeltaFallbacks(de.node_fallbacks());
    }
    hit_rows.ForEach([&](uint32_t s) {
      Tuple tuple = compiled->Decode(hit_rows.Row(s));
      const double p =
          static_cast<double>(hit_worlds[s]) / static_cast<double>(total);
      table.emplace(tuple, TupleProbability{tuple, p, p, p, /*exact=*/true});
    });
  } else {
    INCDB_ASSIGN_OR_RETURN(
        const SampleTally tally,
        SampleTupleFrequencies(
            space.nulls, space.domain, popts.sampling, options.num_threads,
            [&](const Valuation& v,
                std::vector<Tuple>* world_tuples) -> Result<bool> {
              INCDB_ASSIGN_OR_RETURN(const Relation r,
                                     EvalNaive(plan, v.Apply(db), body));
              *world_tuples = r.tuples();
              return true;
            },
            options.stats));
    for (const auto& [tuple, count] : tally.hits) {
      const double p =
          static_cast<double>(count) / static_cast<double>(tally.effective);
      const Interval ci = WilsonInterval(count, tally.effective, kWilsonZ);
      table[tuple] =
          TupleProbability{tuple, p, ci.low, ci.high, /*exact=*/false};
    }
  }
  return EmitAnswers(arity, table, popts.threshold, probabilities);
}

namespace {

// The probability table of the result c-table `result` of `query`, whose
// encoding was made for `space`: candidates, exact counts where the budget
// allows, one sampling pass for the rest.
Result<Relation> ProbabilitiesOnCodes(
    CTableQuery* query, const CodeCTable& result, const WorldSpace& space,
    const ProbabilisticOptions& popts, const WorldEnumOptions& wopts,
    const EvalOptions& options,
    std::vector<TupleProbability>* probabilities) {
  const std::vector<NullId>& nulls = space.nulls;
  const std::vector<Value>& domain = space.domain;
  if (!nulls.empty() && domain.empty()) {
    return Status::InvalidArgument("empty world domain with nulls present");
  }
  const uint64_t budget = wopts.max_worlds;
  CondArena& arena = query->arena();
  const uint32_t global = result.global;
  uint64_t left = budget;
  INCDB_ASSIGN_OR_RETURN(const bool global_sat,
                         query->solver().Satisfiable(global, &left));
  if (!global_sat) {
    return Status::InvalidArgument(
        "c-table global condition is unsatisfiable over the domain: the "
        "represented world set is empty");
  }

  // Candidates are exactly the possible rows — the probability-> 0 set.
  INCDB_ASSIGN_OR_RETURN(const SortedCodeRows candidates,
                         query->Possible(result, budget, options.stats));

  // The conditioning denominator: #satisfying(global). A plan over a
  // database has global condition `true`: the free-null fast path.
  bool exact_global = false;
  WorldCount global_count;
  if (!popts.force_sampling) {
    Result<WorldCount> g =
        CountSatisfying(global, &arena, &query->solver(), query->enc(),
                        budget, options.stats);
    if (g.ok()) {
      global_count = *g;
      exact_global = global_count.fraction > 0.0;
    } else if (g.status().code() != StatusCode::kResourceExhausted) {
      return g.status();
    }
  }

  const size_t arity = result.arity;
  std::map<Tuple, TupleProbability> table;
  // Candidates whose exact count blew the budget, with their membership
  // conditions. The arena is complete before the sampling pass starts,
  // which only reads it (CondArena::Eval).
  std::vector<std::pair<Tuple, uint32_t>> sampled;
  const CodeRowIndex index(result);
  for (size_t k = 0; k < candidates.size; ++k) {
    const uint32_t* cand = candidates.Row(k);
    Tuple tuple = query->DecodeRow(cand, arity);
    const uint32_t membership =
        arena.And(global, query->Membership(result, index, cand));
    if (exact_global) {
      Result<WorldCount> wc =
          CountSatisfying(membership, &arena, &query->solver(), query->enc(),
                          budget, options.stats);
      if (wc.ok()) {
        const double p = wc->fraction / global_count.fraction;
        table[tuple] = TupleProbability{tuple, p, p, p, /*exact=*/true};
        if (options.stats != nullptr) options.stats->CountExactCountHits(1);
        continue;
      }
      if (wc.status().code() != StatusCode::kResourceExhausted) {
        return wc.status();
      }
    }
    sampled.emplace_back(std::move(tuple), membership);
  }

  if (!sampled.empty()) {
    const ValueDict& dict = query->enc().dict();
    INCDB_ASSIGN_OR_RETURN(
        const SampleTally tally,
        SampleTupleFrequencies(
            nulls, domain, popts.sampling, options.num_threads,
            [&](const Valuation& v,
                std::vector<Tuple>* world_tuples) -> Result<bool> {
              std::vector<uint32_t> codes(nulls.size());
              for (size_t s = 0; s < nulls.size(); ++s) {
                codes[s] = dict.Find(v.Lookup(nulls[s]));
              }
              if (!arena.Eval(global, codes.data())) return false;
              for (const auto& [cand, membership] : sampled) {
                // membership already conjoins global, so under an admitted
                // valuation it reduces to the D_t test.
                if (arena.Eval(membership, codes.data())) {
                  world_tuples->push_back(cand);
                }
              }
              return true;
            },
            options.stats));
    for (const auto& [cand, membership] : sampled) {
      const auto it = tally.hits.find(cand);
      // Match the enumeration driver: tuples never observed in an admitted
      // sample are not reported.
      if (it == tally.hits.end() || tally.effective == 0) continue;
      const double p = static_cast<double>(it->second) /
                       static_cast<double>(tally.effective);
      const Interval ci =
          WilsonInterval(it->second, tally.effective, kWilsonZ);
      table[cand] =
          TupleProbability{cand, p, ci.low, ci.high, /*exact=*/false};
    }
  }
  return EmitAnswers(arity, table, popts.threshold, probabilities);
}

}  // namespace

Result<Relation> CertainAnswersWithProbabilityCTable(
    const RAExprPtr& e, const Database& db, WorldSemantics semantics,
    const ProbabilisticOptions& popts, const WorldEnumOptions& wopts,
    const EvalOptions& options,
    std::vector<TupleProbability>* probabilities) {
  INCDB_RETURN_IF_ERROR(CheckCwa(semantics));
  INCDB_RETURN_IF_ERROR(e->InferArity(db.schema()).status());
  RAExprPtr plan = e;
  if (options.optimize) plan = Optimize(plan, db);

  const WorldSpace space = MakeWorldSpace(db, WithQueryConstants(e, wopts));
  INCDB_ASSIGN_OR_RETURN(const std::unique_ptr<CTableQuery> query,
                         CTableQuery::Make(plan, space));
  INCDB_ASSIGN_OR_RETURN(const CodeCTable result,
                         query->Eval(plan, db, options));
  Result<Relation> answers = ProbabilitiesOnCodes(
      query.get(), result, space, popts, wopts, options, probabilities);
  query->CountConditionWork(options.stats);
  return answers;
}

}  // namespace incdb
