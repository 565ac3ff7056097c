// Random RA-plan generation for the differential fuzzing harness.
//
// Plans are generated bottom-up against a concrete database (scans use its
// relation names and arities; selection constants are drawn from its value
// domain and now and then from outside every dictionary; a relation
// literal's cell is now and then a null, one of the database's or a fresh
// one) and stratified by the paper's fragments: a requested QueryClass
// bounds the operator vocabulary —
//
//   kPositive: σ (positive predicates: =, AND, OR), π, ×, ∪, ∩, Δ
//   kRAcwa:    kPositive plus guarded division Q ÷ Q' with Q' ∈ RA(Δ,π,×,∪)
//   kFullRA:   everything — −, unguarded ÷, ≠ < ≤, NOT, IS NULL predicates
//
// Because the folding and the random draws may not use the extra operators,
// a plan requested at a larger fragment can land in a smaller one; the
// *actual* class is re-computed with algebra/classify.h and returned with
// the plan, and the oracle keys its checks off the actual class.

#ifndef INCDB_TESTING_FUZZ_GEN_H_
#define INCDB_TESTING_FUZZ_GEN_H_

#include <cstdint>
#include <vector>

#include "algebra/ast.h"
#include "algebra/classify.h"
#include "core/database.h"
#include "util/random.h"

namespace incdb {

/// Tunables for plan generation.
struct PlanGenConfig {
  /// Operator vocabulary bound (see header comment).
  QueryClass fragment = QueryClass::kFullRA;
  /// Maximum operator-tree depth above the scans.
  size_t max_depth = 3;
  /// Constants in predicates are drawn from [0, domain_size), and now and
  /// then are -1, domain_size or a string ('a', 's0a', 'zz') that sorts
  /// below, between or above the instance's strings.
  int64_t domain_size = 4;
  /// Probability that a unary position adds a selection / projection rather
  /// than recursing into a binary operator.
  double unary_bias = 0.5;
};

/// A generated plan with its statically computed fragment label.
struct GeneratedPlan {
  RAExprPtr plan;
  QueryClass actual_class = QueryClass::kPositive;
};

/// Generates one random plan over `db`'s schema. Always returns a plan whose
/// InferArity succeeds on db.schema() (arity bookkeeping is done during
/// generation) and whose actual class is within the requested fragment.
GeneratedPlan RandomPlan(Rng& rng, const Database& db,
                         const PlanGenConfig& config);

}  // namespace incdb

#endif  // INCDB_TESTING_FUZZ_GEN_H_
