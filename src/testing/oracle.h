// DifferentialOracle: runs one (plan, database) pair through every evaluator
// configuration the engine offers and checks the relationships the paper
// proves between them.
//
// Equality checks (bit-identical Relation ==):
//  * CertainAnswersEnum under CWA across the knob matrix — the columnar
//    engine with optimizer on/off × delta evaluation on/off serially, plus
//    two parallel configurations — against the nested-loop serial reference
//    (7 configurations in all).
//  * PossibleAnswersEnum across the same matrix.
//  * QueryEngine::Run(kCertainEnum) against the direct driver (facade
//    faithfulness).
//  * service path: the same request through a shared IncDbService session
//    (service/service.h) — certain and possible answers must match the
//    direct drivers, on the cold run and again from the plan cache.
//  * CertainAnswersNaive == CertainAnswersEnum whenever
//    NaiveEvaluationWorks(plan, semantics) — equation (4): naïve evaluation
//    computes certain answers on UCQ/OWA and Pos∀G(=RA_cwa)/CWA.
//  * c-tables: Q evaluated on the lifted c-database, then grounded world by
//    world — v(Q(T)) must equal Q(v(D)) for every valuation v over the
//    enumeration domain (the strong representation property).
//  * c-table backend: CertainAnswersCTable / PossibleAnswersCTable (the
//    native pipeline — normalizing kernels + condition-level extraction,
//    no world ever materialized) against the enumeration reference, and
//    QueryEngine::Run on Backend::kCTable against both.
//  * probabilistic notion: exact per-tuple probabilities (both backends)
//    must report exactly the possible tuples with probability 1 exactly on
//    the certain tuples; forced-sampling tallies must be bit-identical
//    across backends and thread counts at a fixed seed, with every certain
//    tuple estimated at exactly 1 (only the sound directions are checked —
//    a sampled estimate of 1.0 does not imply certainty).
//
// Containment checks (sound-but-incomplete relationships):
//  * 3VL: null-free SQL answers ⊆ certain answers, on positive plans.
//  * certain ⊆ possible.
//
// Every violation is reported as a human-readable string naming the check
// and the two sides; an empty report means the case passed. Cases whose
// world space exceeds `max_worlds_per_case` are skipped (reported in
// `skipped`), as are evaluator kUnsupported refusals — only genuine
// disagreements count as violations.

#ifndef INCDB_TESTING_ORACLE_H_
#define INCDB_TESTING_ORACLE_H_

#include <string>
#include <vector>

#include "algebra/ast.h"
#include "core/database.h"
#include "core/valuation.h"

namespace incdb {

/// Oracle tunables.
struct OracleOptions {
  /// Cases with more CWA worlds than this are skipped, not evaluated.
  uint64_t max_worlds_per_case = 20'000;
  /// Threads for the parallel configurations.
  int num_threads = 4;
  /// Run the (expensive) per-world c-table grounding check.
  bool check_ctables = true;
  /// Cross-check the c-table-native certain/possible backend against the
  /// enumeration reference (kUnsupported refusals are skipped, e.g. order
  /// comparisons on nulls outside the c-table condition language).
  bool check_ctable_backend = true;
  /// Run the checks under OWA as well (positive plans only).
  bool check_owa = true;
  /// Cross-check the probabilistic notion (kCertainWithProbability): exact
  /// probabilities against the certain/possible ground truth, and
  /// forced-sampling tallies for backend/thread-count bit-identity at a
  /// fixed seed.
  bool check_sampling = true;
  /// Monte-Carlo samples per forced-sampling configuration.
  uint64_t sampling_samples = 1'000;
  /// Route the case through a shared IncDbService session (service/) and
  /// cross-check against the direct QueryEngine path — both the cold run
  /// and the plan-cache hit the repeated query must be served from.
  bool check_service = true;
  /// Test hook: corrupt the result of one non-reference configuration by
  /// injecting a bogus tuple, so the harness's catch-and-shrink path can be
  /// exercised without actually breaking a kernel. 0 = off.
  int inject_fault = 0;
};

/// Outcome of checking one case.
struct OracleReport {
  std::vector<std::string> violations;  ///< empty = case passed
  std::vector<std::string> skipped;     ///< checks not run, with reasons
  int configs_run = 0;                  ///< evaluator configurations compared

  bool ok() const { return violations.empty(); }
};

/// Cross-checks all evaluator configurations on (plan, db).
OracleReport CheckCase(const RAExprPtr& plan, const Database& db,
                       const OracleOptions& options = {});

}  // namespace incdb

#endif  // INCDB_TESTING_ORACLE_H_
