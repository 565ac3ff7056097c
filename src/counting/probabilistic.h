// Probabilistic answers: per-tuple answer probabilities over the uniform
// valuation measure, exact where counting is tractable and Monte-Carlo
// sampled elsewhere (Arenas–Barceló–Monet).
//
// The measure: valuations of Null(D) into the enumeration domain
// (core/possible_worlds WorldDomain) are equally likely — |domain|^#nulls
// worlds. A tuple's probability is the fraction of valuations whose world
// contains it; probability 1.0 is exactly "certain", probability > 0
// exactly "possible". The new QueryEngine notion kCertainWithProbability
// returns the tuples whose probability reaches a threshold, alongside the
// full per-tuple probability/CI table.
//
// Two drivers mirror the Backend knob:
//
//  * CertainAnswersWithProbabilityEnum — when the world count fits the
//    exact gate, walk every world along one Gray chain through the delta
//    evaluator (engine/delta_eval.h) and count, per tuple, the worlds
//    between its entries into and exits from the answer (exact fractions,
//    degenerate CI [p, p]); otherwise draw seeded valuation samples,
//    materialize each sampled world, evaluate the plan on it, and tally
//    (Wilson CIs).
//  * CertainAnswersWithProbabilityCTable — evaluate the plan ONCE on the
//    c-table representation; each candidate tuple's membership event
//    becomes a condition global ∧ D_t whose satisfying valuations are
//    counted exactly by independence factoring (counting/world_count.h)
//    where the budget allows, and sampled by evaluating the condition per
//    sampled valuation elsewhere. At 20+ nulls with independent
//    conditions this stays exact where enumeration is hopeless.
//
// Both drivers draw the same (seed, index)-derived valuation stream over
// the same domain, so their sampled tallies — and the full probability
// tables — are bit-identical at equal seeds (the strong-representation
// property, cross-checked by the differential oracle), at every
// EvalOptions::num_threads, which the sampling pass runs on.

#ifndef INCDB_COUNTING_PROBABILISTIC_H_
#define INCDB_COUNTING_PROBABILISTIC_H_

#include <vector>

#include "algebra/ast.h"
#include "core/database.h"
#include "core/possible_worlds.h"
#include "core/valuation.h"
#include "counting/sampler.h"
#include "engine/stats.h"

namespace incdb {

/// Knobs for the probabilistic notion.
struct ProbabilisticOptions {
  /// Tuples with probability ≥ threshold form the answer relation. The
  /// default 1.0 makes the exact path reproduce certain answers; lower it
  /// for "certain with probability ≥ p".
  double threshold = 1.0;
  /// Monte-Carlo knobs for the sampled path (samples, seed); the pass runs
  /// on EvalOptions::num_threads.
  SamplingOptions sampling;
  /// Skip the exact path even where it is affordable (benchmarking and
  /// sampled-vs-exact cross-checks).
  bool force_sampling = false;
  /// Exact gate of the enumeration driver: enumerate-and-count only when
  /// the world count is at most this (and at most max_worlds); sample
  /// otherwise. Separate from max_worlds because per-world plan evaluation
  /// is far costlier than one enumeration callback.
  uint64_t max_exact_worlds = 100'000;
};

/// One row of the probability table.
struct TupleProbability {
  Tuple tuple;
  /// P(tuple ∈ world), conditioned on the global condition where one
  /// exists. Exact fraction or Monte-Carlo estimate per `exact`.
  double probability = 0.0;
  /// Wilson interval at z = 1.96 (≈ 95%); degenerate [p, p] when exact.
  double ci_low = 0.0;
  double ci_high = 1.0;
  /// True when the probability came from an exact count, false when
  /// estimated by sampling.
  bool exact = false;
};

/// Probabilistic answers on the enumeration backend. Only tuples with
/// non-zero observed probability are reported (the possible tuples on the
/// exact path; the sampled-in-some-world tuples otherwise), in canonical
/// tuple order. Returns the thresholded relation; the full table lands in
/// `probabilities` when non-null. CWA only (the valuation measure is a CWA
/// object): kUnsupported under OWA/WCWA. `options.stats` receives
/// worlds_counted / samples_drawn / exact_count_hits, and on the exact path
/// delta_applied / delta_fallbacks.
Result<Relation> CertainAnswersWithProbabilityEnum(
    const RAExprPtr& e, const Database& db, WorldSemantics semantics,
    const ProbabilisticOptions& popts, const WorldEnumOptions& wopts = {},
    const EvalOptions& options = {},
    std::vector<TupleProbability>* probabilities = nullptr);

/// Probabilistic answers on the c-table backend: one representation-level
/// evaluation, then per-candidate exact counting with sampling fallback.
/// Same contract and bit-identical sampled tallies as the Enum driver at
/// equal seeds; exact probabilities agree up to FP rounding. Fails
/// InvalidArgument when the result table's global condition is
/// unsatisfiable (empty world set).
Result<Relation> CertainAnswersWithProbabilityCTable(
    const RAExprPtr& e, const Database& db, WorldSemantics semantics,
    const ProbabilisticOptions& popts, const WorldEnumOptions& wopts = {},
    const EvalOptions& options = {},
    std::vector<TupleProbability>* probabilities = nullptr);

}  // namespace incdb

#endif  // INCDB_COUNTING_PROBABILISTIC_H_
