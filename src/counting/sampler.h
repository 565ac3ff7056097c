// Uniform valuation sampling — the Monte-Carlo half of the probabilistic
// answer layer. Where exact counting (counting/world_count.h) exceeds its
// budget, tuple probabilities are estimated by drawing valuations uniformly
// from domain^nulls and tallying per-tuple membership, with Wilson score
// confidence intervals on the estimates.
//
// Determinism: sample i's valuation is a pure function of (seed, i)
// (core/possible_worlds SampleValuationAt), not of a shared generator
// state. The parallel driver partitions the sample range into ParallelFor's
// deterministic chunks and tallies per chunk, so the merged tallies — and
// therefore every probability and interval — are bit-identical at every
// thread count and across the enumeration/c-table backends, which evaluate
// membership differently but over the same valuation stream.
//
// Conditioning: a sample whose valuation falsifies the admission predicate
// (the result c-table's global condition) is drawn but not counted; the
// estimate divides by the admitted ("effective") samples, i.e. estimates
// P(t ∈ world | global).

#ifndef INCDB_COUNTING_SAMPLER_H_
#define INCDB_COUNTING_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/relation.h"
#include "core/valuation.h"
#include "engine/stats.h"
#include "util/status.h"

namespace incdb {

/// Knobs for one Monte-Carlo estimation pass. The pass runs on the
/// query's threads (EvalOptions::num_threads), and the probability drivers
/// report Wilson intervals at z = 1.96 (≈ 95% coverage).
struct SamplingOptions {
  /// Valuations drawn. More samples shrink the Wilson interval at the
  /// usual 1/√n rate (bench E2's SamplingSweep measures the curve).
  uint64_t samples = 10'000;
  /// Stream seed. Equal seeds reproduce tallies bit-identically — across
  /// runs, thread counts, and backends.
  uint64_t seed = 1;
};

/// A confidence interval on a probability.
struct Interval {
  double low = 0.0;
  double high = 1.0;
};

/// Wilson score interval for `successes` out of `n` Bernoulli trials at
/// critical value `z`. Well-behaved at the extremes (never escapes [0, 1],
/// non-degenerate at p̂ ∈ {0, 1}); returns [0, 1] when n == 0.
Interval WilsonInterval(uint64_t successes, uint64_t n, double z);

/// The tallies of one sampling pass.
struct SampleTally {
  uint64_t samples = 0;    ///< valuations drawn
  uint64_t effective = 0;  ///< samples admitted by the conditioning event
  /// Per-tuple membership counts over the effective samples (canonically
  /// ordered; tuples never observed are absent).
  std::map<Tuple, uint64_t> hits;
};

/// Draws `opts.samples` valuations of `nulls` (sorted, the full database
/// null set) over `domain` and tallies tuple membership on `num_threads`
/// workers (0 = auto, 1 = the calling thread); the tallies are
/// bit-identical at every setting. Per sample,
/// `per_sample(v, world_tuples)` decides admission: it returns false to
/// reject the sample (conditioning event fails; `world_tuples` is then
/// ignored) or true after filling `world_tuples` with the tuples present in
/// the sampled world (duplicates are tallied once). `per_sample` runs
/// concurrently from distinct threads for distinct samples and must not
/// touch shared mutable state; the passed vector is a reusable per-thread
/// scratch buffer, cleared by the driver. `stats`, when non-null, receives
/// the draw count via CountSamplesDrawn. O(samples · cost(per_sample)).
Result<SampleTally> SampleTupleFrequencies(
    const std::vector<NullId>& nulls, const std::vector<Value>& domain,
    const SamplingOptions& opts, int num_threads,
    const std::function<Result<bool>(const Valuation& v,
                                     std::vector<Tuple>* world_tuples)>&
        per_sample,
    EvalStats* stats = nullptr);

}  // namespace incdb

#endif  // INCDB_COUNTING_SAMPLER_H_
