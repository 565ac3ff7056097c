// Enumeration of possible worlds of an incomplete database.
//
// Under CWA, ⟦D⟧ = { v(D) } for valuations v of Null(D). The world space is
// infinite (Const is infinite), but for generic queries it suffices to let
// nulls range over the active constants, the query's constants and k fresh
// constants, where k is the number of nulls: any world is isomorphic, over
// the constants of D and of the query, to one of the sampled worlds, and
// generic queries cannot distinguish isomorphic worlds (with no constant at
// all, k is at least two, so that no fresh constant is certain). `WorldDomain`
// builds that finite domain; the query's constants come in as
// `required_constants` (engine/world_encoding.h WithQueryConstants).
//
// Under OWA the worlds also add arbitrary tuples; `ForEachWorldOwaBounded`
// enumerates v(D) extended with subsets of a caller-supplied candidate tuple
// pool (validation only — exact OWA certain answers for (U)CQs are computed
// via the tableau duality in logic/containment.h).
//
// Every CWA walk is one driver, `ForEachValuationGrayParallel`. It visits
// the valuations in mixed-radix reflected Gray-code order, so consecutive
// worlds differ in exactly one null's binding; the single-null step is
// reported as a ValuationDelta, which is what lets the delta-evaluation
// layer (engine/delta_eval.h) re-evaluate a plan incrementally instead of
// from scratch per world. It splits the space by the first null's
// assignment into one chain per worker on the global thread pool
// (util/thread_pool.h); at one thread it runs a single chain on the calling
// thread. `ForEachValuation` and `ForEachWorldCwa` are serial wrappers over
// it for callers that test a predicate over the whole world set.

#ifndef INCDB_CORE_POSSIBLE_WORLDS_H_
#define INCDB_CORE_POSSIBLE_WORLDS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/valuation.h"
#include "util/status.h"

namespace incdb {

/// Options controlling world enumeration.
struct WorldEnumOptions {
  /// Number of fresh constants added beyond the active domain. If negative,
  /// the number of distinct nulls in the instance, and two for one null
  /// when neither the instance nor `required_constants` has a constant.
  int fresh_constants = -1;
  /// Extra constants that must be in the domain (e.g. constants mentioned by
  /// the query but absent from the instance).
  std::vector<Value> required_constants;
  /// Safety valve: abort enumeration after this many worlds. All Gray
  /// chains charge one shared atomic budget, so every thread count aborts
  /// after the same number of callback invocations.
  uint64_t max_worlds = 50'000'000;
};

/// The finite constant domain used to instantiate nulls: Const(D) ∪ required
/// ∪ {k fresh integer constants}. The fresh constants are max+1 … max+k
/// above the largest integer constant (or 0); where that would overflow,
/// they are the k largest integers absent from the domain. Thread-compatible
/// (pure function of its arguments); O(|D| log |D|).
std::vector<Value> WorldDomain(const Database& d, const WorldEnumOptions& opts);

/// Number of CWA worlds |domain|^#nulls (saturating at UINT64_MAX).
/// Thread-compatible; O(|D| log |D| + #nulls).
uint64_t CountWorldsCwa(const Database& d, const WorldEnumOptions& opts);

/// The CWA world space of a database: its nulls, ascending, and the domain
/// they range over (WorldDomain). An enumeration query computes it once and
/// hands it to the chunk count, the Gray driver and the delta evaluator's
/// dictionary (engine/delta_eval.h).
struct WorldSpace {
  std::vector<NullId> nulls;
  std::vector<Value> domain;

  /// |domain|^#nulls, saturating at UINT64_MAX.
  uint64_t Count() const;
};

/// Null(D) and WorldDomain(d, opts) from one pass over d's cells.
/// Thread-compatible; O(|D| log |D|).
WorldSpace MakeWorldSpace(const Database& d, const WorldEnumOptions& opts);

/// The single-null difference between a Gray-chain world and its
/// predecessor: the valuation handed to the callback alongside this delta
/// rebinds exactly `null_id`, from `old_value` to `new_value`. The indices
/// place the same step in the WorldSpace walked: `null_id` is
/// nulls[null_index], and the values are domain[old_index] and
/// domain[new_index]. The first valuation of a chain has no predecessor:
/// `has_delta` is false and the remaining fields are meaningless.
struct ValuationDelta {
  bool has_delta = false;
  NullId null_id = 0;
  Value old_value;
  Value new_value;
  size_t null_index = 0;
  size_t old_index = 0;
  size_t new_index = 0;
};

/// Invokes `fn(v, delta, worker)` on every valuation of Null(D) over the
/// domain, each exactly once, in Gray-code chains. The space is split by the
/// first null's assignment into contiguous domain ranges, one per worker
/// (`num_threads`: 0 = hardware_concurrency; 1 = one chain on the calling
/// thread). Each worker runs ONE continuous chain over its range (the first
/// null is just another Gray digit, restricted to the range), so it sees
/// exactly one has_delta == false callback and every later callback is one
/// single-null step from its predecessor.
///
/// `worker` is a dense index < ParallelChunkCount(...): invocations sharing
/// a worker index are sequential, distinct indices run concurrently, so
/// `fn` may accumulate into per-worker state without locks but must not
/// touch shared mutable state. Returning false stops every worker; the call
/// still returns OK. All chains share one budget: after opts.max_worlds
/// callback invocations, at any thread count, it returns ResourceExhausted.
/// A database without nulls is one world: one call with an empty valuation,
/// worker 0. The Valuation passed to `fn` is reused between invocations —
/// copy it to keep it. O(|domain|^#nulls · cost(fn)).
Status ForEachValuationGrayParallel(
    const Database& d, const WorldEnumOptions& opts, int num_threads,
    const std::function<bool(const Valuation&, const ValuationDelta&,
                             size_t worker)>& fn);

/// The same walk over a world space the caller has already computed
/// (`space` must be MakeWorldSpace(d, ...)), with the budget `max_worlds`.
/// Worker indices are below ParallelChunkCount(num_threads,
/// space.domain.size(), 1).
Status ForEachValuationGrayParallel(
    const Database& d, const WorldSpace& space, uint64_t max_worlds,
    int num_threads,
    const std::function<bool(const Valuation&, const ValuationDelta&,
                             size_t worker)>& fn);

/// Invokes `fn` on every valuation of Null(D) over the domain: one Gray
/// chain on the calling thread. Stops early if `fn` returns false. Returns
/// ResourceExhausted if max_worlds is hit. The Valuation passed to `fn` is
/// reused between invocations — copy it to keep it.
/// O(|domain|^#nulls · cost(fn)).
Status ForEachValuation(const Database& d, const WorldEnumOptions& opts,
                        const std::function<bool(const Valuation&)>& fn);

/// Invokes `fn` on every CWA world v(D), on the calling thread, in
/// ForEachValuation's order. Stops early if `fn` returns false.
/// O(|domain|^#nulls · (|D| + cost(fn))).
Status ForEachWorldCwa(const Database& d, const WorldEnumOptions& opts,
                       const std::function<bool(const Database&)>& fn);

/// The valuation drawn for sample `index` of the seeded stream (seed,
/// index): each null of `nulls` independently takes a uniform value of
/// `domain`. The randomness is a pure function of (seed, index) — NOT of a
/// shared generator state — which is what lets the Monte-Carlo sampler
/// (counting/sampler.h) partition a sample range across threads and still
/// produce bit-identical tallies at every thread count. `nulls` must be
/// sorted (callers pass Database::Nulls() flattened) and `domain` non-empty
/// when `nulls` is not. O(#nulls).
Valuation SampleValuationAt(const std::vector<NullId>& nulls,
                            const std::vector<Value>& domain, uint64_t seed,
                            uint64_t index);

/// Invokes `fn` on every v(D) ∪ E where E ranges over subsets of
/// `candidate_tuples` (pairs of relation name and tuple; tuples must be
/// complete). Validation-only approximation of ⟦D⟧_owa. Serial;
/// O(|domain|^#nulls · 2^|candidates| · (|D| + cost(fn))).
Status ForEachWorldOwaBounded(
    const Database& d, const WorldEnumOptions& opts,
    const std::vector<std::pair<std::string, Tuple>>& candidate_tuples,
    const std::function<bool(const Database&)>& fn);

}  // namespace incdb

#endif  // INCDB_CORE_POSSIBLE_WORLDS_H_
