#include "counting/sampler.h"

#include <algorithm>
#include <cmath>

#include "core/possible_worlds.h"
#include "util/thread_pool.h"

namespace incdb {

Interval WilsonInterval(uint64_t successes, uint64_t n, double z) {
  if (n == 0) return Interval{0.0, 1.0};
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(successes) / nn;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nn;
  const double center = (p + z2 / (2.0 * nn)) / denom;
  const double half =
      (z / denom) * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn));
  return Interval{std::max(0.0, center - half), std::min(1.0, center + half)};
}

Result<SampleTally> SampleTupleFrequencies(
    const std::vector<NullId>& nulls, const std::vector<Value>& domain,
    const SamplingOptions& opts, int num_threads,
    const std::function<Result<bool>(const Valuation& v,
                                     std::vector<Tuple>* world_tuples)>&
        per_sample,
    EvalStats* stats) {
  if (!nulls.empty() && domain.empty()) {
    return Status::InvalidArgument("empty world domain with nulls present");
  }
  if (opts.samples == 0) {
    return Status::InvalidArgument("sampling needs samples > 0");
  }

  const size_t n = static_cast<size_t>(opts.samples);
  // One chunk per worker's worth of samples; tallies accumulate per chunk
  // and merge below. Each sample's valuation depends only on (seed, index),
  // so the merged counts cannot depend on the chunking.
  const size_t grain = 64;
  const size_t num_chunks = ParallelChunkCount(num_threads, n, grain);
  std::vector<SampleTally> tallies(num_chunks);
  Status status = ParallelFor(
      num_threads, n, grain,
      [&](size_t begin, size_t end, size_t chunk) -> Status {
        SampleTally& t = tallies[chunk];
        std::vector<Tuple> world;
        for (size_t i = begin; i < end; ++i) {
          const Valuation v = SampleValuationAt(nulls, domain, opts.seed, i);
          ++t.samples;
          world.clear();
          INCDB_ASSIGN_OR_RETURN(const bool admitted, per_sample(v, &world));
          if (!admitted) continue;
          ++t.effective;
          // Tally each distinct tuple once per sample (a world is a set).
          std::sort(world.begin(), world.end());
          world.erase(std::unique(world.begin(), world.end()), world.end());
          for (const Tuple& tup : world) ++t.hits[tup];
        }
        return Status::OK();
      });
  INCDB_RETURN_IF_ERROR(status);

  SampleTally out;
  for (const SampleTally& t : tallies) {
    out.samples += t.samples;
    out.effective += t.effective;
    for (const auto& [tup, c] : t.hits) out.hits[tup] += c;
  }
  if (stats != nullptr) stats->CountSamplesDrawn(out.samples);
  return out;
}

}  // namespace incdb
