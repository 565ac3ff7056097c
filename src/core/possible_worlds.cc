#include "core/possible_worlds.h"

#include <algorithm>
#include <atomic>

#include "util/random.h"
#include "util/thread_pool.h"

namespace incdb {

WorldSpace MakeWorldSpace(const Database& d, const WorldEnumOptions& opts) {
  WorldSpace space;
  std::vector<Value>& domain = space.domain;
  for (const auto& kv : d.relations()) {
    for (const Tuple& t : kv.second.tuples()) {
      for (const Value& v : t.values()) {
        if (v.is_null()) {
          space.nulls.push_back(v.null_id());
        } else {
          domain.push_back(v);
        }
      }
    }
  }
  for (const Value& v : opts.required_constants) {
    INCDB_CHECK_MSG(v.is_const(), "required constant must be a constant");
    domain.push_back(v);
  }
  std::sort(space.nulls.begin(), space.nulls.end());
  space.nulls.erase(std::unique(space.nulls.begin(), space.nulls.end()),
                    space.nulls.end());
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());

  int fresh = opts.fresh_constants;
  if (fresh < 0) {
    // One per null, and two for a lone null with no constant to take: over
    // the domain {1} its only world would make the fresh 1 certain.
    fresh = static_cast<int>(space.nulls.size());
    if (domain.empty() && fresh == 1) fresh = 2;
  }
  // Fresh integers strictly above every integer constant in the domain;
  // where those would overflow, the largest integers absent from it.
  int64_t base = 0;
  for (const Value& v : domain) {
    if (v.is_int()) base = std::max(base, v.as_int());
  }
  const size_t known = domain.size();
  if (base <= INT64_MAX - fresh) {
    for (int i = 1; i <= fresh; ++i) domain.push_back(Value::Int(base + i));
  } else {
    for (int64_t c = INT64_MAX; fresh > 0; --c) {
      const Value v = Value::Int(c);
      if (!std::binary_search(domain.begin(), domain.begin() + known, v)) {
        domain.push_back(v);
        --fresh;
      }
    }
  }
  // The fresh integers belong among the integers, before any string.
  std::sort(domain.begin() + known, domain.end());
  std::inplace_merge(domain.begin(), domain.begin() + known, domain.end());
  return space;
}

uint64_t WorldSpace::Count() const {
  const uint64_t domain_size = domain.size();
  uint64_t count = 1;
  for (size_t i = 0; i < nulls.size(); ++i) {
    if (count > UINT64_MAX / std::max<uint64_t>(domain_size, 1)) {
      return UINT64_MAX;
    }
    count *= domain_size;
  }
  return count;
}

std::vector<Value> WorldDomain(const Database& d,
                               const WorldEnumOptions& opts) {
  return MakeWorldSpace(d, opts).domain;
}

uint64_t CountWorldsCwa(const Database& d, const WorldEnumOptions& opts) {
  return MakeWorldSpace(d, opts).Count();
}

namespace {

// One digit of a mixed-radix reflected Gray counter: `null` ranges over
// domain[offset .. offset + size).
struct GrayDigit {
  NullId null;
  size_t offset;
  size_t size;
};

// Runs one reflected mixed-radix Gray chain over `digits`: binds every
// digit's starting value into a valuation, emits it with has_delta == false,
// then advances one digit per step. The step rule is the standard reflected
// construction — advance the lowest digit whose direction keeps it in range;
// digits that would leave their range flip direction and pass the carry up —
// which visits every combination exactly once and changes exactly one digit
// per step. Stops when `emit` returns false or the space is exhausted.
void RunGrayChain(
    const std::vector<GrayDigit>& digits, const std::vector<Value>& domain,
    const std::function<bool(const Valuation&, const ValuationDelta&)>& emit) {
  Valuation v;
  std::vector<size_t> pos(digits.size(), 0);
  std::vector<int> dir(digits.size(), 1);
  for (const GrayDigit& g : digits) v.Bind(g.null, domain[g.offset]);
  if (!emit(v, ValuationDelta{})) return;
  for (;;) {
    size_t i = 0;
    for (; i < digits.size(); ++i) {
      const int64_t next = static_cast<int64_t>(pos[i]) + dir[i];
      if (next >= 0 && next < static_cast<int64_t>(digits[i].size)) {
        ValuationDelta delta;
        delta.has_delta = true;
        delta.null_id = digits[i].null;
        delta.null_index = i;
        delta.old_index = digits[i].offset + pos[i];
        pos[i] = static_cast<size_t>(next);
        delta.new_index = digits[i].offset + pos[i];
        delta.old_value = domain[delta.old_index];
        delta.new_value = domain[delta.new_index];
        v.Bind(delta.null_id, delta.new_value);
        if (!emit(v, delta)) return;
        break;
      }
      dir[i] = -dir[i];  // reflect this digit; carry moves up
    }
    if (i == digits.size()) return;  // every digit reflected: done
  }
}

}  // namespace

Status ForEachValuationGrayParallel(
    const Database& d, const WorldEnumOptions& opts, int num_threads,
    const std::function<bool(const Valuation&, const ValuationDelta&,
                             size_t worker)>& fn) {
  return ForEachValuationGrayParallel(d, MakeWorldSpace(d, opts),
                                      opts.max_worlds, num_threads, fn);
}

Status ForEachValuationGrayParallel(
    const Database& d, const WorldSpace& space, uint64_t max_worlds,
    int num_threads,
    const std::function<bool(const Valuation&, const ValuationDelta&,
                             size_t worker)>& fn) {
  const std::vector<NullId>& nulls = space.nulls;
  const std::vector<Value>& domain = space.domain;
  if (nulls.empty()) {
    fn(Valuation(), ValuationDelta{}, /*worker=*/0);
    return Status::OK();
  }
  if (domain.empty()) {
    return Status::InvalidArgument("empty world domain with nulls present");
  }
  // Force the lazy canonical forms and completeness memos of the shared
  // instance on this thread: workers and caller closures read `d`, which
  // must then hold only immutable state.
  for (const auto& kv : d.relations()) {
    kv.second.tuples();
    kv.second.IsComplete();
  }

  // One budget across all chains, so every thread count aborts after the
  // same number of callback invocations.
  std::atomic<uint64_t> emitted{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> exhausted{false};
  Status st = ParallelFor(
      num_threads, domain.size(), /*grain=*/1,
      [&](size_t begin, size_t end, size_t chunk) -> Status {
        // One continuous Gray chain per chunk: the first null is the chain's
        // own digit restricted to domain[begin, end), so crossing from one
        // sub-space to the next is itself a single-null step.
        std::vector<GrayDigit> digits;
        digits.reserve(nulls.size());
        digits.push_back(GrayDigit{nulls[0], begin, end - begin});
        for (size_t i = 1; i < nulls.size(); ++i) {
          digits.push_back(GrayDigit{nulls[i], 0, domain.size()});
        }
        RunGrayChain(
            digits, domain,
            [&](const Valuation& v, const ValuationDelta& delta) {
              if (stop.load(std::memory_order_relaxed)) return false;
              if (emitted.fetch_add(1, std::memory_order_relaxed) >=
                  max_worlds) {
                exhausted.store(true, std::memory_order_relaxed);
                stop.store(true, std::memory_order_relaxed);
                return false;
              }
              if (!fn(v, delta, chunk)) {
                stop.store(true, std::memory_order_relaxed);
                return false;
              }
              return true;
            });
        return Status::OK();
      });
  INCDB_RETURN_IF_ERROR(st);
  if (exhausted.load()) {
    return Status::ResourceExhausted(
        "world enumeration exceeded max_worlds=" +
        std::to_string(max_worlds));
  }
  return Status::OK();
}

Status ForEachValuation(const Database& d, const WorldEnumOptions& opts,
                        const std::function<bool(const Valuation&)>& fn) {
  return ForEachValuationGrayParallel(
      d, opts, /*num_threads=*/1,
      [&](const Valuation& v, const ValuationDelta&, size_t) { return fn(v); });
}

Status ForEachWorldCwa(const Database& d, const WorldEnumOptions& opts,
                       const std::function<bool(const Database&)>& fn) {
  return ForEachValuation(d, opts, [&](const Valuation& v) {
    return fn(v.Apply(d));
  });
}

Valuation SampleValuationAt(const std::vector<NullId>& nulls,
                            const std::vector<Value>& domain, uint64_t seed,
                            uint64_t index) {
  Valuation v;
  if (nulls.empty()) return v;
  INCDB_CHECK_MSG(!domain.empty(), "empty world domain with nulls present");
  // Decorrelate the per-sample streams: Rng's constructor SplitMix64-mixes
  // its seed, so a golden-ratio stride over the index is enough to give
  // every sample an independent-looking stream.
  Rng rng(seed + 0x9E3779B97F4A7C15ull * (index + 1));
  for (NullId id : nulls) {
    v.Bind(id, domain[rng.Uniform(domain.size())]);
  }
  return v;
}

Status ForEachWorldOwaBounded(
    const Database& d, const WorldEnumOptions& opts,
    const std::vector<std::pair<std::string, Tuple>>& candidate_tuples,
    const std::function<bool(const Database&)>& fn) {
  for (const auto& [name, t] : candidate_tuples) {
    INCDB_CHECK_MSG(!t.HasNull(), "candidate tuples must be complete");
  }
  if (candidate_tuples.size() > 24) {
    return Status::ResourceExhausted("too many candidate tuples (max 24)");
  }
  const uint64_t subsets = 1ull << candidate_tuples.size();
  return ForEachValuation(d, opts, [&](const Valuation& v) {
    Database base = v.Apply(d);
    for (uint64_t mask = 0; mask < subsets; ++mask) {
      Database world = base;
      for (size_t i = 0; i < candidate_tuples.size(); ++i) {
        if (mask & (1ull << i)) {
          world.AddTuple(candidate_tuples[i].first, candidate_tuples[i].second);
        }
      }
      if (!fn(world)) return false;
    }
    return true;
  });
}

}  // namespace incdb
