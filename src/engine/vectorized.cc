#include "engine/vectorized.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/columnar.h"
#include "engine/kernels.h"
#include "util/thread_pool.h"

namespace incdb {
namespace {

// Rows a kernel loop consumes per batch (mask evaluation, probe chunking).
constexpr size_t kVecBatchRows = 2048;

// One in-flight columnar intermediate. Rows are always canonical: sorted
// lexicographically by code (== by value, the dictionary being sorted) and
// deduplicated. Either borrows the cached ColumnarRelation of a base/literal
// relation (`pin` keeps it alive, `source` is the relation itself, which
// Materialize returns without a round trip) or owns its column vectors.
struct VecTable {
  size_t arity = 0;
  size_t rows = 0;
  std::shared_ptr<const ValueDict> dict;
  std::shared_ptr<const ColumnarRelation> pin;  // non-null when borrowed
  const Relation* source = nullptr;             // borrowed: the relation
  std::vector<std::vector<uint32_t>> owned;     // used when pin == nullptr

  const std::vector<uint32_t>& col(size_t c) const {
    return pin != nullptr ? pin->col(c) : owned[c];
  }

  static VecTable Borrow(const Relation& r) {
    VecTable t;
    t.pin = r.Columnar();
    t.source = &r;
    t.arity = t.pin->arity();
    t.rows = t.pin->rows();
    t.dict = t.pin->dict_ptr();
    return t;
  }

  static VecTable Own(size_t arity, size_t rows,
                      std::shared_ptr<const ValueDict> dict,
                      std::vector<std::vector<uint32_t>> cols) {
    VecTable t;
    t.arity = arity;
    t.rows = rows;
    t.dict = std::move(dict);
    t.owned = std::move(cols);
    return t;
  }
};

// Deterministic batch accounting: one kernel invocation over `rows` input
// rows counts ceil(rows / kVecBatchRows) batches regardless of how the rows
// were chunked across threads, so explain output is thread-count invariant.
void CountVectorized(EvalStats* stats, uint64_t rows) {
  if (stats == nullptr) return;
  stats->CountRowsVectorized(rows);
  stats->CountBatchesProcessed((rows + kVecBatchRows - 1) / kVecBatchRows);
}

// Read-only view of a table's columns remapped into a merged dictionary.
// `remapped` stays empty when the translation is the identity.
struct CodeView {
  const VecTable* t;
  std::vector<std::vector<uint32_t>> remapped;

  const std::vector<uint32_t>& col(size_t c) const {
    return remapped.empty() ? t->col(c) : remapped[c];
  }
};

CodeView RemapInto(const VecTable& t, const DictMerge& m,
                   const std::vector<uint32_t>& translate) {
  CodeView v{&t, {}};
  if (m.dict == t.dict) return v;  // shared dictionary: codes already agree
  v.remapped.resize(t.arity);
  for (size_t c = 0; c < t.arity; ++c) {
    const std::vector<uint32_t>& in = t.col(c);
    std::vector<uint32_t>& out = v.remapped[c];
    out.resize(in.size());
    for (size_t i = 0; i < in.size(); ++i) out[i] = translate[in[i]];
  }
  return v;
}

bool RowLess(const CodeView& a, size_t ai, const CodeView& b, size_t bi,
             size_t arity) {
  for (size_t c = 0; c < arity; ++c) {
    const uint32_t x = a.col(c)[ai];
    const uint32_t y = b.col(c)[bi];
    if (x != y) return x < y;
  }
  return false;
}

bool RowEq(const CodeView& a, size_t ai, const CodeView& b, size_t bi,
           size_t arity) {
  for (size_t c = 0; c < arity; ++c) {
    if (a.col(c)[ai] != b.col(c)[bi]) return false;
  }
  return true;
}

// Sorts `cols` rows lexicographically and drops duplicates, restoring the
// canonical-row invariant after projection and join emits.
void CompactRows(size_t arity, std::vector<std::vector<uint32_t>>* cols,
                 size_t* rows) {
  const size_t n = *rows;
  if (n <= 1) return;
  if (arity == 0) {  // all empty rows are equal
    *rows = 1;
    return;
  }
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    for (size_t c = 0; c < arity; ++c) {
      const uint32_t x = (*cols)[c][a];
      const uint32_t y = (*cols)[c][b];
      if (x != y) return x < y;
    }
    return false;
  });
  std::vector<uint32_t> kept;
  kept.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!kept.empty()) {
      bool eq = true;
      for (size_t c = 0; c < arity && eq; ++c) {
        eq = (*cols)[c][perm[i]] == (*cols)[c][kept.back()];
      }
      if (eq) continue;
    }
    kept.push_back(perm[i]);
  }
  std::vector<std::vector<uint32_t>> out(arity);
  for (size_t c = 0; c < arity; ++c) {
    out[c].reserve(kept.size());
    for (uint32_t id : kept) out[c].push_back((*cols)[c][id]);
  }
  *cols = std::move(out);
  *rows = kept.size();
}

bool CmpBool(CmpOp op, std::strong_ordering cmp) {
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNe: return cmp != 0;
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
  }
  return false;
}

CmpOp MirrorOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // =, ≠ are symmetric
  }
}

// col OP const as a predicate over dictionary codes: the constant resolves
// to dictionary ranks once, the loop compares 32-bit codes. Valid because
// the dictionary is sorted by the total Value order — the same order the
// nested-loop reference compares with.
void MaskCmpConst(CmpOp op, const uint32_t* codes, size_t n,
                  const ValueDict& dict, const Value& constant,
                  uint8_t* mask) {
  switch (op) {
    case CmpOp::kEq: {
      const uint32_t eq = dict.Find(constant);
      if (eq == ValueDict::kNotFound) {
        std::fill(mask, mask + n, uint8_t{0});
      } else {
        for (size_t i = 0; i < n; ++i) mask[i] = codes[i] == eq;
      }
      return;
    }
    case CmpOp::kNe: {
      const uint32_t eq = dict.Find(constant);
      if (eq == ValueDict::kNotFound) {
        std::fill(mask, mask + n, uint8_t{1});
      } else {
        for (size_t i = 0; i < n; ++i) mask[i] = codes[i] != eq;
      }
      return;
    }
    case CmpOp::kLt: {
      const uint32_t lb = dict.LowerBound(constant);
      for (size_t i = 0; i < n; ++i) mask[i] = codes[i] < lb;
      return;
    }
    case CmpOp::kLe: {
      const uint32_t ub = dict.UpperBound(constant);
      for (size_t i = 0; i < n; ++i) mask[i] = codes[i] < ub;
      return;
    }
    case CmpOp::kGt: {
      const uint32_t ub = dict.UpperBound(constant);
      for (size_t i = 0; i < n; ++i) mask[i] = codes[i] >= ub;
      return;
    }
    case CmpOp::kGe: {
      const uint32_t lb = dict.LowerBound(constant);
      for (size_t i = 0; i < n; ++i) mask[i] = codes[i] >= lb;
      return;
    }
  }
}

// Evaluates `p` (naïve two-valued semantics) over rows [begin, end) of `t`
// into `mask` (size end - begin).
void EvalMask(const Predicate& p, const VecTable& t, size_t begin, size_t end,
              std::vector<uint8_t>* mask) {
  const size_t n = end - begin;
  mask->resize(n);
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      std::fill(mask->begin(), mask->end(), uint8_t{1});
      return;
    case Predicate::Kind::kFalse:
      std::fill(mask->begin(), mask->end(), uint8_t{0});
      return;
    case Predicate::Kind::kAnd: {
      std::vector<uint8_t> rhs;
      EvalMask(*p.left(), t, begin, end, mask);
      EvalMask(*p.right(), t, begin, end, &rhs);
      for (size_t i = 0; i < n; ++i) (*mask)[i] &= rhs[i];
      return;
    }
    case Predicate::Kind::kOr: {
      std::vector<uint8_t> rhs;
      EvalMask(*p.left(), t, begin, end, mask);
      EvalMask(*p.right(), t, begin, end, &rhs);
      for (size_t i = 0; i < n; ++i) (*mask)[i] |= rhs[i];
      return;
    }
    case Predicate::Kind::kNot: {
      EvalMask(*p.left(), t, begin, end, mask);
      for (size_t i = 0; i < n; ++i) (*mask)[i] ^= uint8_t{1};
      return;
    }
    case Predicate::Kind::kIsNull: {
      if (p.lhs().kind == Term::Kind::kConst) {
        std::fill(mask->begin(), mask->end(),
                  static_cast<uint8_t>(p.lhs().constant.is_null()));
        return;
      }
      const uint32_t* codes = t.col(p.lhs().column).data() + begin;
      const uint32_t null_end = t.dict->null_end;
      for (size_t i = 0; i < n; ++i) (*mask)[i] = codes[i] < null_end;
      return;
    }
    case Predicate::Kind::kCmp: {
      const Term& l = p.lhs();
      const Term& r = p.rhs();
      const bool lc = l.kind == Term::Kind::kColumn;
      const bool rc = r.kind == Term::Kind::kColumn;
      if (lc && rc) {
        const uint32_t* a = t.col(l.column).data() + begin;
        const uint32_t* b = t.col(r.column).data() + begin;
        switch (p.op()) {
          case CmpOp::kEq:
            for (size_t i = 0; i < n; ++i) (*mask)[i] = a[i] == b[i];
            return;
          case CmpOp::kNe:
            for (size_t i = 0; i < n; ++i) (*mask)[i] = a[i] != b[i];
            return;
          case CmpOp::kLt:
            for (size_t i = 0; i < n; ++i) (*mask)[i] = a[i] < b[i];
            return;
          case CmpOp::kLe:
            for (size_t i = 0; i < n; ++i) (*mask)[i] = a[i] <= b[i];
            return;
          case CmpOp::kGt:
            for (size_t i = 0; i < n; ++i) (*mask)[i] = a[i] > b[i];
            return;
          case CmpOp::kGe:
            for (size_t i = 0; i < n; ++i) (*mask)[i] = a[i] >= b[i];
            return;
        }
        return;
      }
      if (!lc && !rc) {
        const bool v = CmpBool(p.op(), l.constant <=> r.constant);
        std::fill(mask->begin(), mask->end(), static_cast<uint8_t>(v));
        return;
      }
      const Term& colt = lc ? l : r;
      const Term& cnst = lc ? r : l;
      const CmpOp op = lc ? p.op() : MirrorOp(p.op());
      MaskCmpConst(op, t.col(colt.column).data() + begin, n, *t.dict,
                   cnst.constant, mask->data());
      return;
    }
  }
}

// Predicate-over-column selection: batched mask evaluation producing the
// kept-row selection vector. Chunks across threads above the parallel
// threshold; per-chunk vectors merge in chunk order, so the selection is
// bit-identical at every thread count.
std::vector<uint32_t> FilterRows(const Predicate& pred, const VecTable& t,
                                 const EvalOptions& options,
                                 EvalStats* stats) {
  CountVectorized(stats, t.rows);
  const bool parallel = t.rows >= options.parallel_row_threshold &&
                        ResolveNumThreads(options.num_threads) > 1;
  if (!parallel) {
    std::vector<uint32_t> keep;
    std::vector<uint8_t> mask;
    for (size_t b = 0; b < t.rows; b += kVecBatchRows) {
      const size_t e = std::min(t.rows, b + kVecBatchRows);
      EvalMask(pred, t, b, e, &mask);
      for (size_t i = b; i < e; ++i) {
        if (mask[i - b]) keep.push_back(static_cast<uint32_t>(i));
      }
    }
    return keep;
  }
  std::vector<std::vector<uint32_t>> chunks(
      ParallelChunkCount(options.num_threads, t.rows, kVecBatchRows));
  (void)ParallelFor(
      options.num_threads, t.rows, kVecBatchRows,
      [&](size_t begin, size_t end, size_t chunk) -> Status {
        std::vector<uint32_t>& keep = chunks[chunk];
        std::vector<uint8_t> mask;
        for (size_t b = begin; b < end; b += kVecBatchRows) {
          const size_t e = std::min(end, b + kVecBatchRows);
          EvalMask(pred, t, b, e, &mask);
          for (size_t i = b; i < e; ++i) {
            if (mask[i - b]) keep.push_back(static_cast<uint32_t>(i));
          }
        }
        return Status::OK();
      });
  std::vector<uint32_t> keep;
  for (const std::vector<uint32_t>& c : chunks) {
    keep.insert(keep.end(), c.begin(), c.end());
  }
  return keep;
}

// Materializes the selected rows (ascending ids, so canonical order is
// preserved) into an owned table sharing the dictionary.
VecTable GatherRows(const VecTable& t, const std::vector<uint32_t>& keep) {
  std::vector<std::vector<uint32_t>> cols(t.arity);
  for (size_t c = 0; c < t.arity; ++c) {
    const std::vector<uint32_t>& in = t.col(c);
    cols[c].reserve(keep.size());
    for (uint32_t id : keep) cols[c].push_back(in[id]);
  }
  return VecTable::Own(t.arity, keep.size(), t.dict, std::move(cols));
}

// Projection as column slicing: copy the selected columns, then compact
// (projection can introduce duplicate rows).
VecTable ProjectCols(const VecTable& t, const std::vector<size_t>& cols) {
  std::vector<std::vector<uint32_t>> out(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) out[c] = t.col(cols[c]);
  size_t rows = t.rows;
  CompactRows(cols.size(), &out, &rows);
  return VecTable::Own(cols.size(), rows, t.dict, std::move(out));
}

enum class SetKind { kUnion, kIntersect, kDiff };

// Union/intersection/difference as one merge walk over two sorted code
// runs (both sides canonical; cross-dictionary inputs are remapped into the
// merged dictionary first, which preserves sortedness).
VecTable SetOpVec(SetKind kind, const VecTable& l, const VecTable& r,
                  const EvalOptions& options, EvalStats* stats) {
  (void)options;
  CountVectorized(stats, l.rows + r.rows);
  DictMerge m = MergeDicts(l.dict, r.dict);
  const CodeView lv = RemapInto(l, m, m.from_a);
  const CodeView rv = RemapInto(r, m, m.from_b);
  const size_t arity = l.arity;
  std::vector<std::vector<uint32_t>> out(arity);
  size_t rows = 0;
  auto emit = [&](const CodeView& v, size_t i) {
    for (size_t c = 0; c < arity; ++c) out[c].push_back(v.col(c)[i]);
    ++rows;
  };
  size_t i = 0;
  size_t j = 0;
  while (i < l.rows && j < r.rows) {
    if (RowEq(lv, i, rv, j, arity)) {
      if (kind != SetKind::kDiff) emit(lv, i);
      ++i;
      ++j;
    } else if (RowLess(lv, i, rv, j, arity)) {
      if (kind != SetKind::kIntersect) emit(lv, i);
      ++i;
    } else {
      if (kind == SetKind::kUnion) emit(rv, j);
      ++j;
    }
  }
  for (; i < l.rows; ++i) {
    if (kind != SetKind::kIntersect) emit(lv, i);
  }
  if (kind == SetKind::kUnion) {
    for (; j < r.rows; ++j) emit(rv, j);
  }
  return VecTable::Own(arity, rows, std::move(m.dict), std::move(out));
}

// Unfused cross product; pairs come out in lexicographic order (left-major
// over two sorted inputs), so no compact is needed.
VecTable ProductVec(const VecTable& l, const VecTable& r, EvalStats* stats) {
  CountVectorized(stats, l.rows + r.rows);
  DictMerge m = MergeDicts(l.dict, r.dict);
  const CodeView lv = RemapInto(l, m, m.from_a);
  const CodeView rv = RemapInto(r, m, m.from_b);
  const size_t arity = l.arity + r.arity;
  std::vector<std::vector<uint32_t>> out(arity);
  const size_t rows = l.rows * r.rows;
  for (size_t c = 0; c < arity; ++c) out[c].reserve(rows);
  for (size_t c = 0; c < l.arity; ++c) {
    const std::vector<uint32_t>& in = lv.col(c);
    for (size_t i = 0; i < l.rows; ++i) {
      out[c].insert(out[c].end(), r.rows, in[i]);
    }
  }
  for (size_t c = 0; c < r.arity; ++c) {
    const std::vector<uint32_t>& in = rv.col(c);
    for (size_t i = 0; i < l.rows; ++i) {
      out[l.arity + c].insert(out[l.arity + c].end(), in.begin(), in.end());
    }
  }
  return VecTable::Own(arity, rows, std::move(m.dict), std::move(out));
}

// Mixes key codes the way Tuple::Hash mixes value hashes; internally
// consistent (build and probe use the same function), collisions are
// verified by code comparison.
uint64_t MixCodes(const CodeView& v, size_t row,
                  const std::vector<size_t>& cols) {
  uint64_t h = 0x345678;
  for (size_t c : cols) {
    h = h * 1000003 ^ v.col(c)[row];
  }
  return h ^ cols.size();
}

// Fused equi-join: batched hash build over the right key columns, chunked
// probe over the left rows, residual and projection applied on codes.
VecTable HashJoinVec(const VecTable& l, const VecTable& r,
                     const std::vector<JoinKey>& keys,
                     const Predicate* residual,
                     const std::vector<size_t>* projection,
                     const EvalOptions& options, EvalStats* stats,
                     OpScope* scope) {
  CountVectorized(stats, l.rows + r.rows);
  DictMerge m = MergeDicts(l.dict, r.dict);
  const CodeView lv = RemapInto(l, m, m.from_a);
  const CodeView rv = RemapInto(r, m, m.from_b);
  std::vector<size_t> lcols;
  std::vector<size_t> rcols;
  lcols.reserve(keys.size());
  rcols.reserve(keys.size());
  for (const JoinKey& k : keys) {
    lcols.push_back(k.left_col);
    rcols.push_back(k.right_col);
  }

  std::unordered_map<uint64_t, std::vector<uint32_t>> build;
  if (l.rows > 0) {
    build.reserve(r.rows);
    for (size_t i = 0; i < r.rows; ++i) {
      build[MixCodes(rv, i, rcols)].push_back(static_cast<uint32_t>(i));
    }
  }

  // Verified key match via merged codes (collision- and cross-dict-safe).
  auto keys_match = [&](size_t li, size_t ri) {
    for (size_t k = 0; k < lcols.size(); ++k) {
      if (lv.col(lcols[k])[li] != rv.col(rcols[k])[ri]) return false;
    }
    return true;
  };
  auto probe_chunk = [&](size_t begin, size_t end,
                         std::vector<std::pair<uint32_t, uint32_t>>* out) {
    for (size_t i = begin; i < end; ++i) {
      auto it = build.find(MixCodes(lv, i, lcols));
      if (it == build.end()) continue;
      for (uint32_t ri : it->second) {
        if (keys_match(i, ri)) out->emplace_back(static_cast<uint32_t>(i), ri);
      }
    }
  };

  std::vector<std::pair<uint32_t, uint32_t>> matches;
  const bool parallel = l.rows >= options.parallel_row_threshold &&
                        ResolveNumThreads(options.num_threads) > 1;
  if (!parallel) {
    probe_chunk(0, l.rows, &matches);
  } else {
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> chunks(
        ParallelChunkCount(options.num_threads, l.rows, kVecBatchRows));
    (void)ParallelFor(options.num_threads, l.rows, kVecBatchRows,
                      [&](size_t begin, size_t end, size_t chunk) -> Status {
                        probe_chunk(begin, end, &chunks[chunk]);
                        return Status::OK();
                      });
    for (const auto& c : chunks) {
      matches.insert(matches.end(), c.begin(), c.end());
    }
  }
  if (scope != nullptr) scope->CountProbes(l.rows);

  // Emit the matched concatenations column by column.
  const size_t arity = l.arity + r.arity;
  std::vector<std::vector<uint32_t>> out(arity);
  for (size_t c = 0; c < l.arity; ++c) {
    const std::vector<uint32_t>& in = lv.col(c);
    out[c].reserve(matches.size());
    for (const auto& [li, ri] : matches) out[c].push_back(in[li]);
  }
  for (size_t c = 0; c < r.arity; ++c) {
    const std::vector<uint32_t>& in = rv.col(c);
    out[l.arity + c].reserve(matches.size());
    for (const auto& [li, ri] : matches) out[l.arity + c].push_back(in[ri]);
  }
  VecTable joined =
      VecTable::Own(arity, matches.size(), m.dict, std::move(out));

  if (residual != nullptr) {
    const std::vector<uint32_t> keep =
        FilterRows(*residual, joined, options, stats);
    joined = GatherRows(joined, keep);
  }
  if (projection != nullptr) return ProjectCols(joined, *projection);
  CompactRows(joined.arity, &joined.owned, &joined.rows);
  return joined;
}

// r ÷ s by counting over sorted code rows: head runs are contiguous in
// canonical order, each run's (distinct) tails probe the divisor by binary
// search, and a head divides s iff its run matched |s| tails.
Result<VecTable> DivideVec(const VecTable& r, const VecTable& s,
                           const EvalOptions& options, EvalStats* stats) {
  (void)options;
  if (s.arity == 0 || s.arity >= r.arity) {
    return Status::InvalidArgument(
        "division requires 0 < arity(divisor) < arity(dividend); got " +
        std::to_string(s.arity) + " and " + std::to_string(r.arity));
  }
  CountVectorized(stats, r.rows + s.rows);
  DictMerge m = MergeDicts(r.dict, s.dict);
  const CodeView rv = RemapInto(r, m, m.from_a);
  const CodeView sv = RemapInto(s, m, m.from_b);
  const size_t head = r.arity - s.arity;

  // True when the tail of dividend row `ri` is a divisor row (binary search
  // over the sorted divisor).
  auto tail_in_s = [&](size_t ri) {
    size_t lo = 0;
    size_t hi = s.rows;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      std::strong_ordering cmp = std::strong_ordering::equal;
      for (size_t c = 0; c < s.arity; ++c) {
        const uint32_t x = sv.col(c)[mid];
        const uint32_t y = rv.col(head + c)[ri];
        if (x != y) {
          cmp = x < y ? std::strong_ordering::less
                      : std::strong_ordering::greater;
          break;
        }
      }
      if (cmp == 0) return true;
      if (cmp < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return false;
  };
  auto same_head = [&](size_t a, size_t b) {
    for (size_t c = 0; c < head; ++c) {
      if (rv.col(c)[a] != rv.col(c)[b]) return false;
    }
    return true;
  };

  std::vector<std::vector<uint32_t>> out(head);
  size_t rows = 0;
  size_t run_start = 0;
  size_t run_matches = 0;
  for (size_t i = 0; i < r.rows; ++i) {
    if (i > run_start && !same_head(i, run_start)) {
      run_start = i;
      run_matches = 0;
    }
    if (tail_in_s(i)) ++run_matches;
    const bool run_ends = i + 1 == r.rows || !same_head(i + 1, run_start);
    if (run_ends && run_matches == s.rows) {
      for (size_t c = 0; c < head; ++c) out[c].push_back(rv.col(c)[run_start]);
      ++rows;
    }
  }
  // Heads emerge in sorted order (runs are sorted) and once per run.
  return VecTable::Own(head, rows, std::move(m.dict), std::move(out));
}

// Δ = {(a, a) | a ∈ adom(D)}: the active domain is already a sorted set,
// so the diagonal is born canonical.
VecTable DeltaVec(const Database& db) {
  std::vector<Value> domain;
  for (const Value& v : db.ActiveDomain()) domain.push_back(v);
  const size_t n = domain.size();
  std::shared_ptr<const ValueDict> dict = ValueDict::Build(std::move(domain));
  std::vector<std::vector<uint32_t>> cols(2);
  cols[0].resize(n);
  for (uint32_t i = 0; i < n; ++i) cols[0][i] = i;
  cols[1] = cols[0];
  return VecTable::Own(2, n, std::move(dict), std::move(cols));
}

Relation MaterializeVec(const VecTable& t) {
  // A borrowed table is exactly its source relation; the copy shares the
  // canonical storage and every cached index.
  if (t.source != nullptr) return *t.source;
  if (t.pin != nullptr) return t.pin->ToRelation();
  std::vector<Tuple> rows;
  rows.reserve(t.rows);
  const std::vector<Value>& values = t.dict->values;
  for (size_t i = 0; i < t.rows; ++i) {
    std::vector<Value> vals;
    vals.reserve(t.arity);
    for (size_t c = 0; c < t.arity; ++c) {
      vals.push_back(values[t.owned[c][i]]);
    }
    rows.emplace_back(std::move(vals));
  }
  return Relation(t.arity, std::move(rows));
}

// The batch evaluator; mirrors algebra/eval.cc's Rec node by node,
// including the σ/π-over-× join fusion, so the two paths execute the same
// plan shapes and produce bit-identical relations.
struct VRec {
  const Database& db;
  const EvalOptions& options;
  EvalStats* stats;

  Result<VecTable> Run(const RAExprPtr& e) {
    switch (e->kind()) {
      case RAExpr::Kind::kScan: {
        OpScope scope(stats, EvalOp::kScan);
        VecTable t = VecTable::Borrow(db.GetRelation(e->relation_name()));
        scope.CountOut(t.rows);
        return t;
      }
      case RAExpr::Kind::kConstRel:
        return VecTable::Borrow(e->literal());
      case RAExpr::Kind::kSelect:
        return RunSelect(*e, /*projection=*/nullptr);
      case RAExpr::Kind::kProject: {
        // π over σ(l × r) fuses the projection into the join's emit.
        if (e->left()->kind() == RAExpr::Kind::kSelect &&
            e->left()->left()->kind() == RAExpr::Kind::kProduct) {
          return RunSelect(*e->left(), &e->columns());
        }
        INCDB_ASSIGN_OR_RETURN(VecTable in, Run(e->left()));
        OpScope scope(stats, EvalOp::kProject);
        scope.CountIn(in.rows);
        CountVectorized(stats, in.rows);
        VecTable out = ProjectCols(in, e->columns());
        scope.CountOut(out.rows);
        return out;
      }
      case RAExpr::Kind::kProduct: {
        INCDB_ASSIGN_OR_RETURN(VecTable l, Run(e->left()));
        INCDB_ASSIGN_OR_RETURN(VecTable r, Run(e->right()));
        OpScope scope(stats, EvalOp::kProduct);
        scope.CountIn(l.rows + r.rows);
        VecTable out = ProductVec(l, r, stats);
        scope.CountOut(out.rows);
        return out;
      }
      case RAExpr::Kind::kUnion:
        return RunSetOp(EvalOp::kUnion, SetKind::kUnion, e);
      case RAExpr::Kind::kDiff:
        return RunSetOp(EvalOp::kDiff, SetKind::kDiff, e);
      case RAExpr::Kind::kIntersect:
        return RunSetOp(EvalOp::kIntersect, SetKind::kIntersect, e);
      case RAExpr::Kind::kDivide: {
        INCDB_ASSIGN_OR_RETURN(VecTable l, Run(e->left()));
        INCDB_ASSIGN_OR_RETURN(VecTable r, Run(e->right()));
        OpScope scope(stats, EvalOp::kDivide);
        scope.CountIn(l.rows + r.rows);
        scope.CountProbes(l.rows);
        INCDB_ASSIGN_OR_RETURN(VecTable out, DivideVec(l, r, options, stats));
        scope.CountOut(out.rows);
        return out;
      }
      case RAExpr::Kind::kDelta: {
        OpScope scope(stats, EvalOp::kDelta);
        VecTable out = DeltaVec(db);
        scope.CountOut(out.rows);
        return out;
      }
    }
    return Status::Internal("unknown RA node kind");
  }

  Result<VecTable> RunSetOp(EvalOp op, SetKind kind, const RAExprPtr& e) {
    INCDB_ASSIGN_OR_RETURN(VecTable l, Run(e->left()));
    INCDB_ASSIGN_OR_RETURN(VecTable r, Run(e->right()));
    OpScope scope(stats, op);
    scope.CountIn(l.rows + r.rows);
    VecTable out = SetOpVec(kind, l, r, options, stats);
    scope.CountOut(out.rows);
    return out;
  }

  // σ_pred(child), optionally under π_projection. When the child is a
  // product and the predicate carries cross-boundary equalities, the σ
  // (and π) fuse into the batched hash join.
  Result<VecTable> RunSelect(const RAExpr& sel,
                             const std::vector<size_t>* projection) {
    if (sel.left()->kind() == RAExpr::Kind::kProduct) {
      INCDB_ASSIGN_OR_RETURN(VecTable l, Run(sel.left()->left()));
      INCDB_ASSIGN_OR_RETURN(VecTable r, Run(sel.left()->right()));
      JoinSplit split = SplitForEquiJoin(sel.predicate(), l.arity);
      if (!split.keys.empty()) {
        OpScope scope(stats, EvalOp::kHashJoin);
        scope.CountIn(l.rows + r.rows);
        VecTable out = HashJoinVec(l, r, split.keys, split.residual.get(),
                                   projection, options, stats, &scope);
        scope.CountOut(out.rows);
        return out;
      }
      OpScope pscope(stats, EvalOp::kProduct);
      pscope.CountIn(l.rows + r.rows);
      VecTable in = ProductVec(l, r, stats);
      pscope.CountOut(in.rows);
      return Filter(sel.predicate(), std::move(in), projection);
    }
    INCDB_ASSIGN_OR_RETURN(VecTable in, Run(sel.left()));
    return Filter(sel.predicate(), std::move(in), projection);
  }

  Result<VecTable> Filter(const PredicatePtr& pred, VecTable in,
                          const std::vector<size_t>* projection) {
    OpScope scope(stats, EvalOp::kSelect);
    scope.CountIn(in.rows);
    const std::vector<uint32_t> keep = FilterRows(*pred, in, options, stats);
    VecTable out = GatherRows(in, keep);
    if (projection != nullptr) out = ProjectCols(out, *projection);
    scope.CountOut(out.rows);
    return out;
  }
};

}  // namespace

Result<Relation> EvalVectorized(const RAExprPtr& e, const Database& db,
                                const EvalOptions& options) {
  // Validate typing once at the root (same contract as EvalNaive).
  INCDB_RETURN_IF_ERROR(e->InferArity(db.schema()).status());
  VRec rec{db, options, options.stats};
  INCDB_ASSIGN_OR_RETURN(VecTable t, rec.Run(e));
  return MaterializeVec(t);
}

}  // namespace incdb
