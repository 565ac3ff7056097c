#include "engine/vectorized.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/columnar.h"
#include "engine/kernels.h"
#include "util/thread_pool.h"

namespace incdb {
namespace {

// Rows a kernel loop consumes per batch (mask evaluation, probe chunking).
constexpr size_t kVecBatchRows = 2048;

// Most rows an intermediate may hold: row ids are uint32_t (selection
// vectors, join match pairs, the compaction permutation).
constexpr size_t kMaxRows = std::numeric_limits<uint32_t>::max();

Status TooManyRows(const char* what, size_t l_rows, size_t r_rows) {
  return Status::ResourceExhausted(
      std::string(what) + " of " + std::to_string(l_rows) + " and " +
      std::to_string(r_rows) + " rows exceeds " + std::to_string(kMaxRows) +
      " rows");
}

// One in-flight columnar intermediate. Rows are always canonical: sorted
// lexicographically by code (== by value, the dictionary being sorted) and
// deduplicated. Either borrows the columnar form of a base/literal relation
// (`pin` keeps it alive) or owns its column vectors.
struct VecTable {
  size_t arity = 0;
  size_t rows = 0;
  std::shared_ptr<const ValueDict> dict;
  std::shared_ptr<const ColumnarRelation> pin;  // non-null when borrowed
  std::vector<std::vector<uint32_t>> owned;     // used when pin == nullptr

  const std::vector<uint32_t>& col(size_t c) const {
    return pin != nullptr ? pin->col(c) : owned[c];
  }

  static VecTable Borrow(const Relation& r) {
    VecTable t;
    t.pin = r.Columnar();
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

// A predicate mask holds one truth value per row as a byte: FALSE is 0 and
// TRUE is TrueByte(logic) — 1 under naïve logic, 2 under 3VL, where 1 is
// UNKNOWN. With that encoding ∧ is min, ∨ is max and ¬ is TRUE − v under
// both logics.
uint8_t TrueByte(NullLogic logic) {
  return logic == NullLogic::kThreeValued ? 2 : 1;
}

// `a OP b` on two code runs into mask[0, n): 1 where it holds, else 0.
void MaskColumns(CmpOp op, const uint32_t* a, const uint32_t* b, size_t n,
                 uint8_t* mask) {
  switch (op) {
    case CmpOp::kEq:
      for (size_t i = 0; i < n; ++i) mask[i] = a[i] == b[i];
      return;
    case CmpOp::kNe:
      for (size_t i = 0; i < n; ++i) mask[i] = a[i] != b[i];
      return;
    case CmpOp::kLt:
      for (size_t i = 0; i < n; ++i) mask[i] = a[i] < b[i];
      return;
    case CmpOp::kLe:
      for (size_t i = 0; i < n; ++i) mask[i] = a[i] <= b[i];
      return;
    case CmpOp::kGt:
      for (size_t i = 0; i < n; ++i) mask[i] = a[i] > b[i];
      return;
    case CmpOp::kGe:
      for (size_t i = 0; i < n; ++i) mask[i] = a[i] >= b[i];
      return;
  }
}

// Node `i` of `p` under `logic` over rows [begin, begin + n) of `t`, the
// table `p` was compiled for, into masks[i]; the operands' masks, earlier
// in postorder, are already built. A comparison's two-valued outcome turns
// Kleene under 3VL: TRUE becomes 2, and a row where an operand is a null (a
// null code or a null constant) becomes UNKNOWN.
void NodeMask(const CodePred& p, size_t i, const VecTable& t, size_t begin,
              size_t n, NullLogic logic,
              std::vector<std::vector<uint8_t>>* masks) {
  using Kind = CodePred::Node::Kind;
  const CodePred::Node& node = p.nodes[i];
  const bool kleene = logic == NullLogic::kThreeValued;
  const uint8_t top = TrueByte(logic);
  uint8_t* mask = (*masks)[i].data();
  switch (node.kind) {
    case Kind::kConst:
      std::fill(mask, mask + n,
                kleene && node.null_const ? uint8_t{1}
                                          : node.value ? top : uint8_t{0});
      return;
    case Kind::kIsNull: {
      const uint32_t* codes = t.col(node.a).data() + begin;
      for (size_t k = 0; k < n; ++k) {
        mask[k] = codes[k] < p.null_end ? top : uint8_t{0};
      }
      return;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      const uint8_t* l = (*masks)[node.l].data();
      const uint8_t* r = (*masks)[node.r].data();
      if (node.kind == Kind::kAnd) {
        for (size_t k = 0; k < n; ++k) mask[k] = std::min(l[k], r[k]);
      } else {
        for (size_t k = 0; k < n; ++k) mask[k] = std::max(l[k], r[k]);
      }
      return;
    }
    case Kind::kNot: {
      const uint8_t* l = (*masks)[node.l].data();
      for (size_t k = 0; k < n; ++k) mask[k] = top - l[k];
      return;
    }
    case Kind::kColumns:
    case Kind::kRange:
      break;
  }
  if (kleene && node.null_const) {
    std::fill(mask, mask + n, uint8_t{1});
    return;
  }
  const uint32_t* a = t.col(node.a).data() + begin;
  const uint32_t* b = nullptr;
  if (node.kind == Kind::kColumns) {
    b = t.col(node.b).data() + begin;
    MaskColumns(node.op, a, b, n, mask);
  } else {
    const uint32_t lo = node.range.lo;
    const uint32_t span = node.range.hi - lo;
    if (node.range.negate) {
      for (size_t k = 0; k < n; ++k) mask[k] = a[k] - lo >= span;
    } else {
      for (size_t k = 0; k < n; ++k) mask[k] = a[k] - lo < span;
    }
  }
  if (!kleene) return;
  for (size_t k = 0; k < n; ++k) {
    mask[k] = a[k] < p.null_end ? uint8_t{1} : uint8_t(2 * mask[k]);
  }
  if (b == nullptr) return;
  for (size_t k = 0; k < n; ++k) {
    if (b[k] < p.null_end) mask[k] = 1;
  }
}

// Calls keep_range(begin, end, &ids) over [0, n) — in one call below the
// parallel threshold, else in chunks across threads — and concatenates the
// ids the chunks kept in chunk order, so the result is identical at every
// thread count.
template <class KeepRange>
std::vector<uint32_t> ChunkedKeep(size_t n, const EvalOptions& options,
                                  KeepRange keep_range) {
  std::vector<uint32_t> keep;
  if (n < options.parallel_row_threshold ||
      ResolveNumThreads(options.num_threads) <= 1) {
    keep_range(size_t{0}, n, &keep);
    return keep;
  }
  std::vector<std::vector<uint32_t>> chunks(
      ParallelChunkCount(options.num_threads, n, kVecBatchRows));
  (void)ParallelFor(options.num_threads, n, kVecBatchRows,
                    [&](size_t begin, size_t end, size_t chunk) -> Status {
                      keep_range(begin, end, &chunks[chunk]);
                      return Status::OK();
                    });
  for (const std::vector<uint32_t>& c : chunks) {
    keep.insert(keep.end(), c.begin(), c.end());
  }
  return keep;
}

// Predicate-over-column selection: batched mask evaluation producing the
// ascending ids of the rows where `pred`, compiled for `t`'s dictionary, is
// TRUE under `logic`. Each chunk keeps one mask per node across its
// batches.
std::vector<uint32_t> FilterRows(const CodePred& pred, const VecTable& t,
                                 NullLogic logic, const EvalOptions& options,
                                 EvalStats* stats) {
  CountVectorized(stats, t.rows);
  const uint8_t top = TrueByte(logic);
  return ChunkedKeep(
      t.rows, options,
      [&](size_t begin, size_t end, std::vector<uint32_t>* keep) {
        std::vector<std::vector<uint8_t>> masks(
            pred.nodes.size(),
            std::vector<uint8_t>(std::min(end - begin, kVecBatchRows)));
        const uint8_t* mask = masks[pred.root()].data();
        for (size_t b = begin; b < end; b += kVecBatchRows) {
          const size_t e = std::min(end, b + kVecBatchRows);
          for (size_t i = 0; i < pred.nodes.size(); ++i) {
            NodeMask(pred, i, t, b, e - b, logic, &masks);
          }
          for (size_t i = b; i < e; ++i) {
            if (mask[i - b] == top) keep->push_back(static_cast<uint32_t>(i));
          }
        }
      });
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

// The rows of `t` that hold no null: `t` itself when it has none.
VecTable NullFreeRows(VecTable t, EvalStats* stats) {
  CountVectorized(stats, t.rows);
  const uint32_t null_end = t.dict->null_end;
  if (null_end == 0) return t;  // no null in the dictionary
  std::vector<uint8_t> has_null(t.rows, 0);
  for (size_t c = 0; c < t.arity; ++c) {
    const std::vector<uint32_t>& codes = t.col(c);
    for (size_t i = 0; i < t.rows; ++i) has_null[i] |= codes[i] < null_end;
  }
  std::vector<uint32_t> keep;
  for (size_t i = 0; i < t.rows; ++i) {
    if (!has_null[i]) keep.push_back(static_cast<uint32_t>(i));
  }
  if (keep.size() == t.rows) return t;
  return GatherRows(t, keep);
}

// Projection as column slicing: copy the selected columns, then compact
// (projection can introduce duplicate rows).
VecTable ProjectCols(const VecTable& t, const std::vector<size_t>& cols) {
  std::vector<std::vector<uint32_t>> out(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) out[c] = t.col(cols[c]);
  size_t rows = t.rows;
  CompactRows(cols.size(), t.dict->size(), &out, &rows);
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
Result<VecTable> ProductVec(const VecTable& l, const VecTable& r,
                            EvalStats* stats) {
  if (r.rows != 0 && l.rows > kMaxRows / r.rows) {
    return TooManyRows("product", l.rows, r.rows);
  }
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

// Fused equi-join: a flat hash build over the right key columns, a chunked
// probe over the left rows, residual and projection applied on codes. Under
// 3VL a key equality with a null operand is UNKNOWN, so a left row with a
// null key code matches nothing and does not probe.
Result<VecTable> HashJoinVec(const VecTable& l, const VecTable& r,
                             const std::vector<JoinKey>& keys,
                             const PredicatePtr& residual,
                             const std::vector<size_t>* projection,
                             NullLogic logic, const EvalOptions& options,
                             EvalStats* stats, OpScope* scope) {
  CountVectorized(stats, l.rows + r.rows);
  DictMerge m = MergeDicts(l.dict, r.dict);
  const CodeView lv = RemapInto(l, m, m.from_a);
  const CodeView rv = RemapInto(r, m, m.from_b);
  const CodePred pred =
      residual != nullptr ? CompilePred(residual, *m.dict) : CodePred{};
  std::vector<size_t> lcols;
  std::vector<size_t> rcols;
  lcols.reserve(keys.size());
  rcols.reserve(keys.size());
  for (const JoinKey& k : keys) {
    lcols.push_back(k.left_col);
    rcols.push_back(k.right_col);
  }

  // The build side is a RowHashIndex over the right rows' mixed key codes,
  // so a probe row meets its matches in right-row order; it is built only
  // when some left row will probe it.
  const RowHashIndex index(l.rows > 0 ? r.rows : 0, [&](size_t i) {
    return MixCodes(rv, i, rcols);
  });

  // Verified key match via merged codes (collision- and cross-dict-safe).
  auto keys_match = [&](size_t li, size_t ri) {
    for (size_t k = 0; k < lcols.size(); ++k) {
      if (lv.col(lcols[k])[li] != rv.col(rcols[k])[ri]) return false;
    }
    return true;
  };
  const bool skip_null_keys = logic == NullLogic::kThreeValued;
  const uint32_t null_end = m.dict->null_end;
  auto null_key = [&](size_t li) {
    for (size_t c : lcols) {
      if (lv.col(c)[li] < null_end) return true;
    }
    return false;
  };
  // Returns the lookups made. A chunk stops collecting once it holds more
  // than kMaxRows pairs; the join then fails instead of emitting a table
  // its row ids cannot index.
  auto probe_chunk = [&](size_t begin, size_t end,
                         std::vector<std::pair<uint32_t, uint32_t>>* out) {
    uint64_t lookups = 0;
    for (size_t i = begin; i < end && out->size() <= kMaxRows; ++i) {
      if (skip_null_keys && null_key(i)) continue;
      ++lookups;
      index.ForEachCandidate(MixCodes(lv, i, lcols), [&](uint32_t ri) {
        if (keys_match(i, ri)) out->emplace_back(static_cast<uint32_t>(i), ri);
      });
    }
    return lookups;
  };

  std::vector<std::pair<uint32_t, uint32_t>> matches;
  uint64_t probes = 0;
  const bool parallel = l.rows >= options.parallel_row_threshold &&
                        ResolveNumThreads(options.num_threads) > 1;
  if (!parallel) {
    probes = probe_chunk(0, l.rows, &matches);
  } else {
    const size_t n_chunks =
        ParallelChunkCount(options.num_threads, l.rows, kVecBatchRows);
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> chunks(n_chunks);
    std::vector<uint64_t> chunk_probes(n_chunks);
    (void)ParallelFor(options.num_threads, l.rows, kVecBatchRows,
                      [&](size_t begin, size_t end, size_t chunk) -> Status {
                        chunk_probes[chunk] =
                            probe_chunk(begin, end, &chunks[chunk]);
                        return Status::OK();
                      });
    size_t total = 0;
    for (size_t c = 0; c < n_chunks; ++c) {
      total += chunks[c].size();
      probes += chunk_probes[c];
    }
    if (total > kMaxRows) return TooManyRows("join", l.rows, r.rows);
    matches.reserve(total);
    for (const auto& c : chunks) {
      matches.insert(matches.end(), c.begin(), c.end());
    }
  }
  if (matches.size() > kMaxRows) return TooManyRows("join", l.rows, r.rows);
  if (scope != nullptr) scope->CountProbes(probes);

  // Emit the matched concatenations column by column: under a projection
  // only the columns it keeps and the residual reads, otherwise all.
  const size_t arity = l.arity + r.arity;
  std::vector<uint8_t> emit(arity, projection == nullptr ? 1 : 0);
  if (projection != nullptr) {
    for (size_t c : *projection) emit[c] = 1;
    for (size_t c : pred.columns) emit[c] = 1;
  }
  std::vector<std::vector<uint32_t>> out(arity);
  for (size_t c = 0; c < arity; ++c) {
    if (!emit[c]) continue;
    out[c].reserve(matches.size());
    if (c < l.arity) {
      const std::vector<uint32_t>& in = lv.col(c);
      for (const auto& [li, ri] : matches) out[c].push_back(in[li]);
    } else {
      const std::vector<uint32_t>& in = rv.col(c - l.arity);
      for (const auto& [li, ri] : matches) out[c].push_back(in[ri]);
    }
  }
  VecTable joined =
      VecTable::Own(arity, matches.size(), m.dict, std::move(out));

  if (!pred.empty()) {
    // Keep the rows the residual passes, in place (ids ascend).
    const std::vector<uint32_t> keep =
        FilterRows(pred, joined, logic, options, stats);
    for (size_t c = 0; c < arity; ++c) {
      if (!emit[c]) continue;
      std::vector<uint32_t>& col = joined.owned[c];
      for (size_t i = 0; i < keep.size(); ++i) col[i] = col[keep[i]];
      col.resize(keep.size());
    }
    joined.rows = keep.size();
  }
  if (projection != nullptr) return ProjectCols(joined, *projection);
  CompactRows(joined.arity, joined.dict->size(), &joined.owned,
              &joined.rows);
  return joined;
}

// The rows of `v` (`rows` rows over `arity` columns) grouped by null
// pattern — the set of positions holding a null — in order of first
// appearance; each group lists its rows ascending.
std::vector<std::vector<uint32_t>> GroupByNullPattern(const CodeView& v,
                                                      size_t rows,
                                                      size_t arity,
                                                      uint32_t null_end) {
  std::vector<const uint32_t*> cols(arity);
  for (size_t c = 0; c < arity; ++c) cols[c] = v.col(c).data();
  std::vector<std::vector<uint32_t>> groups;
  std::map<std::vector<uint64_t>, uint32_t> group_of;
  std::vector<uint64_t> pattern((arity + 63) / 64);
  std::vector<uint64_t> last;
  uint32_t group = 0;
  for (size_t i = 0; i < rows; ++i) {
    std::fill(pattern.begin(), pattern.end(), uint64_t{0});
    for (size_t c = 0; c < arity; ++c) {
      if (cols[c][i] < null_end) pattern[c / 64] |= uint64_t{1} << (c % 64);
    }
    // Rows of one pattern tend to come in runs; look up only on a change.
    if (i == 0 || pattern != last) {
      const auto [it, fresh] =
          group_of.emplace(pattern, static_cast<uint32_t>(groups.size()));
      if (fresh) groups.emplace_back();
      group = it->second;
      last = pattern;
    }
    groups[group].push_back(static_cast<uint32_t>(i));
  }
  return groups;
}

// l − r under 3VL, SQL's NOT IN on rows: a left row t survives unless some
// right row s agrees with it on every position where both are non-null
// (then t = s is TRUE or UNKNOWN, not FALSE). For each null pattern of the
// left rows and each group of right rows sharing a null pattern, the rows
// still alive probe a RowHashIndex over the group, keyed on the positions
// both patterns fill; when there are none, the group drops them all. The
// survivors keep `l`'s codes and order. Probes count the lookups.
VecTable DiffVec3VL(VecTable l, const VecTable& r, const EvalOptions& options,
                    EvalStats* stats, OpScope* scope) {
  CountVectorized(stats, l.rows + r.rows);
  if (l.rows == 0 || r.rows == 0) return l;
  DictMerge m = MergeDicts(l.dict, r.dict);
  const CodeView lv = RemapInto(l, m, m.from_a);
  const CodeView rv = RemapInto(r, m, m.from_b);
  const uint32_t null_end = m.dict->null_end;
  const size_t arity = l.arity;
  const std::vector<std::vector<uint32_t>> r_groups =
      GroupByNullPattern(rv, r.rows, arity, null_end);

  std::vector<uint8_t> survives(l.rows, 0);
  uint64_t probes = 0;
  for (const std::vector<uint32_t>& l_group :
       GroupByNullPattern(lv, l.rows, arity, null_end)) {
    std::vector<uint32_t> alive = l_group;
    for (const std::vector<uint32_t>& r_group : r_groups) {
      if (alive.empty()) break;
      std::vector<size_t> key;
      for (size_t c = 0; c < arity; ++c) {
        if (lv.col(c)[l_group[0]] >= null_end &&
            rv.col(c)[r_group[0]] >= null_end) {
          key.push_back(c);
        }
      }
      if (key.empty()) {
        alive.clear();
        break;
      }
      const RowHashIndex index(r_group.size(), [&](size_t k) {
        return MixCodes(rv, r_group[k], key);
      });
      auto agrees = [&](uint32_t t, uint32_t k) {
        for (size_t c : key) {
          if (lv.col(c)[t] != rv.col(c)[r_group[k]]) return false;
        }
        return true;
      };
      probes += alive.size();
      alive = ChunkedKeep(
          alive.size(), options,
          [&](size_t begin, size_t end, std::vector<uint32_t>* keep) {
            for (size_t a = begin; a < end; ++a) {
              const uint32_t t = alive[a];
              if (!index.AnyCandidate(MixCodes(lv, t, key), [&](uint32_t k) {
                    return agrees(t, k);
                  })) {
                keep->push_back(t);
              }
            }
          });
    }
    for (uint32_t t : alive) survives[t] = 1;
  }
  if (scope != nullptr) scope->CountProbes(probes);
  std::vector<uint32_t> keep;
  for (size_t i = 0; i < l.rows; ++i) {
    if (survives[i]) keep.push_back(static_cast<uint32_t>(i));
  }
  if (keep.size() == l.rows) return l;
  return GatherRows(l, keep);
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

// The answer as a Relation whose body is its columns. The dictionary is
// compacted to the codes the answer uses (order-preserving, so rows stay
// canonical): an answer held by a cache or a session never keeps a
// snapshot's dictionary, or a merged one, alive.
Relation MaterializeVec(VecTable t) {
  std::vector<std::vector<uint32_t>> cols(t.arity);
  for (size_t c = 0; c < t.arity; ++c) {
    if (t.pin == nullptr) {
      cols[c] = std::move(t.owned[c]);
    } else {
      cols[c] = t.pin->col(c);
    }
  }
  std::shared_ptr<const ValueDict> dict = CompactDict(*t.dict, {}, &cols);
  return Relation(std::make_shared<const ColumnarRelation>(
      t.arity, t.rows, std::move(dict), std::move(cols)));
}

// The batch evaluator; mirrors algebra/eval.cc's Rec (and under 3VL
// algebra/eval_3vl.cc's fold) node by node, including the σ/π-over-× join
// fusion, so the paths execute the same plan shapes and produce
// bit-identical relations.
struct VRec {
  const Database& db;
  const EvalOptions& options;
  NullLogic logic;
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
        INCDB_ASSIGN_OR_RETURN(VecTable out, ProductVec(l, r, stats));
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
        if (logic == NullLogic::kThreeValued && r.rows > 0) {
          // A head needs a TRUE match for every divisor row, and a dividend
          // row with a null matches nothing; no null-free row matches a
          // divisor row with a null either, so such a divisor leaves no
          // head. An empty divisor keeps every head, nulls included.
          l = NullFreeRows(std::move(l), stats);
        }
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
    VecTable out;
    if (logic == NullLogic::kThreeValued && kind == SetKind::kDiff) {
      out = DiffVec3VL(std::move(l), r, options, stats, &scope);
    } else {
      // Under 3VL, t ∈ l ∩ r needs t = s to be TRUE for some s ∈ r: an
      // exact match of a null-free row.
      if (logic == NullLogic::kThreeValued && kind == SetKind::kIntersect) {
        l = NullFreeRows(std::move(l), stats);
      }
      out = SetOpVec(kind, l, r, options, stats);
    }
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
        INCDB_ASSIGN_OR_RETURN(
            VecTable out,
            HashJoinVec(l, r, split.keys, split.residual, projection,
                        logic, options, stats, &scope));
        scope.CountOut(out.rows);
        return out;
      }
      OpScope pscope(stats, EvalOp::kProduct);
      pscope.CountIn(l.rows + r.rows);
      INCDB_ASSIGN_OR_RETURN(VecTable in, ProductVec(l, r, stats));
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
    const std::vector<uint32_t> keep =
        FilterRows(CompilePred(pred, *in.dict), in, logic, options, stats);
    VecTable out = GatherRows(in, keep);
    if (projection != nullptr) out = ProjectCols(out, *projection);
    scope.CountOut(out.rows);
    return out;
  }
};

}  // namespace

Result<Relation> EvalVectorized(const RAExprPtr& e, const Database& db,
                                const EvalOptions& options, NullLogic logic) {
  // Validate typing once at the root (same contract as EvalNaive).
  INCDB_RETURN_IF_ERROR(e->InferArity(db.schema()).status());
  VRec rec{db, options, logic, options.stats};
  INCDB_ASSIGN_OR_RETURN(VecTable t, rec.Run(e));
  return MaterializeVec(std::move(t));
}

}  // namespace incdb
