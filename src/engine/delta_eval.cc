// Differential evaluator implementation. The operator rules, the code
// representation and the clock rule are documented in delta_eval.h. A
// DeltaPlan holds one Op per plan operator, in postorder, with everything
// that does not change across worlds; a DeltaEvaluator holds one Node per Op
// with the chain's state: the counted output, the step's transitions, and
// whatever its delta rule probes (join key mirrors, division counters).
// σ-over-× (and π over either) is fused into one join node via
// SplitForEquiJoin, mirroring the full kernels' peephole, so products never
// pay per-pair work on a step.

#include "engine/delta_eval.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algebra/predicate.h"
#include "core/relation.h"
#include "core/tuple.h"
#include "core/value.h"
#include "engine/kernels.h"
#include "util/status.h"

namespace incdb {

namespace {

// A cell of an encoded base row is a dictionary code, or, with this bit
// set, the slot of the null whose current code the valuation holds.
constexpr uint32_t kNullSlot = WorldEncoding::kNullSlot;

constexpr uint32_t kNone = CodeRows::kNone;

bool HasSlot(const std::vector<uint64_t>& bits, size_t slot) {
  return (bits[slot >> 6] >> (slot & 63)) & 1;
}

void OrInto(std::vector<uint64_t>& bits, const std::vector<uint64_t>& more) {
  for (size_t w = 0; w < bits.size(); ++w) bits[w] |= more[w];
}

void Gather(const uint32_t* row, const std::vector<size_t>& cols,
            uint32_t* out) {
  for (size_t i = 0; i < cols.size(); ++i) out[i] = row[cols[i]];
}

// One side of a join: the child's current rows grouped by join key. `rows`
// holds each row once, and the rows that share a key form a chain linked
// through next/prev whose first slot `head` keeps, by key slot.
struct Mirror {
  CodeRows rows;
  CodeRows keys;
  std::vector<uint32_t> next, prev, head;
  std::vector<uint32_t> key;  // scratch: the key of the row at hand
  const std::vector<size_t>* key_cols = nullptr;

  void Reset(size_t width, const std::vector<size_t>& cols) {
    rows = CodeRows(width);
    keys = CodeRows(cols.size());
    key.resize(cols.size());
    key_cols = &cols;
  }
  void Clear() {
    rows.Clear();
    keys.Clear();
  }

  void Add(const uint32_t* row) {
    bool inserted;
    const uint32_t s = rows.Insert(row, &inserted);
    if (!inserted) return;
    if (s >= next.size()) {
      next.resize(rows.slot_bound());
      prev.resize(rows.slot_bound());
    }
    Gather(row, *key_cols, key.data());
    const uint32_t k = keys.Insert(key.data(), &inserted);
    if (k >= head.size()) head.resize(keys.slot_bound());
    if (inserted) head[k] = kNone;
    next[s] = head[k];
    prev[s] = kNone;
    if (head[k] != kNone) prev[head[k]] = s;
    head[k] = s;
  }

  void Remove(const uint32_t* row) {
    const uint32_t s = rows.Find(row);
    if (s == kNone) return;
    if (prev[s] != kNone) {
      next[prev[s]] = next[s];
    } else {
      Gather(row, *key_cols, key.data());
      const uint32_t k = keys.Find(key.data());
      head[k] = next[s];
      if (head[k] == kNone) keys.Erase(k);
    }
    if (next[s] != kNone) prev[next[s]] = prev[s];
    rows.Erase(s);
  }

  // Calls fn(row) for each row whose key codes are `probe_key`.
  template <class Fn>
  void ForEachMatch(const uint32_t* probe_key, Fn fn) const {
    const uint32_t k = keys.Find(probe_key);
    if (k == kNone) return;
    for (uint32_t s = head[k]; s != kNone; s = next[s]) fn(rows.Row(s));
  }
};

}  // namespace

// A scanned relation's rows encoded against the query dictionary, and the
// rows each null occurs in: rows prov_rows[prov_start[s], prov_start[s+1])
// hold the null of slot s, each once.
struct DeltaPlan::Scan {
  size_t arity = 0;
  size_t rows = 0;
  std::vector<uint32_t> cells;  // arity cells per row
  std::vector<uint32_t> prov_start;
  std::vector<uint32_t> prov_rows;
  std::vector<uint64_t> nulls;  // the slots that occur, as a bitset
};

struct DeltaPlan::Op {
  enum class Kind {
    kScan,
    kConst,
    kSelect,
    kProject,
    kJoin,  // ×, with any directly enclosing σ / π fused in
    kUnion,
    kDiff,
    kIntersect,
    kDivide,
    kDiagonal,  // Δ over the world's active domain
  };

  Kind kind = Kind::kScan;
  size_t arity = 0;
  size_t left = kNoChild;
  size_t right = kNoChild;
  // Null slots occurring in this subtree's base relations: a step whose
  // null is not here cannot change the output, so the node is skipped.
  std::vector<uint64_t> nulls;

  // kScan: index into scans_. kConst: the literal's rows.
  size_t scan = 0;
  std::vector<uint32_t> rows;
  size_t row_count = 0;
  // kSelect: the filter; kJoin: the residual on the concatenated row
  // (empty when there is none).
  CodePred pred;
  // kJoin: equi-join key columns (parallel lists, left relative to the left
  // child, right relative to the right child) and the fused projection.
  std::vector<size_t> left_keys, right_keys;
  bool has_projection = false;
  std::vector<size_t> projection;
  // kProject: projection columns. kDivide: head columns (cols) and divisor
  // columns (cols2) of the left input.
  std::vector<size_t> cols, cols2;
  // kDiagonal: the codes of Const(D).
  std::vector<uint32_t> constants;

  static constexpr size_t kNoChild = static_cast<size_t>(-1);

  EvalOp op() const {
    switch (kind) {
      case Kind::kScan:
      case Kind::kConst:
        return EvalOp::kScan;
      case Kind::kSelect:
        return EvalOp::kSelect;
      case Kind::kProject:
        return EvalOp::kProject;
      case Kind::kJoin:
        return left_keys.empty() ? EvalOp::kProduct : EvalOp::kHashJoin;
      case Kind::kUnion:
        return EvalOp::kUnion;
      case Kind::kDiff:
        return EvalOp::kDiff;
      case Kind::kIntersect:
        return EvalOp::kIntersect;
      case Kind::kDivide:
        return EvalOp::kDivide;
      case Kind::kDiagonal:
        return EvalOp::kDelta;
    }
    return EvalOp::kScan;
  }
};

DeltaPlan::DeltaPlan() = default;
DeltaPlan::~DeltaPlan() = default;

size_t DeltaPlan::arity() const { return ops_.back().arity; }

Tuple DeltaPlan::Decode(const uint32_t* row) const {
  std::vector<Value> values;
  values.reserve(arity());
  for (size_t c = 0; c < arity(); ++c) values.push_back(enc_.dict().values[row[c]]);
  return Tuple(std::move(values));
}

Relation DeltaPlan::Decode(const CodeRows& rows) const {
  std::vector<Tuple> tuples;
  tuples.reserve(rows.size());
  rows.ForEach([&](uint32_t s) { tuples.push_back(Decode(rows.Row(s))); });
  return Relation(arity(), std::move(tuples));
}

Result<std::shared_ptr<const DeltaPlan>> DeltaPlan::Compile(
    const RAExprPtr& plan, const Database& db, const WorldSpace& space) {
  std::shared_ptr<DeltaPlan> p(new DeltaPlan());
  INCDB_ASSIGN_OR_RETURN(p->enc_, WorldEncoding::Make(plan, space));
  std::map<std::string, size_t> scan_of;
  INCDB_RETURN_IF_ERROR(p->CompileOp(plan, db, &scan_of).status());
  return std::shared_ptr<const DeltaPlan>(std::move(p));
}

size_t DeltaPlan::EncodeScan(const Relation& r, size_t arity) {
  Scan scan;
  scan.arity = arity;
  scan.rows = r.size();
  scan.cells = enc_.EncodeBaseRows(r);
  const size_t num_nulls = enc_.nulls().size();
  // (slot, row) once per null of each row, then grouped by slot.
  std::vector<std::pair<uint32_t, uint32_t>> occurs;
  for (uint32_t row = 0; row < scan.rows; ++row) {
    const size_t first = occurs.size();
    for (size_t c = 0; c < arity; ++c) {
      const uint32_t cell = scan.cells[row * arity + c];
      if (!(cell & kNullSlot)) continue;
      const uint32_t slot = cell & ~kNullSlot;
      bool seen = false;
      for (size_t i = first; i < occurs.size(); ++i) {
        seen = seen || occurs[i].first == slot;
      }
      if (!seen) occurs.emplace_back(slot, row);
    }
  }
  std::stable_sort(
      occurs.begin(), occurs.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  scan.nulls.assign(std::max<size_t>(1, (num_nulls + 63) / 64), 0);
  scan.prov_start.assign(num_nulls + 1, 0);
  for (const auto& [slot, row] : occurs) {
    ++scan.prov_start[slot + 1];
    scan.prov_rows.push_back(row);
    scan.nulls[slot >> 6] |= uint64_t{1} << (slot & 63);
  }
  for (size_t s = 1; s < scan.prov_start.size(); ++s) {
    scan.prov_start[s] += scan.prov_start[s - 1];
  }
  scans_.push_back(std::move(scan));
  return scans_.size() - 1;
}

Result<size_t> DeltaPlan::CompileOp(const RAExprPtr& e, const Database& db,
                                    std::map<std::string, size_t>* scan_of) {
  using K = RAExpr::Kind;
  INCDB_ASSIGN_OR_RETURN(const size_t arity, e->InferArity(db.schema()));

  // Detect the fusable join shapes π(σ(×)), σ(×), π(×), and bare ×.
  PredicatePtr sel;
  const std::vector<size_t>* proj = nullptr;
  const RAExpr* prod = nullptr;
  if (e->kind() == K::kProject && e->left()->kind() == K::kSelect &&
      e->left()->left()->kind() == K::kProduct) {
    proj = &e->columns();
    sel = e->left()->predicate();
    prod = e->left()->left().get();
  } else if (e->kind() == K::kProject && e->left()->kind() == K::kProduct) {
    proj = &e->columns();
    prod = e->left().get();
  } else if (e->kind() == K::kSelect && e->left()->kind() == K::kProduct) {
    sel = e->predicate();
    prod = e->left().get();
  } else if (e->kind() == K::kProduct) {
    prod = e.get();
  }

  Op n;
  n.arity = arity;
  n.nulls.assign(std::max<size_t>(1, (enc_.nulls().size() + 63) / 64), 0);
  if (prod != nullptr) {
    n.kind = Op::Kind::kJoin;
    INCDB_ASSIGN_OR_RETURN(n.left, CompileOp(prod->left(), db, scan_of));
    INCDB_ASSIGN_OR_RETURN(n.right, CompileOp(prod->right(), db, scan_of));
    if (sel != nullptr) {
      JoinSplit split = SplitForEquiJoin(sel, ops_[n.left].arity);
      for (const JoinKey& k : split.keys) {
        n.left_keys.push_back(k.left_col);
        n.right_keys.push_back(k.right_col);
      }
      if (split.residual != nullptr) {
        n.pred = CompilePred(split.residual, enc_.dict());
      }
    }
    if (proj != nullptr) {
      n.has_projection = true;
      n.projection = *proj;
    }
  } else {
    switch (e->kind()) {
      case K::kScan: {
        n.kind = Op::Kind::kScan;
        auto [it, fresh] = scan_of->emplace(e->relation_name(), 0);
        if (fresh) {
          it->second = EncodeScan(db.GetRelation(e->relation_name()), arity);
        }
        n.scan = it->second;
        n.nulls = scans_[n.scan].nulls;
        break;
      }
      case K::kConstRel: {
        // Valuations never apply to literals, so nulls stays empty and the
        // node never steps — matching the full evaluators, which use
        // literals as-is in every world.
        n.kind = Op::Kind::kConst;
        n.row_count = e->literal().size();
        n.rows = enc_.EncodeLiteralRows(e->literal());
        break;
      }
      case K::kSelect:
        n.kind = Op::Kind::kSelect;
        n.pred = CompilePred(e->predicate(), enc_.dict());
        break;
      case K::kProject:
        n.kind = Op::Kind::kProject;
        n.cols = e->columns();
        break;
      case K::kUnion:
        n.kind = Op::Kind::kUnion;
        break;
      case K::kDiff:
        n.kind = Op::Kind::kDiff;
        break;
      case K::kIntersect:
        n.kind = Op::Kind::kIntersect;
        break;
      case K::kDivide:
        n.kind = Op::Kind::kDivide;
        break;
      case K::kDelta: {
        // Δ ranges over the whole world's active domain, so every null of
        // the database can move it.
        n.kind = Op::Kind::kDiagonal;
        for (const Value& c : db.Constants()) {
          n.constants.push_back(enc_.dict().Find(c));
        }
        for (size_t s = 0; s < enc_.nulls().size(); ++s) {
          n.nulls[s >> 6] |= uint64_t{1} << (s & 63);
        }
        break;
      }
      case K::kProduct:
        return Status::Internal("delta evaluation: unreachable plan kind");
    }
    if (e->left() != nullptr) {
      INCDB_ASSIGN_OR_RETURN(n.left, CompileOp(e->left(), db, scan_of));
    }
    if (e->right() != nullptr) {
      INCDB_ASSIGN_OR_RETURN(n.right, CompileOp(e->right(), db, scan_of));
    }
    if (n.kind == Op::Kind::kDivide) {
      for (size_t c = 0; c < arity; ++c) n.cols.push_back(c);
      for (size_t c = arity; c < ops_[n.left].arity; ++c) n.cols2.push_back(c);
    }
  }
  if (n.left != Op::kNoChild) OrInto(n.nulls, ops_[n.left].nulls);
  if (n.right != Op::kNoChild) OrInto(n.nulls, ops_[n.right].nulls);
  ops_.push_back(std::move(n));
  return ops_.size() - 1;
}

// One chain's state of one plan operator.
struct DeltaEvaluator::Node {
  const DeltaPlan::Op* op = nullptr;
  Node* left = nullptr;
  Node* right = nullptr;
  // The output rows, each with its derivation count and the step that last
  // changed it, and the rows changed in the current step with the count each
  // had before it.
  CodeRows out;
  std::vector<int64_t> count;
  std::vector<uint64_t> changed_in;
  std::vector<std::pair<uint32_t, int64_t>> touched;
  RowChanges delta;
  // kJoin: key-indexed mirrors of the children's current rows.
  Mirror left_rows, right_rows;
  // kDiff / kIntersect: the children's transitions of the step, by row.
  CodeRows left_flips, right_flips;
  std::vector<int8_t> right_sign;
  // kDivide: head -> #left rows with that head / #divisor rows it matches;
  // membership is rows > 0 and matches == |divisor|. The heads changed in
  // the step keep their counts from before it.
  CodeRows heads;
  std::vector<int64_t> head_rows, head_matches;
  std::vector<uint64_t> head_changed_in;
  std::vector<std::tuple<uint32_t, int64_t, int64_t>> head_touched;
  // Row scratch.
  std::vector<uint32_t> buf, buf2;

  // The slot of division head `head`, added with zero counters when new.
  uint32_t Head(const uint32_t* head, bool* inserted) {
    const uint32_t h = heads.Insert(head, inserted);
    if (h >= head_rows.size()) {
      head_rows.resize(heads.slot_bound());
      head_matches.resize(heads.slot_bound());
      head_changed_in.resize(heads.slot_bound());
    }
    if (*inserted) head_rows[h] = head_matches[h] = head_changed_in[h] = 0;
    return h;
  }
};

DeltaEvaluator::DeltaEvaluator(const DeltaPlan& plan, EvalStats* stats)
    : plan_(plan), stats_(stats), val_(plan.enc_.nulls().size(), 0) {
  nodes_.resize(plan.ops_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const DeltaPlan::Op& op = plan.ops_[i];
    Node& n = nodes_[i];
    n.op = &op;
    if (op.left != DeltaPlan::Op::kNoChild) n.left = &nodes_[op.left];
    if (op.right != DeltaPlan::Op::kNoChild) n.right = &nodes_[op.right];
    n.out = CodeRows(op.arity);
    n.delta = RowChanges(op.arity);
    size_t scratch = op.arity;
    switch (op.kind) {
      case DeltaPlan::Op::Kind::kScan:
        scratch = plan.scans_[op.scan].arity;
        break;
      case DeltaPlan::Op::Kind::kJoin:
        n.left_rows.Reset(n.left->op->arity, op.left_keys);
        n.right_rows.Reset(n.right->op->arity, op.right_keys);
        scratch = n.left->op->arity + n.right->op->arity;
        break;
      case DeltaPlan::Op::Kind::kDiff:
      case DeltaPlan::Op::Kind::kIntersect:
        n.left_flips = CodeRows(op.arity);
        n.right_flips = CodeRows(op.arity);
        break;
      case DeltaPlan::Op::Kind::kDivide:
        n.heads = CodeRows(op.arity);
        scratch = n.left->op->arity;
        break;
      default:
        break;
    }
    n.buf.resize(std::max(scratch, op.arity));
    n.buf2.resize(std::max(scratch, op.arity));
  }
}

DeltaEvaluator::~DeltaEvaluator() = default;

const CodeRows& DeltaEvaluator::output() const { return nodes_.back().out; }

const RowChanges& DeltaEvaluator::changes() const {
  return nodes_.back().delta;
}

void DeltaEvaluator::Adjust(Node& n, const uint32_t* row, int64_t d) {
  bool inserted;
  const uint32_t s = n.out.Insert(row, &inserted);
  if (s >= n.count.size()) {
    n.count.resize(n.out.slot_bound());
    n.changed_in.resize(n.out.slot_bound());
  }
  if (inserted) n.count[s] = 0;
  if (inserted || n.changed_in[s] != step_) {
    n.changed_in[s] = step_;
    n.touched.emplace_back(s, n.count[s]);
  }
  n.count[s] += d;
}

void DeltaEvaluator::Finish(Node& n, bool emit) {
  for (const auto& [s, before] : n.touched) {
    const int64_t after = n.count[s];
    if (emit && before <= 0 && after > 0) {
      n.delta.Push(n.out.Row(s), +1);
    } else if (emit && before > 0 && after <= 0) {
      n.delta.Push(n.out.Row(s), -1);
    }
    if (after == 0) n.out.Erase(s);
  }
  n.touched.clear();
}

void DeltaEvaluator::JoinPair(Node& n, const uint32_t* l, const uint32_t* r,
                              int64_t sign) {
  const size_t lw = n.left->op->arity;
  uint32_t* joined = n.buf.data();
  std::copy(l, l + lw, joined);
  std::copy(r, r + n.right->op->arity, joined + lw);
  if (!n.op->pred.Holds(joined)) return;
  if (n.op->has_projection) {
    Gather(joined, n.op->projection, n.buf2.data());
    Adjust(n, n.buf2.data(), sign);
  } else {
    Adjust(n, joined, sign);
  }
}

void DeltaEvaluator::Init(Node& n, bool emit) {
  using Kind = DeltaPlan::Op::Kind;
  const DeltaPlan::Op& op = *n.op;
  OpScope scope(stats_, op.op(), /*timed=*/false);
  switch (op.kind) {
    case Kind::kScan: {
      const DeltaPlan::Scan& scan = plan_.scans_[op.scan];
      scope.CountIn(scan.rows);
      const uint32_t* cell = scan.cells.data();
      for (size_t row = 0; row < scan.rows; ++row) {
        for (size_t c = 0; c < scan.arity; ++c, ++cell) {
          n.buf[c] = *cell & kNullSlot ? val_[*cell & ~kNullSlot] : *cell;
        }
        Adjust(n, n.buf.data(), +1);
      }
      break;
    }
    case Kind::kConst:
      scope.CountIn(op.row_count);
      for (size_t row = 0; row < op.row_count; ++row) {
        Adjust(n, op.rows.data() + row * op.arity, +1);
      }
      break;
    case Kind::kSelect:
      scope.CountIn(n.left->out.size());
      n.left->out.ForEach([&](uint32_t s) {
        const uint32_t* row = n.left->out.Row(s);
        if (op.pred.Holds(row)) Adjust(n, row, +1);
      });
      break;
    case Kind::kProject:
      scope.CountIn(n.left->out.size());
      n.left->out.ForEach([&](uint32_t s) {
        Gather(n.left->out.Row(s), op.cols, n.buf.data());
        Adjust(n, n.buf.data(), +1);
      });
      break;
    case Kind::kJoin: {
      const CodeRows& l = n.left->out;
      const CodeRows& r = n.right->out;
      scope.CountIn(l.size() + r.size());
      n.left_rows.Clear();
      n.right_rows.Clear();
      l.ForEach([&](uint32_t s) { n.left_rows.Add(l.Row(s)); });
      r.ForEach([&](uint32_t s) { n.right_rows.Add(r.Row(s)); });
      std::vector<uint32_t>& key = n.left_rows.key;
      l.ForEach([&](uint32_t s) {
        scope.CountProbes(1);
        const uint32_t* lrow = l.Row(s);
        Gather(lrow, op.left_keys, key.data());
        n.right_rows.ForEachMatch(key.data(), [&](const uint32_t* rrow) {
          JoinPair(n, lrow, rrow, +1);
        });
      });
      break;
    }
    case Kind::kUnion:
      scope.CountIn(n.left->out.size() + n.right->out.size());
      for (const Node* child : {n.left, n.right}) {
        child->out.ForEach(
            [&](uint32_t s) { Adjust(n, child->out.Row(s), +1); });
      }
      break;
    case Kind::kDiff:
    case Kind::kIntersect: {
      const bool keep_if_in_right = op.kind == Kind::kIntersect;
      scope.CountIn(n.left->out.size() + n.right->out.size());
      n.left->out.ForEach([&](uint32_t s) {
        scope.CountProbes(1);
        const uint32_t* row = n.left->out.Row(s);
        if (n.right->out.Contains(row) == keep_if_in_right) {
          Adjust(n, row, +1);
        }
      });
      break;
    }
    case Kind::kDivide: {
      scope.CountIn(n.left->out.size() + n.right->out.size());
      n.heads.Clear();
      const uint64_t s_size = n.right->out.size();
      n.left->out.ForEach([&](uint32_t s) {
        scope.CountProbes(1);
        const uint32_t* row = n.left->out.Row(s);
        Gather(row, op.cols, n.buf.data());
        bool inserted;
        const uint32_t h = n.Head(n.buf.data(), &inserted);
        n.head_rows[h] += 1;
        Gather(row, op.cols2, n.buf2.data());
        if (n.right->out.Contains(n.buf2.data())) n.head_matches[h] += 1;
      });
      n.heads.ForEach([&](uint32_t h) {
        if (static_cast<uint64_t>(n.head_matches[h]) == s_size) {
          Adjust(n, n.heads.Row(h), +1);
        }
      });
      break;
    }
    case Kind::kDiagonal: {
      // (c, c) is derived once if c is a constant of D, and once more per
      // null currently bound to c.
      for (uint32_t c : op.constants) {
        n.buf[0] = n.buf[1] = c;
        Adjust(n, n.buf.data(), +1);
      }
      for (uint32_t c : val_) {
        n.buf[0] = n.buf[1] = c;
        Adjust(n, n.buf.data(), +1);
      }
      break;
    }
  }
  Finish(n, emit);
  scope.CountOut(n.out.size());
}

void DeltaEvaluator::Recompute(Node& n) {
  ++node_fallbacks_;
  // Zero every count, remembering it, so that Init's full evaluation turns
  // into transitions against the old output.
  n.out.ForEach([&](uint32_t s) {
    if (n.changed_in[s] != step_) {
      n.changed_in[s] = step_;
      n.touched.emplace_back(s, n.count[s]);
    }
    n.count[s] = 0;
  });
  Init(n, /*emit=*/true);
}

void DeltaEvaluator::Step(Node& n, size_t slot, uint32_t old_code) {
  using Kind = DeltaPlan::Op::Kind;
  const DeltaPlan::Op& op = *n.op;
  OpScope scope(stats_, op.op(), /*timed=*/false);
  if (n.left != nullptr) scope.CountIn(n.left->delta.size());
  if (n.right != nullptr) scope.CountIn(n.right->delta.size());
  switch (op.kind) {
    case Kind::kConst:
      return;  // unreachable: nulls is empty
    case Kind::kScan: {
      const DeltaPlan::Scan& scan = plan_.scans_[op.scan];
      const uint32_t begin = scan.prov_start[slot];
      const uint32_t end = scan.prov_start[slot + 1];
      scope.CountIn(end - begin);
      for (uint32_t i = begin; i < end; ++i) {
        // Retract the row's previous instance: the flipped null maps to its
        // old code, every other cell through the (already updated) current
        // valuation, which agrees with the previous one elsewhere.
        const uint32_t* cell =
            scan.cells.data() + scan.prov_rows[i] * scan.arity;
        for (size_t c = 0; c < scan.arity; ++c) {
          if (!(cell[c] & kNullSlot)) {
            n.buf[c] = n.buf2[c] = cell[c];
            continue;
          }
          const uint32_t s = cell[c] & ~kNullSlot;
          n.buf2[c] = val_[s];
          n.buf[c] = s == slot ? old_code : val_[s];
        }
        Adjust(n, n.buf.data(), -1);
        Adjust(n, n.buf2.data(), +1);
      }
      break;
    }
    case Kind::kSelect: {
      const RowChanges& d = n.left->delta;
      for (size_t i = 0; i < d.size(); ++i) {
        if (op.pred.Holds(d.Row(i))) Adjust(n, d.Row(i), d.sign(i));
      }
      break;
    }
    case Kind::kProject: {
      const RowChanges& d = n.left->delta;
      for (size_t i = 0; i < d.size(); ++i) {
        Gather(d.Row(i), op.cols, n.buf.data());
        Adjust(n, n.buf.data(), d.sign(i));
      }
      break;
    }
    case Kind::kJoin: {
      const RowChanges& ld = n.left->delta;
      const RowChanges& rd = n.right->delta;
      if (ld.size() + rd.size() > n.left->out.size() + n.right->out.size()) {
        return Recompute(n);
      }
      // Δ(L ⋈ R) = ΔL ⋈ R_old  +  L_new ⋈ ΔR: probe the right mirror
      // before folding ΔR into it, and fold ΔL into the left mirror before
      // probing it.
      std::vector<uint32_t>& key = n.left_rows.key;
      for (size_t i = 0; i < ld.size(); ++i) {
        scope.CountProbes(1);
        Gather(ld.Row(i), op.left_keys, key.data());
        n.right_rows.ForEachMatch(key.data(), [&](const uint32_t* r) {
          JoinPair(n, ld.Row(i), r, ld.sign(i));
        });
      }
      for (size_t i = 0; i < ld.size(); ++i) {
        if (ld.sign(i) > 0) {
          n.left_rows.Add(ld.Row(i));
        } else {
          n.left_rows.Remove(ld.Row(i));
        }
      }
      std::vector<uint32_t>& rkey = n.right_rows.key;
      for (size_t i = 0; i < rd.size(); ++i) {
        scope.CountProbes(1);
        Gather(rd.Row(i), op.right_keys, rkey.data());
        n.left_rows.ForEachMatch(rkey.data(), [&](const uint32_t* l) {
          JoinPair(n, l, rd.Row(i), rd.sign(i));
        });
        if (rd.sign(i) > 0) {
          n.right_rows.Add(rd.Row(i));
        } else {
          n.right_rows.Remove(rd.Row(i));
        }
      }
      break;
    }
    case Kind::kUnion:
      for (const Node* child : {n.left, n.right}) {
        const RowChanges& d = child->delta;
        for (size_t i = 0; i < d.size(); ++i) {
          Adjust(n, d.Row(i), d.sign(i));
        }
      }
      break;
    case Kind::kDiff:
    case Kind::kIntersect: {
      // A child transition's sign encodes the row's old membership there
      // (+1 ⇒ was absent, −1 ⇒ was present); membership of unflipped rows
      // is the same before and after.
      const RowChanges& ld = n.left->delta;
      const RowChanges& rd = n.right->delta;
      const bool both = !ld.empty() && !rd.empty();
      if (both) {
        for (size_t i = 0; i < ld.size(); ++i) n.left_flips.Insert(ld.Row(i));
        for (size_t i = 0; i < rd.size(); ++i) {
          bool inserted;
          const uint32_t s = n.right_flips.Insert(rd.Row(i), &inserted);
          if (s >= n.right_sign.size()) {
            n.right_sign.resize(n.right_flips.slot_bound());
          }
          n.right_sign[s] = static_cast<int8_t>(rd.sign(i));
        }
      }
      const bool is_diff = op.kind == Kind::kDiff;
      auto visit = [&](const uint32_t* row, int lsign, int rsign) {
        const bool l_new = n.left->out.Contains(row);
        const bool r_new = n.right->out.Contains(row);
        const bool l_old = lsign == 0 ? l_new : lsign < 0;
        const bool r_old = rsign == 0 ? r_new : rsign < 0;
        const bool was = l_old && (is_diff ? !r_old : r_old);
        const bool now = l_new && (is_diff ? !r_new : r_new);
        if (was != now) Adjust(n, row, now ? 1 : -1);
      };
      for (size_t i = 0; i < ld.size(); ++i) {
        scope.CountProbes(1);
        int rsign = 0;
        if (both) {
          const uint32_t s = n.right_flips.Find(ld.Row(i));
          if (s != kNone) rsign = n.right_sign[s];
        }
        visit(ld.Row(i), ld.sign(i), rsign);
      }
      for (size_t i = 0; i < rd.size(); ++i) {
        if (both && n.left_flips.Contains(rd.Row(i))) continue;
        scope.CountProbes(1);
        visit(rd.Row(i), 0, rd.sign(i));
      }
      if (both) {
        n.left_flips.Clear();
        n.right_flips.Clear();
      }
      break;
    }
    case Kind::kDivide: {
      // A changed divisor moves the match target for every head at once —
      // recompute rather than re-probing all heads.
      const RowChanges& ld = n.left->delta;
      if (!n.right->delta.empty()) return Recompute(n);
      if (ld.size() > n.left->out.size()) return Recompute(n);
      const uint64_t s_size = n.right->out.size();
      for (size_t i = 0; i < ld.size(); ++i) {
        scope.CountProbes(1);
        const uint32_t* row = ld.Row(i);
        Gather(row, op.cols, n.buf.data());
        bool inserted;
        const uint32_t h = n.Head(n.buf.data(), &inserted);
        if (inserted || n.head_changed_in[h] != step_) {
          n.head_changed_in[h] = step_;
          n.head_touched.emplace_back(h, n.head_rows[h], n.head_matches[h]);
        }
        n.head_rows[h] += ld.sign(i);
        Gather(row, op.cols2, n.buf2.data());
        if (n.right->out.Contains(n.buf2.data())) {
          n.head_matches[h] += ld.sign(i);
        }
      }
      for (const auto& [h, h_old, m_old] : n.head_touched) {
        const int64_t h_new = n.head_rows[h];
        const int64_t m_new = n.head_matches[h];
        const bool was = h_old > 0 && static_cast<uint64_t>(m_old) == s_size;
        const bool now = h_new > 0 && static_cast<uint64_t>(m_new) == s_size;
        if (was != now) Adjust(n, n.heads.Row(h), now ? 1 : -1);
      }
      for (const auto& [h, h_old, m_old] : n.head_touched) {
        if (n.head_rows[h] == 0 && n.head_matches[h] == 0) n.heads.Erase(h);
      }
      n.head_touched.clear();
      break;
    }
    case Kind::kDiagonal:
      n.buf[0] = n.buf[1] = old_code;
      Adjust(n, n.buf.data(), -1);
      n.buf[0] = n.buf[1] = val_[slot];
      Adjust(n, n.buf.data(), +1);
      break;
  }
  Finish(n, /*emit=*/true);
  scope.CountOut(n.delta.size());
}

void DeltaEvaluator::ChargeRoot() {
  const auto now = std::chrono::steady_clock::now();
  stats_->at(plan_.ops_.back().op()).nanos += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
          .count());
  last_ = now;
}

Status DeltaEvaluator::Initialize(const Valuation& v) {
  if (stats_ != nullptr) last_ = std::chrono::steady_clock::now();
  for (size_t s = 0; s < val_.size(); ++s) {
    const auto it = v.map().find(plan_.enc_.nulls()[s]);
    const uint32_t code = it == v.map().end()
                              ? ValueDict::kNotFound
                              : plan_.enc_.dict().Find(it->second);
    if (code == ValueDict::kNotFound || code < plan_.enc_.dict().null_end) {
      return Status::Internal(
          "delta evaluation: the valuation does not bind every null to a "
          "domain value");
    }
    val_[s] = code;
  }
  ++step_;
  for (Node& n : nodes_) {
    n.delta.Clear();
    n.out.Clear();
    n.touched.clear();
    Init(n, /*emit=*/false);
  }
  initialized_ = true;
  if (stats_ != nullptr) ChargeRoot();
  return Status::OK();
}

Status DeltaEvaluator::ApplyDelta(const ValuationDelta& delta) {
  if (!initialized_) return Status::Internal("ApplyDelta before Initialize");
  if (!delta.has_delta) {
    return Status::Internal("ApplyDelta requires a single-null delta");
  }
  if (delta.null_index >= val_.size() ||
      delta.old_index >= plan_.enc_.domain_codes().size() ||
      delta.new_index >= plan_.enc_.domain_codes().size()) {
    return Status::Internal("ApplyDelta outside the plan's world space");
  }
  ++step_;
  const size_t slot = delta.null_index;
  const uint32_t old_code = plan_.enc_.domain_codes()[delta.old_index];
  val_[slot] = plan_.enc_.domain_codes()[delta.new_index];
  for (Node& n : nodes_) {
    n.delta.Clear();
    if (!HasSlot(n.op->nulls, slot)) continue;
    Step(n, slot, old_code);
  }
  ++deltas_applied_;
  if (stats_ != nullptr) ChargeRoot();
  return Status::OK();
}

}  // namespace incdb
