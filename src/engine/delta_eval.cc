// Differential evaluator implementation. The operator rules are documented
// in delta_eval.h; the representation here is one Node per plan operator,
// stored in postorder, each holding its counted output plus whatever state
// its delta rule probes (scan provenance, join key mirrors, division
// counters). σ-over-× (and π over either) is fused into one join node via
// SplitForEquiJoin, mirroring the full kernels' peephole, so products never
// pay per-pair work on a step.

#include "engine/delta_eval.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
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

/// Output tuple -> derivation count. Entries are erased when they reach
/// zero, so the key set IS the output set.
using Counts = std::unordered_map<Tuple, int64_t, TupleHash>;

/// Join-side mirror: HashColumns(key cols) -> tuples of one child's current
/// set (buckets hold distinct tuples; hash collisions resolved by
/// ColumnsEqual at probe time).
using Mirror = std::unordered_map<size_t, std::vector<Tuple>>;

/// Inserts (+) or removes (−) one tuple from a mirror bucket.
void MirrorApply(Mirror& m, size_t key, const Tuple& t, int sign) {
  std::vector<Tuple>& bucket = m[key];
  if (sign > 0) {
    bucket.push_back(t);
    return;
  }
  auto it = std::find(bucket.begin(), bucket.end(), t);
  if (it != bucket.end()) {
    std::swap(*it, bucket.back());
    bucket.pop_back();
  }
  if (bucket.empty()) m.erase(key);
}

}  // namespace

struct DeltaEvaluator::Node {
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

  Kind kind;
  size_t arity = 0;
  Node* left = nullptr;
  Node* right = nullptr;
  // Keeps the source operator's predicate / literal alive.
  RAExprPtr expr;
  // Nulls occurring in this subtree's base relations: a step whose null is
  // not here cannot change the output, so the node is skipped wholesale.
  std::set<NullId> nulls;
  Counts counts;
  // Set-level transitions of the last step: one entry per tuple, +1
  // inserted / -1 removed.
  std::vector<std::pair<Tuple, int>> delta;

  // kScan / kConst: the base relation and (scans only) the null ->
  // supporting-row index into base->tuples().
  const Relation* base = nullptr;
  std::unordered_map<NullId, std::vector<uint32_t>> provenance;

  // kSelect.
  const Predicate* filter = nullptr;

  // kJoin: equi-join key columns (parallel lists, left relative to the left
  // child, right relative to the right child), the residual filter on the
  // concatenated tuple, the fused projection, and the two key-indexed
  // mirrors of the children's current sets.
  std::vector<size_t> left_key_cols, right_key_cols;
  PredicatePtr residual;
  bool has_projection = false;
  std::vector<size_t> projection;
  Mirror left_by_key, right_by_key;

  // kProject: projection columns. kDivide: head columns (cols) and divisor
  // columns (cols2) of the left input.
  std::vector<size_t> cols, cols2;

  // kDivide: head -> #left rows with that head / #divisor rows it matches.
  // Membership: head_count > 0 and match_count == |divisor|.
  Counts head_count, match_count;

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
        return left_key_cols.empty() ? EvalOp::kProduct : EvalOp::kHashJoin;
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

  bool In(const Tuple& t) const { return counts.find(t) != counts.end(); }

  /// Joins one (l, r) pair into `out` with the given sign, applying the
  /// residual filter and the fused projection.
  void EmitJoin(const Tuple& l, const Tuple& r, int64_t sign,
                Counts& out) const {
    Tuple joined = l.Concat(r);
    if (residual != nullptr && !residual->EvalNaive(joined)) return;
    if (has_projection) {
      out[joined.Project(projection)] += sign;
    } else {
      out[std::move(joined)] += sign;
    }
  }

  /// Folds derivation-count adjustments into `counts` and appends the
  /// resulting set-level transitions (zero crossings) to `delta`.
  void ApplyAdjustments(Counts& adj) {
    for (auto& kv : adj) {
      if (kv.second == 0) continue;
      auto it = counts.find(kv.first);
      const int64_t before = it == counts.end() ? 0 : it->second;
      const int64_t after = before + kv.second;
      if (after == 0) {
        if (it != counts.end()) counts.erase(it);
      } else if (it == counts.end()) {
        counts.emplace(kv.first, after);
      } else {
        it->second = after;
      }
      if (before <= 0 && after > 0) {
        delta.emplace_back(kv.first, +1);
      } else if (before > 0 && after <= 0) {
        delta.emplace_back(kv.first, -1);
      }
    }
  }
};

DeltaEvaluator::DeltaEvaluator() = default;
DeltaEvaluator::~DeltaEvaluator() = default;

Status DeltaEvaluator::Build(const RAExprPtr& plan, const Database& db,
                             const EvalOptions& options) {
  db_ = &db;
  options_ = options;
  postorder_.clear();
  initialized_ = false;
  added_.clear();
  removed_.clear();
  deltas_applied_ = 0;
  node_fallbacks_ = 0;
  INCDB_ASSIGN_OR_RETURN(Node * root, Compile(plan));
  (void)root;
  return Status::OK();
}

Result<DeltaEvaluator::Node*> DeltaEvaluator::Compile(const RAExprPtr& e) {
  using K = RAExpr::Kind;
  INCDB_ASSIGN_OR_RETURN(const size_t arity, e->InferArity(db_->schema()));

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

  auto node = std::make_unique<Node>();
  Node* n = node.get();
  n->arity = arity;
  n->expr = e;

  if (prod != nullptr) {
    n->kind = Node::Kind::kJoin;
    INCDB_ASSIGN_OR_RETURN(n->left, Compile(prod->left()));
    INCDB_ASSIGN_OR_RETURN(n->right, Compile(prod->right()));
    n->nulls = n->left->nulls;
    n->nulls.insert(n->right->nulls.begin(), n->right->nulls.end());
    if (sel != nullptr) {
      JoinSplit split = SplitForEquiJoin(sel, n->left->arity);
      for (const JoinKey& k : split.keys) {
        n->left_key_cols.push_back(k.left_col);
        n->right_key_cols.push_back(k.right_col);
      }
      n->residual = std::move(split.residual);
    }
    if (proj != nullptr) {
      n->has_projection = true;
      n->projection = *proj;
    }
    postorder_.push_back(std::move(node));
    return n;
  }

  switch (e->kind()) {
    case K::kScan: {
      n->kind = Node::Kind::kScan;
      n->base = &db_->GetRelation(e->relation_name());
      n->nulls = n->base->Nulls();
      const std::vector<Tuple>& rows = n->base->tuples();
      for (uint32_t i = 0; i < rows.size(); ++i) {
        for (const Value& v : rows[i].values()) {
          if (!v.is_null()) continue;
          std::vector<uint32_t>& rows_of = n->provenance[v.null_id()];
          if (rows_of.empty() || rows_of.back() != i) rows_of.push_back(i);
        }
      }
      break;
    }
    case K::kConstRel: {
      // Valuations never apply to literals, so nulls stays empty and the
      // node never steps — matching the full evaluators, which use literals
      // as-is in every world.
      n->kind = Node::Kind::kConst;
      n->base = &e->literal();
      break;
    }
    case K::kSelect: {
      n->kind = Node::Kind::kSelect;
      n->filter = e->predicate().get();
      INCDB_ASSIGN_OR_RETURN(n->left, Compile(e->left()));
      n->nulls = n->left->nulls;
      break;
    }
    case K::kProject: {
      n->kind = Node::Kind::kProject;
      n->cols = e->columns();
      INCDB_ASSIGN_OR_RETURN(n->left, Compile(e->left()));
      n->nulls = n->left->nulls;
      break;
    }
    case K::kUnion:
    case K::kDiff:
    case K::kIntersect:
    case K::kDivide: {
      n->kind = e->kind() == K::kUnion        ? Node::Kind::kUnion
                : e->kind() == K::kDiff       ? Node::Kind::kDiff
                : e->kind() == K::kIntersect ? Node::Kind::kIntersect
                                             : Node::Kind::kDivide;
      INCDB_ASSIGN_OR_RETURN(n->left, Compile(e->left()));
      INCDB_ASSIGN_OR_RETURN(n->right, Compile(e->right()));
      n->nulls = n->left->nulls;
      n->nulls.insert(n->right->nulls.begin(), n->right->nulls.end());
      if (n->kind == Node::Kind::kDivide) {
        for (size_t c = 0; c < n->arity; ++c) n->cols.push_back(c);
        for (size_t c = n->arity; c < n->left->arity; ++c)
          n->cols2.push_back(c);
      }
      break;
    }
    case K::kDelta: {
      // Δ ranges over the whole world's active domain, so every null of the
      // database can move it.
      n->kind = Node::Kind::kDiagonal;
      n->nulls = db_->Nulls();
      break;
    }
    case K::kProduct:
      return Status::Internal("delta evaluation: unreachable plan kind");
  }
  postorder_.push_back(std::move(node));
  return n;
}

Status DeltaEvaluator::Init(Node& n) {
  OpScope scope(options_.stats, n.op());
  n.counts.clear();
  switch (n.kind) {
    case Node::Kind::kScan: {
      scope.CountIn(n.base->tuples().size());
      for (const Tuple& t : n.base->tuples()) n.counts[cur_.Apply(t)] += 1;
      break;
    }
    case Node::Kind::kConst: {
      scope.CountIn(n.base->tuples().size());
      for (const Tuple& t : n.base->tuples()) n.counts[t] += 1;
      break;
    }
    case Node::Kind::kSelect: {
      scope.CountIn(n.left->counts.size());
      for (const auto& kv : n.left->counts) {
        if (n.filter->EvalNaive(kv.first)) n.counts.emplace(kv.first, 1);
      }
      break;
    }
    case Node::Kind::kProject: {
      scope.CountIn(n.left->counts.size());
      for (const auto& kv : n.left->counts) {
        n.counts[kv.first.Project(n.cols)] += 1;
      }
      break;
    }
    case Node::Kind::kJoin: {
      scope.CountIn(n.left->counts.size() + n.right->counts.size());
      n.left_by_key.clear();
      n.right_by_key.clear();
      for (const auto& kv : n.left->counts) {
        n.left_by_key[HashColumns(kv.first, n.left_key_cols)].push_back(
            kv.first);
      }
      for (const auto& kv : n.right->counts) {
        n.right_by_key[HashColumns(kv.first, n.right_key_cols)].push_back(
            kv.first);
      }
      for (const auto& kv : n.left->counts) {
        scope.CountProbes(1);
        auto it = n.right_by_key.find(HashColumns(kv.first, n.left_key_cols));
        if (it == n.right_by_key.end()) continue;
        for (const Tuple& r : it->second) {
          if (!ColumnsEqual(kv.first, n.left_key_cols, r, n.right_key_cols)) {
            continue;
          }
          n.EmitJoin(kv.first, r, +1, n.counts);
        }
      }
      // EmitJoin adds signed counts; drop residual-rejected zero entries.
      for (auto it = n.counts.begin(); it != n.counts.end();) {
        it = it->second == 0 ? n.counts.erase(it) : std::next(it);
      }
      break;
    }
    case Node::Kind::kUnion: {
      scope.CountIn(n.left->counts.size() + n.right->counts.size());
      for (const auto& kv : n.left->counts) n.counts[kv.first] += 1;
      for (const auto& kv : n.right->counts) n.counts[kv.first] += 1;
      break;
    }
    case Node::Kind::kDiff: {
      scope.CountIn(n.left->counts.size() + n.right->counts.size());
      for (const auto& kv : n.left->counts) {
        scope.CountProbes(1);
        if (!n.right->In(kv.first)) n.counts.emplace(kv.first, 1);
      }
      break;
    }
    case Node::Kind::kIntersect: {
      scope.CountIn(n.left->counts.size() + n.right->counts.size());
      for (const auto& kv : n.left->counts) {
        scope.CountProbes(1);
        if (n.right->In(kv.first)) n.counts.emplace(kv.first, 1);
      }
      break;
    }
    case Node::Kind::kDivide: {
      scope.CountIn(n.left->counts.size() + n.right->counts.size());
      n.head_count.clear();
      n.match_count.clear();
      const size_t s_size = n.right->counts.size();
      for (const auto& kv : n.left->counts) {
        scope.CountProbes(1);
        Tuple head = kv.first.Project(n.cols);
        if (n.right->In(kv.first.Project(n.cols2))) n.match_count[head] += 1;
        n.head_count[std::move(head)] += 1;
      }
      for (const auto& kv : n.head_count) {
        auto it = n.match_count.find(kv.first);
        const int64_t m = it == n.match_count.end() ? 0 : it->second;
        if (static_cast<uint64_t>(m) == s_size) n.counts.emplace(kv.first, 1);
      }
      break;
    }
    case Node::Kind::kDiagonal: {
      // (c, c) is derived once if c is a constant of D, and once more per
      // null currently bound to c.
      for (const Value& c : db_->Constants()) n.counts[Tuple{c, c}] += 1;
      for (NullId id : n.nulls) {
        const Value& c = cur_.Lookup(id);
        n.counts[Tuple{c, c}] += 1;
      }
      break;
    }
  }
  scope.CountOut(n.counts.size());
  return Status::OK();
}

Status DeltaEvaluator::Initialize(const Valuation& v) {
  if (postorder_.empty()) return Status::Internal("Initialize before Build");
  cur_ = v;
  added_.clear();
  removed_.clear();
  for (auto& n : postorder_) {
    n->delta.clear();
    INCDB_RETURN_IF_ERROR(Init(*n));
  }
  initialized_ = true;
  return Status::OK();
}

Status DeltaEvaluator::Step(Node& n, const ValuationDelta& delta) {
  OpScope scope(options_.stats, n.op());
  if (n.left != nullptr) scope.CountIn(n.left->delta.size());
  if (n.right != nullptr) scope.CountIn(n.right->delta.size());
  Counts adj;
  switch (n.kind) {
    case Node::Kind::kConst:
      return Status::OK();  // unreachable: nulls is empty
    case Node::Kind::kScan: {
      auto it = n.provenance.find(delta.null_id);
      if (it == n.provenance.end()) return Status::OK();
      scope.CountIn(it->second.size());
      const std::vector<Tuple>& rows = n.base->tuples();
      for (uint32_t idx : it->second) {
        const Tuple& bt = rows[idx];
        // Retract the row's previous instance: the flipped null maps to its
        // old value, every other value through the (already updated)
        // current valuation, which agrees with the previous one elsewhere.
        std::vector<Value> old_vals;
        old_vals.reserve(bt.arity());
        for (const Value& v : bt.values()) {
          if (v.is_null() && v.null_id() == delta.null_id) {
            old_vals.push_back(delta.old_value);
          } else {
            old_vals.push_back(cur_.Apply(v));
          }
        }
        adj[Tuple(std::move(old_vals))] -= 1;
        adj[cur_.Apply(bt)] += 1;
      }
      break;
    }
    case Node::Kind::kSelect: {
      for (const auto& kv : n.left->delta) {
        if (n.filter->EvalNaive(kv.first)) adj[kv.first] += kv.second;
      }
      break;
    }
    case Node::Kind::kProject: {
      for (const auto& kv : n.left->delta) {
        adj[kv.first.Project(n.cols)] += kv.second;
      }
      break;
    }
    case Node::Kind::kJoin: {
      if (n.left->delta.size() + n.right->delta.size() >
          n.left->counts.size() + n.right->counts.size()) {
        return Recompute(n);
      }
      // Δ(L ⋈ R) = ΔL ⋈ R_old  +  L_new ⋈ ΔR: probe the right mirror
      // before folding ΔR into it, and fold ΔL into the left mirror before
      // probing it.
      for (const auto& kv : n.left->delta) {
        scope.CountProbes(1);
        auto it = n.right_by_key.find(HashColumns(kv.first, n.left_key_cols));
        if (it == n.right_by_key.end()) continue;
        for (const Tuple& r : it->second) {
          if (!ColumnsEqual(kv.first, n.left_key_cols, r, n.right_key_cols)) {
            continue;
          }
          n.EmitJoin(kv.first, r, kv.second, adj);
        }
      }
      for (const auto& kv : n.left->delta) {
        MirrorApply(n.left_by_key, HashColumns(kv.first, n.left_key_cols),
                    kv.first, kv.second);
      }
      for (const auto& kv : n.right->delta) {
        scope.CountProbes(1);
        auto it = n.left_by_key.find(HashColumns(kv.first, n.right_key_cols));
        if (it != n.left_by_key.end()) {
          for (const Tuple& l : it->second) {
            if (!ColumnsEqual(l, n.left_key_cols, kv.first,
                              n.right_key_cols)) {
              continue;
            }
            n.EmitJoin(l, kv.first, kv.second, adj);
          }
        }
        MirrorApply(n.right_by_key, HashColumns(kv.first, n.right_key_cols),
                    kv.first, kv.second);
      }
      break;
    }
    case Node::Kind::kUnion: {
      for (const auto& kv : n.left->delta) adj[kv.first] += kv.second;
      for (const auto& kv : n.right->delta) adj[kv.first] += kv.second;
      break;
    }
    case Node::Kind::kDiff:
    case Node::Kind::kIntersect: {
      // A child transition's sign encodes the tuple's old membership there
      // (+1 ⇒ was absent, −1 ⇒ was present); membership of unflipped
      // tuples is the same before and after.
      std::unordered_map<Tuple, int, TupleHash> lflip, rflip;
      for (const auto& kv : n.left->delta) lflip[kv.first] = kv.second;
      for (const auto& kv : n.right->delta) rflip[kv.first] = kv.second;
      const bool is_diff = n.kind == Node::Kind::kDiff;
      auto visit = [&](const Tuple& t) {
        auto lf = lflip.find(t);
        auto rf = rflip.find(t);
        const bool l_new = n.left->In(t);
        const bool r_new = n.right->In(t);
        const bool l_old = lf == lflip.end() ? l_new : lf->second < 0;
        const bool r_old = rf == rflip.end() ? r_new : rf->second < 0;
        const bool was = l_old && (is_diff ? !r_old : r_old);
        const bool now = l_new && (is_diff ? !r_new : r_new);
        if (was != now) adj[t] += now ? 1 : -1;
      };
      for (const auto& kv : lflip) {
        scope.CountProbes(1);
        visit(kv.first);
      }
      for (const auto& kv : rflip) {
        if (lflip.find(kv.first) != lflip.end()) continue;
        scope.CountProbes(1);
        visit(kv.first);
      }
      break;
    }
    case Node::Kind::kDivide: {
      // A changed divisor moves the match target for every head at once —
      // recompute rather than re-probing all heads.
      if (!n.right->delta.empty()) return Recompute(n);
      if (n.left->delta.size() > n.left->counts.size()) return Recompute(n);
      const size_t s_size = n.right->counts.size();
      Counts head_adj, match_adj;
      for (const auto& kv : n.left->delta) {
        scope.CountProbes(1);
        Tuple head = kv.first.Project(n.cols);
        if (n.right->In(kv.first.Project(n.cols2))) {
          match_adj[head] += kv.second;
        }
        head_adj[std::move(head)] += kv.second;
      }
      for (const auto& kv : head_adj) {
        const Tuple& head = kv.first;
        auto hit = n.head_count.find(head);
        auto mit = n.match_count.find(head);
        const int64_t h_old = hit == n.head_count.end() ? 0 : hit->second;
        const int64_t m_old = mit == n.match_count.end() ? 0 : mit->second;
        const int64_t h_new = h_old + kv.second;
        auto ma = match_adj.find(head);
        const int64_t m_new =
            m_old + (ma == match_adj.end() ? 0 : ma->second);
        if (h_new == 0) {
          if (hit != n.head_count.end()) n.head_count.erase(hit);
        } else if (hit == n.head_count.end()) {
          n.head_count.emplace(head, h_new);
        } else {
          hit->second = h_new;
        }
        if (m_new == 0) {
          if (mit != n.match_count.end()) n.match_count.erase(mit);
        } else if (mit == n.match_count.end()) {
          n.match_count.emplace(head, m_new);
        } else {
          mit->second = m_new;
        }
        const bool was = h_old > 0 && static_cast<uint64_t>(m_old) == s_size;
        const bool now = h_new > 0 && static_cast<uint64_t>(m_new) == s_size;
        if (was != now) adj[head] += now ? 1 : -1;
      }
      break;
    }
    case Node::Kind::kDiagonal: {
      adj[Tuple{delta.old_value, delta.old_value}] -= 1;
      adj[Tuple{delta.new_value, delta.new_value}] += 1;
      break;
    }
  }
  n.ApplyAdjustments(adj);
  scope.CountOut(n.delta.size());
  return Status::OK();
}

Status DeltaEvaluator::Recompute(Node& n) {
  ++node_fallbacks_;
  Counts old = std::move(n.counts);
  INCDB_RETURN_IF_ERROR(Init(n));
  for (const auto& kv : n.counts) {
    if (old.find(kv.first) == old.end()) n.delta.emplace_back(kv.first, +1);
  }
  for (const auto& kv : old) {
    if (n.counts.find(kv.first) == n.counts.end()) {
      n.delta.emplace_back(kv.first, -1);
    }
  }
  return Status::OK();
}

Status DeltaEvaluator::ApplyDelta(const ValuationDelta& delta) {
  if (!initialized_) return Status::Internal("ApplyDelta before Initialize");
  if (!delta.has_delta) {
    return Status::Internal("ApplyDelta requires a single-null delta");
  }
  added_.clear();
  removed_.clear();
  cur_.Bind(delta.null_id, delta.new_value);
  for (auto& n : postorder_) {
    n->delta.clear();
    if (n->nulls.find(delta.null_id) == n->nulls.end()) continue;
    INCDB_RETURN_IF_ERROR(Step(*n, delta));
  }
  for (const auto& kv : postorder_.back()->delta) {
    (kv.second > 0 ? added_ : removed_).push_back(kv.first);
  }
  ++deltas_applied_;
  return Status::OK();
}

Relation DeltaEvaluator::Output() const {
  if (postorder_.empty()) return Relation(0);
  const Node* root = postorder_.back().get();
  std::vector<Tuple> out;
  out.reserve(root->counts.size());
  for (const auto& kv : root->counts) out.push_back(kv.first);
  return Relation(root->arity, std::move(out));
}

}  // namespace incdb
