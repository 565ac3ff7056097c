#include "algebra/optimize.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "algebra/classify.h"
#include "util/status.h"

namespace incdb {
namespace {

// ---------------------------------------------------------------------------
// Predicate utilities.

void FlattenAnd(const PredicatePtr& p, std::vector<PredicatePtr>* out) {
  if (p->kind() == Predicate::Kind::kAnd) {
    FlattenAnd(p->left(), out);
    FlattenAnd(p->right(), out);
    return;
  }
  out->push_back(p);
}

PredicatePtr AndAll(const std::vector<PredicatePtr>& conjuncts) {
  if (conjuncts.empty()) return Predicate::True();
  PredicatePtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Predicate::And(acc, conjuncts[i]);
  }
  return acc;
}

void CollectColumns(const PredicatePtr& p, std::set<size_t>* out) {
  switch (p->kind()) {
    case Predicate::Kind::kTrue:
    case Predicate::Kind::kFalse:
      return;
    case Predicate::Kind::kCmp:
      if (p->lhs().kind == Term::Kind::kColumn) out->insert(p->lhs().column);
      if (p->rhs().kind == Term::Kind::kColumn) out->insert(p->rhs().column);
      return;
    case Predicate::Kind::kIsNull:
      if (p->lhs().kind == Term::Kind::kColumn) out->insert(p->lhs().column);
      return;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      CollectColumns(p->left(), out);
      CollectColumns(p->right(), out);
      return;
    case Predicate::Kind::kNot:
      CollectColumns(p->left(), out);
      return;
  }
}

Term RemapTerm(const Term& t, const std::vector<size_t>& col_map) {
  if (t.kind != Term::Kind::kColumn) return t;
  INCDB_CHECK_MSG(t.column < col_map.size(), "remap column out of range");
  return Term::Column(col_map[t.column]);
}

// Rebuilds `p` with every column reference `c` replaced by `col_map[c]`.
PredicatePtr RemapColumns(const PredicatePtr& p,
                          const std::vector<size_t>& col_map) {
  switch (p->kind()) {
    case Predicate::Kind::kTrue:
    case Predicate::Kind::kFalse:
      return p;
    case Predicate::Kind::kCmp:
      return Predicate::Cmp(p->op(), RemapTerm(p->lhs(), col_map),
                            RemapTerm(p->rhs(), col_map));
    case Predicate::Kind::kIsNull:
      return Predicate::IsNull(RemapTerm(p->lhs(), col_map));
    case Predicate::Kind::kAnd:
      return Predicate::And(RemapColumns(p->left(), col_map),
                            RemapColumns(p->right(), col_map));
    case Predicate::Kind::kOr:
      return Predicate::Or(RemapColumns(p->left(), col_map),
                           RemapColumns(p->right(), col_map));
    case Predicate::Kind::kNot:
      return Predicate::Not(RemapColumns(p->left(), col_map));
  }
  return p;
}

// ---------------------------------------------------------------------------
// The rewriter. One instance per Optimize() pass; methods recurse top-down
// so a pushed selection keeps pushing through whatever it lands on.

struct Rewriter {
  const Database& db;
  OptimizerReport* report;

  size_t Arity(const RAExprPtr& e) const {
    auto a = e->InferArity(db.schema());
    INCDB_CHECK_MSG(a.ok(), "optimizer saw ill-typed subexpression");
    return *a;
  }

  RAExprPtr Opt(const RAExprPtr& e) {
    switch (e->kind()) {
      case RAExpr::Kind::kScan:
      case RAExpr::Kind::kConstRel:
      case RAExpr::Kind::kDelta:
        return e;
      case RAExpr::Kind::kSelect:
        return OptSelect(e->predicate(), e->left());
      case RAExpr::Kind::kProject:
        return OptProject(e->columns(), e->left());
      // Structural recursion for the binary operators.
      case RAExpr::Kind::kProduct:
      case RAExpr::Kind::kUnion:
      case RAExpr::Kind::kDiff:
      case RAExpr::Kind::kIntersect:
      case RAExpr::Kind::kDivide: {
        RAExprPtr l = Opt(e->left());
        RAExprPtr r = Opt(e->right());
        if (l == e->left() && r == e->right()) return e;
        switch (e->kind()) {
          case RAExpr::Kind::kProduct:
            return RAExpr::Product(l, r);
          case RAExpr::Kind::kUnion:
            return RAExpr::Union(l, r);
          case RAExpr::Kind::kDiff:
            return RAExpr::Diff(l, r);
          case RAExpr::Kind::kIntersect:
            return RAExpr::Intersect(l, r);
          default:
            return RAExpr::Divide(l, r);
        }
      }
    }
    return e;
  }

  // σ_pred over `child` (child not yet optimized).
  RAExprPtr OptSelect(const PredicatePtr& pred, const RAExprPtr& child) {
    switch (child->kind()) {
      case RAExpr::Kind::kSelect:
        // σ_p(σ_q(x)) = σ_{q ∧ p}(x).
        ++report->selections_fused;
        return OptSelect(Predicate::And(child->predicate(), pred),
                         child->left());
      case RAExpr::Kind::kUnion:
        // σ distributes over both sides of ∪.
        ++report->selections_pushed;
        return RAExpr::Union(OptSelect(pred, child->left()),
                             OptSelect(pred, child->right()));
      case RAExpr::Kind::kIntersect:
        // σ_p(A ∩ B) = σ_p(A) ∩ B.
        ++report->selections_pushed;
        return RAExpr::Intersect(OptSelect(pred, child->left()),
                                 Opt(child->right()));
      case RAExpr::Kind::kDiff:
        // σ_p(A − B) = σ_p(A) − B.
        ++report->selections_pushed;
        return RAExpr::Diff(OptSelect(pred, child->left()),
                            Opt(child->right()));
      case RAExpr::Kind::kProduct:
        return ProductSelect(pred, child);
      default: {
        return RAExpr::Select(pred, Opt(child));
      }
    }
  }

  // σ over ×: one-sided conjuncts move into the factors; cross-boundary
  // conjuncts stay directly above the product (the hash-join shape); then
  // the σ/× spine is re-ordered if profitable.
  RAExprPtr ProductSelect(const PredicatePtr& pred, const RAExprPtr& product) {
    const size_t la = Arity(product->left());
    std::vector<PredicatePtr> conjuncts;
    FlattenAnd(pred, &conjuncts);
    std::vector<PredicatePtr> left_parts, right_parts, cross_parts;
    for (const PredicatePtr& c : conjuncts) {
      std::set<size_t> cols;
      CollectColumns(c, &cols);
      const bool any_left = !cols.empty() && *cols.begin() < la;
      const bool any_right = !cols.empty() && *cols.rbegin() >= la;
      if (!any_right) {
        left_parts.push_back(c);  // column-free conjuncts go left
      } else if (!any_left) {
        right_parts.push_back(c->ShiftColumns(-static_cast<int>(la)));
      } else {
        cross_parts.push_back(c);
      }
    }
    if (!left_parts.empty() && left_parts.size() < conjuncts.size()) {
      ++report->selections_pushed;
    }
    if (!right_parts.empty()) ++report->selections_pushed;

    RAExprPtr l = left_parts.empty() ? Opt(product->left())
                                     : OptSelect(AndAll(left_parts),
                                                 product->left());
    RAExprPtr r = right_parts.empty() ? Opt(product->right())
                                      : OptSelect(AndAll(right_parts),
                                                  product->right());
    RAExprPtr base = RAExpr::Product(l, r);
    RAExprPtr node = cross_parts.empty()
                         ? base
                         : RAExpr::Select(AndAll(cross_parts), base);
    RAExprPtr reordered = TryReorder(node);
    return reordered != nullptr ? reordered : node;
  }

  // π_cols over `child` (child not yet optimized).
  RAExprPtr OptProject(const std::vector<size_t>& cols,
                       const RAExprPtr& child) {
    const size_t child_arity = Arity(child);
    // Identity projection disappears.
    if (cols.size() == child_arity) {
      bool identity = true;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] != i) {
          identity = false;
          break;
        }
      }
      if (identity) {
        ++report->projections_pushed;
        return Opt(child);
      }
    }
    switch (child->kind()) {
      case RAExpr::Kind::kProject: {
        // π_a(π_b(x)) = π_{b∘a}(x).
        std::vector<size_t> composed(cols.size());
        for (size_t i = 0; i < cols.size(); ++i) {
          composed[i] = child->columns()[cols[i]];
        }
        ++report->projections_pushed;
        return OptProject(composed, child->left());
      }
      case RAExpr::Kind::kUnion:
        ++report->projections_pushed;
        return RAExpr::Union(OptProject(cols, child->left()),
                             OptProject(cols, child->right()));
      case RAExpr::Kind::kProduct: {
        // Block-wise split: a left-columns prefix followed by a
        // right-columns suffix (both non-empty) moves into the factors.
        const size_t la = Arity(child->left());
        size_t split = 0;
        while (split < cols.size() && cols[split] < la) ++split;
        bool rest_right = split > 0 && split < cols.size();
        for (size_t i = split; rest_right && i < cols.size(); ++i) {
          if (cols[i] < la) rest_right = false;
        }
        if (rest_right) {
          std::vector<size_t> lc(cols.begin(), cols.begin() + split);
          std::vector<size_t> rc;
          for (size_t i = split; i < cols.size(); ++i) {
            rc.push_back(cols[i] - la);
          }
          ++report->projections_pushed;
          return RAExpr::Product(OptProject(lc, child->left()),
                                 OptProject(rc, child->right()));
        }
        break;
      }
      default:
        break;
    }
    // π over σ is left intact: the evaluators fuse π(σ(l × r)) into the
    // hash join's emit, so splitting that shape would lose the fast path.
    RAExprPtr c = Opt(child);
    return RAExpr::Project(cols, c);
  }

  // ------------------------------------------------------------------
  // Greedy join ordering over a σ/× spine.

  struct Leaf {
    RAExprPtr expr;
    size_t offset;  // first column in the original layout
    size_t arity;
  };

  // A conjunct lifted to the spine's global column space.
  struct SpineConjunct {
    PredicatePtr pred;            // columns are original-global
    std::set<size_t> leaves;      // leaf ids it references
    bool attached = false;
  };

  void FlattenSpine(const RAExprPtr& e, size_t offset,
                    std::vector<Leaf>* leaves,
                    std::vector<PredicatePtr>* preds) {
    if (e->kind() == RAExpr::Kind::kProduct) {
      const size_t la = Arity(e->left());
      FlattenSpine(e->left(), offset, leaves, preds);
      FlattenSpine(e->right(), offset + la, leaves, preds);
      return;
    }
    if (e->kind() == RAExpr::Kind::kSelect) {
      std::vector<PredicatePtr> conjuncts;
      FlattenAnd(e->predicate(), &conjuncts);
      for (const PredicatePtr& c : conjuncts) {
        preds->push_back(offset == 0
                             ? c
                             : c->ShiftColumns(static_cast<int>(offset)));
      }
      FlattenSpine(e->left(), offset, leaves, preds);
      return;
    }
    leaves->push_back(Leaf{e, offset, Arity(e)});
  }

  // Returns the re-ordered plan, or nullptr when the greedy order is the
  // original one (nothing to gain).
  RAExprPtr TryReorder(const RAExprPtr& node) {
    std::vector<Leaf> leaves;
    std::vector<PredicatePtr> raw_preds;
    FlattenSpine(node, 0, &leaves, &raw_preds);
    if (leaves.size() < 3) return nullptr;

    const size_t k = leaves.size();
    const size_t total_arity = leaves.back().offset + leaves.back().arity;
    auto leaf_of = [&](size_t col) {
      for (size_t i = 0; i < k; ++i) {
        if (col >= leaves[i].offset && col < leaves[i].offset + leaves[i].arity)
          return i;
      }
      INCDB_CHECK_MSG(false, "spine column outside every leaf");
      return k;
    };
    std::vector<SpineConjunct> conjuncts;
    for (const PredicatePtr& p : raw_preds) {
      SpineConjunct sc;
      sc.pred = p;
      std::set<size_t> cols;
      CollectColumns(p, &cols);
      for (size_t c : cols) sc.leaves.insert(leaf_of(c));
      conjuncts.push_back(std::move(sc));
    }

    // Greedy order: cheapest leaf first, then the cheapest leaf connected to
    // the placed set by an equality conjunct; ties break on leaf id, which
    // keeps the result deterministic.
    std::vector<double> est(k);
    for (size_t i = 0; i < k; ++i) {
      est[i] = EstimateCardinality(leaves[i].expr, db);
    }
    std::vector<bool> placed(k, false);
    std::vector<size_t> order;
    auto pick = [&](bool require_connected) {
      size_t best = k;
      for (size_t i = 0; i < k; ++i) {
        if (placed[i]) continue;
        if (require_connected) {
          bool connected = false;
          for (const SpineConjunct& sc : conjuncts) {
            if (sc.leaves.size() < 2 || sc.leaves.count(i) == 0) continue;
            bool rest_placed = true;
            for (size_t l : sc.leaves) {
              if (l != i && !placed[l]) {
                rest_placed = false;
                break;
              }
            }
            if (rest_placed) {
              connected = true;
              break;
            }
          }
          if (!connected) continue;
        }
        if (best == k || est[i] < est[best]) best = i;
      }
      return best;
    };
    order.push_back(pick(/*require_connected=*/false));
    placed[order[0]] = true;
    while (order.size() < k) {
      size_t next = pick(/*require_connected=*/true);
      if (next == k) next = pick(/*require_connected=*/false);
      order.push_back(next);
      placed[next] = true;
    }

    bool identity = true;
    for (size_t i = 0; i < k; ++i) {
      if (order[i] != i) {
        identity = false;
        break;
      }
    }
    if (identity) return nullptr;
    ++report->joins_reordered;

    // New layout: order[j]'s columns are contiguous at position j.
    std::vector<size_t> new_col(total_arity);
    size_t cursor = 0;
    for (size_t j = 0; j < k; ++j) {
      const Leaf& lf = leaves[order[j]];
      for (size_t i = 0; i < lf.arity; ++i) new_col[lf.offset + i] = cursor++;
    }

    // Left-deep rebuild; each conjunct attaches at the lowest level that
    // covers all its leaves (so cross-boundary equalities sit directly above
    // a product, ready for hash-join fusion).
    std::fill(placed.begin(), placed.end(), false);
    RAExprPtr cur;
    for (size_t j = 0; j < k; ++j) {
      const Leaf& lf = leaves[order[j]];
      cur = j == 0 ? lf.expr : RAExpr::Product(cur, lf.expr);
      placed[order[j]] = true;
      std::vector<PredicatePtr> attach;
      for (SpineConjunct& sc : conjuncts) {
        if (sc.attached) continue;
        bool covered = true;
        for (size_t l : sc.leaves) {
          if (!placed[l]) {
            covered = false;
            break;
          }
        }
        if (covered) {
          sc.attached = true;
          attach.push_back(RemapColumns(sc.pred, new_col));
        }
      }
      if (!attach.empty()) cur = RAExpr::Select(AndAll(attach), cur);
    }
    for (const SpineConjunct& sc : conjuncts) {
      INCDB_CHECK_MSG(sc.attached, "join reorder dropped a conjunct");
    }

    // Restore the original column order: output column i lives at new
    // position new_col[i].
    return RAExpr::Project(new_col, cur);
  }
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

uint64_t RAFingerprint(const RAExprPtr& e) {
  uint64_t h = Mix(0x1cdb, static_cast<uint64_t>(e->kind()));
  switch (e->kind()) {
    case RAExpr::Kind::kScan:
      return Mix(h, HashString(e->relation_name()));
    case RAExpr::Kind::kConstRel: {
      h = Mix(h, e->literal().arity());
      for (const Tuple& t : e->literal().tuples()) h = Mix(h, t.Hash());
      return h;
    }
    case RAExpr::Kind::kSelect:
      h = Mix(h, HashString(e->predicate()->ToString()));
      return Mix(h, RAFingerprint(e->left()));
    case RAExpr::Kind::kProject:
      for (size_t c : e->columns()) h = Mix(h, c);
      return Mix(h, RAFingerprint(e->left()));
    case RAExpr::Kind::kProduct:
    case RAExpr::Kind::kUnion:
    case RAExpr::Kind::kDiff:
    case RAExpr::Kind::kIntersect:
    case RAExpr::Kind::kDivide:
      h = Mix(h, RAFingerprint(e->left()));
      return Mix(h, RAFingerprint(e->right()));
    case RAExpr::Kind::kDelta:
      return h;
  }
  return h;
}

double EstimateCardinality(const RAExprPtr& e, const Database& db) {
  switch (e->kind()) {
    case RAExpr::Kind::kScan:
      return static_cast<double>(db.GetRelation(e->relation_name()).size());
    case RAExpr::Kind::kConstRel:
      return static_cast<double>(e->literal().size());
    case RAExpr::Kind::kDelta:
      return static_cast<double>(db.ActiveDomain().size());
    case RAExpr::Kind::kSelect:
      return 0.25 * EstimateCardinality(e->left(), db);
    case RAExpr::Kind::kProject:
      return EstimateCardinality(e->left(), db);
    case RAExpr::Kind::kProduct:
      return EstimateCardinality(e->left(), db) *
             EstimateCardinality(e->right(), db);
    case RAExpr::Kind::kUnion:
      return EstimateCardinality(e->left(), db) +
             EstimateCardinality(e->right(), db);
    case RAExpr::Kind::kDiff:
      return EstimateCardinality(e->left(), db);
    case RAExpr::Kind::kIntersect:
      return std::min(EstimateCardinality(e->left(), db),
                      EstimateCardinality(e->right(), db));
    case RAExpr::Kind::kDivide: {
      const double l = EstimateCardinality(e->left(), db);
      const double r = EstimateCardinality(e->right(), db);
      return std::max(1.0, l / std::max(1.0, r));
    }
  }
  return 1.0;
}

RAExprPtr Optimize(const RAExprPtr& e, const Database& db,
                   OptimizerReport* report) {
  if (e == nullptr) return e;
  if (!e->InferArity(db.schema()).ok()) return e;  // evaluator reports it
  OptimizerReport local;
  Rewriter rw{db, report != nullptr ? report : &local};
  RAExprPtr out = e;
  uint64_t fp = RAFingerprint(out);
  // Rewrites cascade (a pushed σ exposes a π split, a reorder exposes a π∘π
  // composition), so iterate to a fixpoint; four passes always suffice in
  // practice and the bound keeps pathological plans cheap.
  for (int pass = 0; pass < 4; ++pass) {
    RAExprPtr next = rw.Opt(out);
    const uint64_t next_fp = RAFingerprint(next);
    out = next;
    if (next_fp == fp) break;
    fp = next_fp;
  }
  INCDB_CHECK_MSG(Classify(out) == Classify(e),
                  "optimizer must preserve the query fragment");
  return out;
}

}  // namespace incdb
