#include "ctables/cond_arena.h"

#include <algorithm>
#include <limits>
#include <set>

namespace incdb {
namespace {

constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kUnknown = std::numeric_limits<uint64_t>::max();

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

uint64_t AtomHash(CondArena::Kind kind, uint32_t a, uint32_t b) {
  return Mix(Mix(static_cast<uint64_t>(kind) + 1, a), b);
}

uint64_t SlotBit(uint32_t term) {
  return (term & CondArena::kNullSlot) ? uint64_t{1} << (term & 63) : 0;
}

}  // namespace

CondArena::CondArena() {
  nodes_.push_back(Node{Kind::kTrue});
  nodes_.push_back(Node{Kind::kFalse});
  table_.assign(1024, kEmpty);
}

void CondArena::Grow() {
  std::vector<uint32_t> table(table_.size() * 2, kEmpty);
  const size_t mask = table.size() - 1;
  for (uint32_t id = 2; id < nodes_.size(); ++id) {
    size_t pos = nodes_[id].hash & mask;
    while (table[pos] != kEmpty) pos = (pos + 1) & mask;
    table[pos] = id;
  }
  table_ = std::move(table);
}

uint32_t CondArena::Insert(Node n, size_t pos) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(n);
  table_[pos] = id;
  if (nodes_.size() * 2 > table_.size()) Grow();
  return id;
}

uint32_t CondArena::FindAtom(Kind kind, uint32_t a, uint32_t b) const {
  const uint64_t h = AtomHash(kind, a, b);
  const size_t mask = table_.size() - 1;
  for (size_t pos = h & mask;; pos = (pos + 1) & mask) {
    const uint32_t id = table_[pos];
    if (id == kEmpty) return kNone;
    const Node& n = nodes_[id];
    if (n.hash == h && n.kind == kind && n.a == a && n.b == b) return id;
  }
}

uint32_t CondArena::InternAtom(Kind kind, uint32_t a, uint32_t b) {
  const uint64_t h = AtomHash(kind, a, b);
  const size_t mask = table_.size() - 1;
  size_t pos = h & mask;
  for (;; pos = (pos + 1) & mask) {
    const uint32_t id = table_[pos];
    if (id == kEmpty) break;
    const Node& n = nodes_[id];
    if (n.hash == h && n.kind == kind && n.a == a && n.b == b) return id;
  }
  return Insert(Node{kind, a, b, SlotBit(a) | SlotBit(b), h}, pos);
}

uint32_t CondArena::InternSpan(Kind kind, const std::vector<uint32_t>& ops) {
  uint64_t h = static_cast<uint64_t>(kind) + 1;
  uint64_t bits = 0;
  for (uint32_t op : ops) {
    h = Mix(h, op);
    bits |= nodes_[op].slot_bits;
  }
  const size_t mask = table_.size() - 1;
  size_t pos = h & mask;
  for (;; pos = (pos + 1) & mask) {
    const uint32_t id = table_[pos];
    if (id == kEmpty) break;
    const Node& n = nodes_[id];
    if (n.hash == h && n.kind == kind && n.b == ops.size() &&
        std::equal(ops.begin(), ops.end(), operands_.begin() + n.a)) {
      return id;
    }
  }
  const uint32_t offset = static_cast<uint32_t>(operands_.size());
  operands_.insert(operands_.end(), ops.begin(), ops.end());
  return Insert(
      Node{kind, offset, static_cast<uint32_t>(ops.size()), bits, h}, pos);
}

uint32_t CondArena::Eq(uint32_t a, uint32_t b) {
  if (a == b) return kTrue;
  // Two codes name two distinct values.
  if (!(a & kNullSlot) && !(b & kNullSlot)) return kFalse;
  if (b < a) std::swap(a, b);
  return InternAtom(Kind::kEq, a, b);
}

uint32_t CondArena::Not(uint32_t c) {
  if (c == kTrue) return kFalse;
  if (c == kFalse) return kTrue;
  if (c < negation_.size() && negation_[c] != kNone) return negation_[c];
  uint32_t out;
  const Node n = nodes_[c];
  switch (n.kind) {
    case Kind::kEq:
      out = InternAtom(Kind::kNe, n.a, n.b);
      break;
    case Kind::kNe:
      out = InternAtom(Kind::kEq, n.a, n.b);
      break;
    default: {
      std::vector<uint32_t> ops;
      ops.reserve(n.b);
      for (uint32_t i = 0; i < n.b; ++i) ops.push_back(Not(operands_[n.a + i]));
      out = n.kind == Kind::kAnd ? OrOf(&ops) : AndOf(&ops);
      break;
    }
  }
  if (negation_.size() <= c) negation_.resize(nodes_.size(), kNone);
  negation_[c] = out;
  return out;
}

uint32_t CondArena::And(uint32_t a, uint32_t b) {
  if (a == kFalse || b == kFalse) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  pair_.assign({a, b});
  return AndOf(&pair_);
}

uint32_t CondArena::Or(uint32_t a, uint32_t b) {
  if (a == kTrue || b == kTrue) return kTrue;
  if (a == kFalse) return b;
  if (b == kFalse) return a;
  pair_.assign({a, b});
  return OrOf(&pair_);
}

uint32_t CondArena::AndOf(std::vector<uint32_t>* ops) {
  std::vector<uint32_t>& flat = flat_;
  flat.clear();
  for (uint32_t op : *ops) {
    if (op == kFalse) return kFalse;
    if (op == kTrue) continue;
    if (nodes_[op].kind == Kind::kAnd) {
      const auto span = operands(op);
      flat.insert(flat.end(), span.begin(), span.end());
    } else {
      flat.push_back(op);
    }
  }
  if (flat.empty()) return kTrue;
  std::sort(flat.begin(), flat.end());
  const size_t before = flat.size();
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  bool simplified = flat.size() < before;

  // Union-find over the terms of the equality atoms; each class keeps the
  // code it is pinned to, if any.
  std::vector<uint32_t>& terms = uf_terms_;
  terms.clear();
  for (uint32_t op : flat) {
    if (nodes_[op].kind != Kind::kEq) continue;
    terms.push_back(nodes_[op].a);
    terms.push_back(nodes_[op].b);
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::vector<uint32_t>& parent = uf_parent_;
  std::vector<uint32_t>& code = uf_code_;
  parent.resize(terms.size());
  code.resize(terms.size());
  for (uint32_t i = 0; i < terms.size(); ++i) {
    parent[i] = i;
    code[i] = (terms[i] & kNullSlot) ? kNone : terms[i];
  }
  auto index = [&](uint32_t t) -> uint32_t {
    const auto it = std::lower_bound(terms.begin(), terms.end(), t);
    return it != terms.end() && *it == t
               ? static_cast<uint32_t>(it - terms.begin())
               : kNone;
  };
  auto find = [&](uint32_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  // The code a term's class is pinned to, or kNone.
  auto pinned = [&](uint32_t t) -> uint32_t {
    const uint32_t i = index(t);
    if (i == kNone) return (t & kNullSlot) ? kNone : t;
    return code[find(i)];
  };
  auto contradiction = [&]() {
    ++unsat_pruned_;
    ++simplified_;
    return kFalse;
  };

  std::vector<uint32_t>& kept = kept_;
  kept.clear();
  for (uint32_t op : flat) {
    const Node& n = nodes_[op];
    if (n.kind == Kind::kEq) {
      const uint32_t ra = find(index(n.a));
      const uint32_t rb = find(index(n.b));
      if (ra == rb) {  // implied by the atoms before it
        simplified = true;
        continue;
      }
      if (code[ra] != kNone && code[rb] != kNone) return contradiction();
      parent[ra] = rb;
      if (code[rb] == kNone) code[rb] = code[ra];
    }
    kept.push_back(op);
  }
  size_t out = 0;
  for (uint32_t op : kept) {
    const Node& n = nodes_[op];
    if (n.kind == Kind::kNe) {
      const uint32_t ia = index(n.a);
      const uint32_t ib = index(n.b);
      if (ia != kNone && ib != kNone && find(ia) == find(ib)) {
        return contradiction();
      }
      const uint32_t ca = pinned(n.a);
      const uint32_t cb = pinned(n.b);
      if (ca != kNone && cb != kNone && ca != cb) {  // decided: true
        simplified = true;
        continue;
      }
    }
    kept[out++] = op;
  }
  kept.resize(out);
  if (simplified) ++simplified_;
  if (kept.empty()) return kTrue;
  if (kept.size() == 1) return kept[0];
  return InternSpan(Kind::kAnd, kept);
}

uint32_t CondArena::OrOf(std::vector<uint32_t>* ops) {
  std::vector<uint32_t>& flat = flat_;
  flat.clear();
  for (uint32_t op : *ops) {
    if (op == kTrue) return kTrue;
    if (op == kFalse) continue;
    if (nodes_[op].kind == Kind::kOr) {
      const auto span = operands(op);
      flat.insert(flat.end(), span.begin(), span.end());
    } else {
      flat.push_back(op);
    }
  }
  if (flat.empty()) return kFalse;
  std::sort(flat.begin(), flat.end());
  const size_t before = flat.size();
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  const bool simplified = flat.size() < before;
  for (uint32_t op : flat) {
    const Node& n = nodes_[op];
    if (n.kind != Kind::kNe) continue;
    const uint32_t eq = FindAtom(Kind::kEq, n.a, n.b);
    if (eq != kNone && std::binary_search(flat.begin(), flat.end(), eq)) {
      ++simplified_;
      return kTrue;
    }
  }
  if (simplified) ++simplified_;
  if (flat.size() == 1) return flat[0];
  return InternSpan(Kind::kOr, flat);
}

uint32_t CondArena::Substitute(uint32_t c, uint32_t slot, uint32_t code) {
  const uint32_t term = kNullSlot | slot;
  const uint64_t bit = uint64_t{1} << (slot & 63);
  if (!(nodes_[c].slot_bits & bit)) return c;
  ++sub_epoch_;
  return SubstituteRec(c, term, bit, code);
}

uint32_t CondArena::SubstituteRec(uint32_t c, uint32_t term, uint64_t bit,
                                  uint32_t code) {
  if (!(nodes_[c].slot_bits & bit)) return c;
  if (c < sub_stamp_.size() && sub_stamp_[c] == sub_epoch_) {
    return sub_result_[c];
  }
  const Node n = nodes_[c];
  uint32_t out;
  if (n.kind == Kind::kEq || n.kind == Kind::kNe) {
    const uint32_t a = n.a == term ? code : n.a;
    const uint32_t b = n.b == term ? code : n.b;
    out = Eq(a, b);
    if (n.kind == Kind::kNe) out = Not(out);
  } else {
    std::vector<uint32_t> ops;
    ops.reserve(n.b);
    for (uint32_t i = 0; i < n.b; ++i) {
      ops.push_back(SubstituteRec(operands_[n.a + i], term, bit, code));
    }
    out = n.kind == Kind::kAnd ? AndOf(&ops) : OrOf(&ops);
  }
  if (sub_stamp_.size() <= c) {
    sub_stamp_.resize(nodes_.size(), 0);
    sub_result_.resize(nodes_.size(), 0);
  }
  sub_stamp_[c] = sub_epoch_;
  sub_result_[c] = out;
  return out;
}

bool CondArena::Eval(uint32_t c, const uint32_t* val) const {
  const Node& n = nodes_[c];
  auto term = [&](uint32_t t) {
    return (t & kNullSlot) ? val[t & ~kNullSlot] : t;
  };
  switch (n.kind) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kEq:
      return term(n.a) == term(n.b);
    case Kind::kNe:
      return term(n.a) != term(n.b);
    case Kind::kAnd:
      for (uint32_t i = 0; i < n.b; ++i) {
        if (!Eval(operands_[n.a + i], val)) return false;
      }
      return true;
    case Kind::kOr:
      for (uint32_t i = 0; i < n.b; ++i) {
        if (Eval(operands_[n.a + i], val)) return true;
      }
      return false;
  }
  return false;
}

void CondArena::Mentions(uint32_t c, std::vector<uint32_t>* slots,
                         std::vector<uint32_t>* codes) {
  slots->clear();
  codes->clear();
  if (stamp_.size() < nodes_.size()) stamp_.resize(nodes_.size(), 0);
  ++epoch_;
  std::vector<uint32_t> stack = {c};
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (stamp_[id] == epoch_) continue;
    stamp_[id] = epoch_;
    const Node& n = nodes_[id];
    if (n.kind == Kind::kEq || n.kind == Kind::kNe) {
      for (uint32_t t : {n.a, n.b}) {
        ((t & kNullSlot) ? slots : codes)->push_back(t & ~kNullSlot);
      }
    } else if (n.kind == Kind::kAnd || n.kind == Kind::kOr) {
      for (uint32_t i = 0; i < n.b; ++i) stack.push_back(operands_[n.a + i]);
    }
  }
  for (std::vector<uint32_t>* v : {slots, codes}) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }
}

ValueClassSolver::ValueClassSolver(CondArena* arena, const WorldEncoding& enc)
    : arena_(arena), enc_(enc) {}

void ValueClassSolver::Branches(const std::vector<uint32_t>& codes,
                                std::vector<uint32_t>* out,
                                uint32_t* rep) const {
  // `codes` ascending, so the mentioned domain codes come in domain order;
  // the representative is the first domain code they skip.
  const std::vector<uint32_t>& domain = enc_.domain_codes();
  out->clear();
  *rep = kNone;
  size_t i = 0;
  for (uint32_t c : codes) {
    if (!enc_.InDomain(c)) continue;
    if (*rep == kNone) {
      if (domain[i] == c) {
        ++i;
      } else {
        *rep = domain[i];
        out->push_back(*rep);
      }
    }
    out->push_back(c);
  }
  if (*rep == kNone && i < domain.size()) {
    *rep = domain[i];
    out->push_back(*rep);
  }
}

Result<bool> ValueClassSolver::Satisfiable(uint32_t c, uint64_t* budget,
                                           std::vector<uint32_t>* witness) {
  if (c == CondArena::kTrue) return true;
  if (c == CondArena::kFalse) return false;
  if (witness == nullptr && c < sat_memo_.size() && sat_memo_[c] >= 0) {
    return sat_memo_[c] == 1;
  }
  std::vector<uint32_t> slots, codes, branches;
  arena_->Mentions(c, &slots, &codes);
  const uint32_t pick = slots.front();
  uint32_t rep;
  Branches(codes, &branches, &rep);
  bool sat = false;
  for (uint32_t code : branches) {
    if (*budget == 0) {
      return Status(StatusCode::kResourceExhausted,
                    "condition satisfiability budget exhausted");
    }
    --*budget;
    const uint32_t sub = arena_->Substitute(c, pick, code);
    INCDB_ASSIGN_OR_RETURN(const bool r, Satisfiable(sub, budget, witness));
    if (r) {
      if (witness != nullptr) (*witness)[pick] = code;
      sat = true;
      break;
    }
  }
  if (witness == nullptr) {
    if (sat_memo_.size() <= c) sat_memo_.resize(arena_->size(), -1);
    sat_memo_[c] = sat ? 1 : 0;
  }
  return sat;
}

uint64_t ValueClassSolver::CountOwn(uint32_t c) { return Count(c).count; }

ValueClassSolver::Counted ValueClassSolver::Count(uint32_t c) {
  if (c == CondArena::kTrue) return {1, 0};
  if (c == CondArena::kFalse) return {0, 0};
  if (c < count_memo_.size() && count_memo_[c] != kUnknown) {
    return {count_memo_[c], count_slots_[c]};
  }
  std::vector<uint32_t> slots, codes, branches;
  arena_->Mentions(c, &slots, &codes);
  const uint32_t pick = slots.front();
  uint32_t rep;
  Branches(codes, &branches, &rep);
  const uint64_t dsize = enc_.domain_codes().size();
  const uint64_t unmentioned = dsize - (branches.size() - (rep != kNone));
  uint64_t total = 0;
  for (uint32_t code : branches) {
    const Counted sub = Count(arena_->Substitute(c, pick, code));
    // Nulls the substitution decided away are free.
    uint64_t n = sub.count;
    for (size_t k = sub.slots + 1; k < slots.size(); ++k) n *= dsize;
    total += code == rep ? unmentioned * n : n;
  }
  if (count_memo_.size() <= c) {
    count_memo_.resize(arena_->size(), kUnknown);
    count_slots_.resize(arena_->size(), 0);
  }
  count_memo_[c] = total;
  count_slots_[c] = static_cast<uint32_t>(slots.size());
  return {total, static_cast<uint32_t>(slots.size())};
}

uint32_t ImportCondition(const ConditionPtr& c, const WorldEncoding& enc,
                         CondArena* arena) {
  switch (c->kind()) {
    case Condition::Kind::kTrue:
      return CondArena::kTrue;
    case Condition::Kind::kFalse:
      return CondArena::kFalse;
    case Condition::Kind::kEq:
      return arena->Eq(enc.EncodeBase(c->lhs()), enc.EncodeBase(c->rhs()));
    case Condition::Kind::kNot:
      return arena->Not(ImportCondition(c->left(), enc, arena));
    case Condition::Kind::kAnd:
    case Condition::Kind::kOr: {
      const uint32_t l = ImportCondition(c->left(), enc, arena);
      const uint32_t r = ImportCondition(c->right(), enc, arena);
      return c->kind() == Condition::Kind::kAnd ? arena->And(l, r)
                                                : arena->Or(l, r);
    }
  }
  return CondArena::kFalse;
}

ConditionPtr ExportCondition(
    const CondArena& arena, uint32_t id,
    const std::function<Value(uint32_t term)>& term_value) {
  switch (arena.kind(id)) {
    case CondArena::Kind::kTrue:
      return Condition::True();
    case CondArena::Kind::kFalse:
      return Condition::False();
    case CondArena::Kind::kEq:
    case CondArena::Kind::kNe: {
      ConditionPtr eq = Condition::Eq(term_value(arena.lhs(id)),
                                      term_value(arena.rhs(id)));
      return arena.kind(id) == CondArena::Kind::kEq ? eq
                                                    : Condition::Not(eq);
    }
    case CondArena::Kind::kAnd:
    case CondArena::Kind::kOr: {
      const auto ops = arena.operands(id);
      const bool is_and = arena.kind(id) == CondArena::Kind::kAnd;
      ConditionPtr acc = ExportCondition(arena, ops.back(), term_value);
      for (size_t i = ops.size() - 1; i-- > 0;) {
        ConditionPtr op = ExportCondition(arena, ops[i], term_value);
        acc = is_and ? Condition::And(std::move(op), std::move(acc))
                     : Condition::Or(std::move(op), std::move(acc));
      }
      return acc;
    }
  }
  return Condition::False();
}

Result<bool> SatisfiableOverDomain(const ConditionPtr& c,
                                   const std::vector<Value>& domain,
                                   uint64_t budget, Valuation* witness) {
  std::set<NullId> null_set;
  c->CollectNulls(&null_set);
  std::set<Value> constants;
  c->CollectConstants(&constants);
  INCDB_ASSIGN_OR_RETURN(
      const WorldEncoding enc,
      WorldEncoding::FromValues(
          std::vector<Value>(constants.begin(), constants.end()),
          std::vector<NullId>(null_set.begin(), null_set.end()), domain));
  CondArena arena;
  const uint32_t id = ImportCondition(c, enc, &arena);
  ValueClassSolver solver(&arena, enc);
  std::vector<uint32_t> codes(enc.nulls().size(), kNone);
  INCDB_ASSIGN_OR_RETURN(
      const bool sat,
      solver.Satisfiable(id, &budget, witness != nullptr ? &codes : nullptr));
  if (sat && witness != nullptr) {
    for (size_t s = 0; s < codes.size(); ++s) {
      if (codes[s] != kNone) {
        witness->Bind(enc.nulls()[s], enc.dict().values[codes[s]]);
      }
    }
  }
  return sat;
}

}  // namespace incdb
