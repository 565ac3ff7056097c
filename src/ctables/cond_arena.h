// C-table conditions as 32-bit node ids in one per-query arena.
//
// The c-table backend (ctables/code_ctable.h) builds every row condition of
// one query here. A *term* is a dictionary code of the query's
// WorldEncoding (engine/world_encoding.h), or kNullSlot | the slot of a
// null; an *atom* is an equality or a disequality of two distinct terms;
// an AND or OR node is a sorted, deduplicated span of operand ids. Every
// node is built already in normal form:
//
//  * negation normal form — ¬ is pushed onto the atoms (Not(x = y) is the
//    atom x ≠ y), and the negation of a node is memoized;
//  * flattening — an AND's operands are never ANDs, an OR's never ORs;
//    operands are sorted by id (creation order) and deduplicated;
//  * constant folding — an atom of two codes is decided (distinct codes are
//    distinct values), x = x is true, and true / false operands fold;
//  * union-find pruning — over the equality atoms of each conjunction, terms
//    are merged into classes that remember at most one code. A conjunction
//    is false as soon as a class holds two codes or a disequality joins one
//    class; an equality already implied by the class is dropped, and so is
//    a disequality whose sides are pinned to distinct codes;
//  * complementary literals — an OR holding x = y and x ≠ y is true.
//
// Nodes are hash-consed in one flat table, so equal normal forms are equal
// ids, and ids 0 and 1 are `true` and `false`.
//
// ValueClassSolver decides satisfiability and counts satisfying valuations
// with every null ranging over the domain codes. Domain values a condition
// does not mention are interchangeable (a permutation of the domain fixing
// the mentioned codes maps satisfying valuations onto satisfying
// valuations), so a null branches over *value classes*: each domain code the
// (sub)condition mentions, and the first unmentioned code, which stands for
// all the others. Branches are taken in domain order, so the first
// satisfying valuation found is the first in domain order, exactly as a walk
// over every value would find it.
//
// Thread-compatibility: building nodes mutates the arena; once a query stops
// building, any number of threads may call Eval.

#ifndef INCDB_CTABLES_COND_ARENA_H_
#define INCDB_CTABLES_COND_ARENA_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ctables/condition.h"
#include "engine/world_encoding.h"
#include "util/status.h"

namespace incdb {

class CondArena {
 public:
  static constexpr uint32_t kTrue = 0;
  static constexpr uint32_t kFalse = 1;
  static constexpr uint32_t kNullSlot = WorldEncoding::kNullSlot;

  enum class Kind : uint8_t { kTrue, kFalse, kEq, kNe, kAnd, kOr };

  CondArena();
  CondArena(const CondArena&) = delete;
  CondArena& operator=(const CondArena&) = delete;

  /// Nodes built so far (true and false included).
  size_t size() const { return nodes_.size(); }

  Kind kind(uint32_t id) const { return nodes_[id].kind; }
  /// An atom's terms, lhs < rhs.
  uint32_t lhs(uint32_t id) const { return nodes_[id].a; }
  uint32_t rhs(uint32_t id) const { return nodes_[id].b; }
  /// An AND's or OR's operands, ascending.
  std::span<const uint32_t> operands(uint32_t id) const {
    return {operands_.data() + nodes_[id].a, nodes_[id].b};
  }

  uint32_t Eq(uint32_t a, uint32_t b);
  uint32_t Not(uint32_t c);
  uint32_t And(uint32_t a, uint32_t b);
  uint32_t Or(uint32_t a, uint32_t b);
  /// The conjunction / disjunction of `ops` (reused as scratch).
  uint32_t AndOf(std::vector<uint32_t>* ops);
  uint32_t OrOf(std::vector<uint32_t>* ops);
  /// c with every occurrence of null `slot` replaced by `code`.
  uint32_t Substitute(uint32_t c, uint32_t slot, uint32_t code);

  /// Whether `c` holds when null slot s has code val[s]; val must bind
  /// every slot `c` mentions. Read-only: safe from several threads.
  bool Eval(uint32_t c, const uint32_t* val) const;

  /// The distinct null slots and codes `c` mentions, each ascending.
  void Mentions(uint32_t c, std::vector<uint32_t>* slots,
                std::vector<uint32_t>* codes);

  /// Conjunctions and disjunctions whose normal form dropped an operand
  /// that was not a constant (a duplicate, an implied equality, a decided
  /// disequality) or collapsed by a contradiction or a complementary pair.
  uint64_t simplified() const { return simplified_; }
  /// Conjunctions the union-find check proved unsatisfiable.
  uint64_t unsat_pruned() const { return unsat_pruned_; }

 private:
  struct Node {
    Kind kind;
    uint32_t a = 0;  // atom: lhs term; AND/OR: first operand offset
    uint32_t b = 0;  // atom: rhs term; AND/OR: operand count
    uint64_t slot_bits = 0;  // bit (slot % 64) of every slot mentioned
    uint64_t hash = 0;
  };

  uint32_t InternAtom(Kind kind, uint32_t a, uint32_t b);
  uint32_t InternSpan(Kind kind, const std::vector<uint32_t>& ops);
  uint32_t FindAtom(Kind kind, uint32_t a, uint32_t b) const;
  uint32_t Insert(Node n, size_t pos);
  void Grow();
  uint32_t SubstituteRec(uint32_t c, uint32_t term, uint64_t bit,
                         uint32_t code);

  std::vector<Node> nodes_;
  std::vector<uint32_t> operands_;
  std::vector<uint32_t> table_;  // open addressing: node ids, or kEmpty
  std::vector<uint32_t> negation_;
  // Scratch for And / Or and AndOf / OrOf (none of them recurses) and
  // Mentions.
  std::vector<uint32_t> pair_, flat_, kept_, uf_terms_, uf_parent_, uf_code_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  // Substitute's per-call memo, stamped like Mentions.
  std::vector<uint32_t> sub_stamp_, sub_result_;
  uint32_t sub_epoch_ = 0;
  uint64_t simplified_ = 0;
  uint64_t unsat_pruned_ = 0;
};

/// Satisfiability and exact counting over one encoding's domain codes by
/// value classes. Memoizes per node for the arena's lifetime (the domain
/// never changes). Single-threaded, like the arena it builds into.
class ValueClassSolver {
 public:
  ValueClassSolver(CondArena* arena, const WorldEncoding& enc);

  /// Whether some valuation of `c`'s nulls into the domain satisfies it.
  /// Each class branch costs one unit of `*budget`; running out returns
  /// ResourceExhausted. With `witness` (one code per slot), the first
  /// satisfying valuation in domain order is written there for the nulls
  /// the search bound; nulls `c` does not constrain are left as they were.
  Result<bool> Satisfiable(uint32_t c, uint64_t* budget,
                           std::vector<uint32_t>* witness = nullptr);

  /// The number of valuations of `c`'s own nulls into the domain that
  /// satisfy `c`. The caller bounds |domain|^#nulls(c) beforehand, which
  /// bounds every intermediate count.
  uint64_t CountOwn(uint32_t c);

 private:
  // The branch codes of a null in a node mentioning domain codes `codes`
  // (ascending), in domain order; `*rep` is the unmentioned representative,
  // or kNone when every domain code is mentioned.
  void Branches(const std::vector<uint32_t>& codes,
                std::vector<uint32_t>* out, uint32_t* rep) const;

  struct Counted {
    uint64_t count;
    uint32_t slots;
  };
  Counted Count(uint32_t c);

  CondArena* arena_;
  const WorldEncoding& enc_;
  std::vector<int8_t> sat_memo_;     // -1 unknown, else 0 / 1
  std::vector<uint64_t> count_memo_;  // kUnknown or the count
  std::vector<uint32_t> count_slots_;
};

/// The node of `c`, with values mapped to terms by `enc` (a constant must
/// be in its dictionary, a null among its nulls).
uint32_t ImportCondition(const ConditionPtr& c, const WorldEncoding& enc,
                         CondArena* arena);

/// The Condition tree of node `id`; `term_value` maps a term to its value.
ConditionPtr ExportCondition(
    const CondArena& arena, uint32_t id,
    const std::function<Value(uint32_t term)>& term_value);

/// Exact satisfiability of `c` with every null ranging over `domain`: the
/// search of ValueClassSolver on a fresh arena. `budget` bounds the class
/// branches (ResourceExhausted past it). On success with `witness`
/// non-null, the first satisfying valuation in domain order is bound there
/// for the nulls the search fixed (nulls `c` does not constrain are left
/// unbound — any domain value satisfies). An empty domain satisfies only a
/// condition that folds to true.
Result<bool> SatisfiableOverDomain(const ConditionPtr& c,
                                   const std::vector<Value>& domain,
                                   uint64_t budget = 50'000'000,
                                   Valuation* witness = nullptr);

}  // namespace incdb

#endif  // INCDB_CTABLES_COND_ARENA_H_
