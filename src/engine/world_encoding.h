// The dictionary encoding both world-quantified backends share.
//
// A certain, possible or probability query on the enumeration backend
// (engine/delta_eval.h) or the c-table backend (ctables/code_ctable.h)
// builds one WorldEncoding on the calling thread, before any work starts:
//
//  * one sorted dictionary: the WorldSpace domain plus every value of the
//    plan's relation literals. A literal's nulls are dictionary values like
//    any constant: valuations never apply to literals, so in every world a
//    literal's `_3` is the value `_3`, equal to no domain constant. Code
//    order is Value order;
//  * base cells: a constant is its code, and a null names its slot in the
//    WorldSpace (its index in `nulls`), tagged with kNullSlot;
//  * the domain as codes, ascending: nulls range over these codes only.
//
// The drivers build the space with the plan's own constants in the domain
// (WithQueryConstants), so a non-null σ constant has a code. σ and join
// residuals compile against the dictionary once (engine/kernels.h
// CompilePred), and a constant outside it, a null one or any in a query
// over stored c-tables, resolves to the rank range it would occupy.
//
// Immutable once built; thread-compatible.

#ifndef INCDB_ENGINE_WORLD_ENCODING_H_
#define INCDB_ENGINE_WORLD_ENCODING_H_

#include <cstdint>
#include <vector>

#include "algebra/ast.h"
#include "core/columnar.h"
#include "core/possible_worlds.h"
#include "core/relation.h"
#include "util/status.h"

namespace incdb {

/// `opts` with the non-null constants of `plan`'s selection predicates and
/// relation literals added to required_constants. Exactness rests on every
/// world being isomorphic, over the constants of D and of the query, to one
/// the domain covers, so the certain, possible and probability drivers on
/// both backends, and the oracle's eq. (1) reference, walk this space.
WorldEnumOptions WithQueryConstants(const RAExprPtr& plan,
                                    WorldEnumOptions opts);

class WorldEncoding {
 public:
  /// A cell with this bit set names a null's slot; without it, a code.
  static constexpr uint32_t kNullSlot = uint32_t{1} << 31;

  WorldEncoding() = default;

  /// The encoding of `plan`'s queries over `space`, which must be
  /// MakeWorldSpace of the database the plan runs on. Fails
  /// ResourceExhausted when the dictionary or the null count reaches 2^31.
  static Result<WorldEncoding> Make(const RAExprPtr& plan,
                                    const WorldSpace& space);

  /// The same encoding for a caller-chosen dictionary `values` (need not
  /// be sorted or unique; the domain is added), null set and domain.
  static Result<WorldEncoding> FromValues(std::vector<Value> values,
                                          const std::vector<NullId>& nulls,
                                          const std::vector<Value>& domain);

  /// Appends every value of `plan`'s relation literals to `out`.
  static void CollectLiteralValues(const RAExprPtr& plan,
                                   std::vector<Value>* out);

  const ValueDict& dict() const { return dict_; }
  /// The WorldSpace's nulls, ascending: a null's slot is its index here.
  const std::vector<NullId>& nulls() const { return nulls_; }
  /// The code of each domain value, by domain position (ascending).
  const std::vector<uint32_t>& domain_codes() const { return domain_codes_; }
  /// True when `code` is a domain value's code.
  bool InDomain(uint32_t code) const {
    return code < in_domain_.size() && in_domain_[code] != 0;
  }

  /// The slot of null `id`, which must be one of nulls().
  uint32_t SlotOf(NullId id) const;
  /// The cell of a base value: its code, or kNullSlot | its null's slot.
  /// A constant must be in the dictionary.
  uint32_t EncodeBase(const Value& v) const;
  /// `r`'s rows in canonical order, arity cells each, as base cells.
  std::vector<uint32_t> EncodeBaseRows(const Relation& r) const;
  /// A literal's rows in canonical order: every value, nulls included, is
  /// a code.
  std::vector<uint32_t> EncodeLiteralRows(const Relation& r) const;
  /// The value a code or a slot names (a slot decodes to its null).
  Value Decode(uint32_t cell) const;

 private:
  Status Finish(const std::vector<Value>& domain);

  ValueDict dict_;
  std::vector<NullId> nulls_;
  std::vector<uint32_t> domain_codes_;
  std::vector<uint8_t> in_domain_;
};

}  // namespace incdb

#endif  // INCDB_ENGINE_WORLD_ENCODING_H_
