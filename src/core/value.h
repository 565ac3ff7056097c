// Value: the atomic datum of incdb — a constant or a marked (naïve) null.
//
// The paper's data model (Section 2) populates databases from two countably
// infinite sets: Const (constants) and Null (marked nulls ⊥, ⊥', ⊥1, ...).
// We realize Const as 64-bit integers and strings, and Null as 32-bit null
// identifiers. A Codd/SQL null is a marked null that happens to occur exactly
// once in an instance.
//
// Values are totally ordered (nulls < ints < strings; each kind ordered
// naturally) so that relations can be kept canonical (sorted, deduplicated).
// The order on nulls is an implementation device only — no query semantics
// depends on comparing a null with `<`.

#ifndef INCDB_CORE_VALUE_H_
#define INCDB_CORE_VALUE_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>

namespace incdb {

/// Identifier of a marked null. ⊥_k is represented by NullId k.
using NullId = uint32_t;

/// A constant (int or string) or a marked null.
class Value {
 public:
  enum class Kind { kNull = 0, kInt = 1, kString = 2 };

  /// Default: the null ⊥_0 (a valid marked null).
  Value() : rep_(NullRep{0}) {}

  /// Creates an integer constant.
  static Value Int(int64_t v) { return Value(v); }
  /// Creates a string constant.
  static Value Str(std::string v) { return Value(std::move(v)); }
  /// Creates the marked null ⊥_id.
  static Value Null(NullId id) { return Value(NullRep{id}); }

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_string() const { return kind() == Kind::kString; }
  /// True for any constant (non-null) value.
  bool is_const() const { return !is_null(); }

  int64_t as_int() const { return std::get<int64_t>(rep_); }
  const std::string& as_str() const { return std::get<std::string>(rep_); }
  NullId null_id() const { return std::get<NullRep>(rep_).id; }

  bool operator==(const Value& o) const = default;
  std::strong_ordering operator<=>(const Value& o) const;

  /// Appends the value in the syntax of core/io.h, which ReadValue reads
  /// back: ints as-is, strings single-quoted with '' for a quote, nulls as
  /// "_3" (⊥_3). The one value writer; every rendering goes through it.
  void AppendTo(std::string* out) const;

  /// AppendTo into a fresh string.
  std::string ToString() const;

  /// Hash suitable for unordered containers.
  size_t Hash() const;

 private:
  struct NullRep {
    NullId id;
    bool operator==(const NullRep&) const = default;
    auto operator<=>(const NullRep&) const = default;
  };

  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(NullRep n) : rep_(n) {}

  std::variant<NullRep, int64_t, std::string> rep_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace incdb

#endif  // INCDB_CORE_VALUE_H_
