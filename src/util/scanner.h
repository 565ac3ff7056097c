// Scanner: the one cursor every incdb text input is read with — RA, SQL,
// rules, dumps, c-table dumps and conditions, and the server's wire lines.
//
// Each parser keeps its own grammar and builds it from these primitives:
// skip whitespace, peek, accept a character, a string or a word at a word
// boundary, read a word of [A-Za-z0-9_], a range-checked integer, or a
// 'quoted' string in which '' stands for one quote.
//
// Every error a Scanner builds has one form:
//
//   <message> on line L, column C (at '<token>')
//   <message> on line L, column C (at end of <what>)
//
// where L and C are 1-based and C counts bytes, <token> is the run of text
// at the error (a quoted string, one of `(){}[],;=~&|`, or a run of other
// non-space characters), and <what> names the input ("RA expression",
// "condition", ...). Line and column are derived from the offset only when
// an error is built, so scanning itself tracks nothing but the offset.

#ifndef INCDB_UTIL_SCANNER_H_
#define INCDB_UTIL_SCANNER_H_

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace incdb {

/// A cursor over one text input. Every primitive skips whitespace first.
class Scanner {
 public:
  /// Scans `text`, which must outlive the Scanner. `what` names the input
  /// in "(at end of <what>)". `first_line` is the line number of the first
  /// line of `text`, for a text that is one line of a longer file.
  Scanner(std::string_view text, std::string_view what, size_t first_line = 1)
      : text_(text), what_(what), first_line_(first_line) {}

  /// Byte offset of the next unread character.
  size_t pos() const { return pos_; }
  /// The unread rest of the text.
  std::string_view rest() const { return text_.substr(pos_); }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  /// True when only whitespace is left.
  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }
  /// The next non-space character, or '\0' at the end.
  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool Accept(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool Accept(std::string_view s) {
    SkipSpace();
    if (text_.substr(pos_, s.size()) != s) return false;
    pos_ += s.size();
    return true;
  }
  /// Accepts `w` only where it is not the prefix of a longer word.
  bool AcceptWord(std::string_view w, bool ignore_case = false);

  /// Fails with "expected '<c>'" unless the next character is `c`.
  Status Expect(char c);

  /// Reads a word of [A-Za-z0-9_]; empty if none starts here.
  std::string_view ReadWord();
  /// Reads an integer: an optional '-' directly followed by digits, within
  /// int64.
  Result<int64_t> ReadInt();
  /// Reads a 'quoted' string, '' standing for one quote.
  Result<std::string> ReadQuoted();

  /// A parse error at the next non-space character.
  Status Error(std::string_view message) const;
  /// A parse error at byte `offset` of the text.
  Status ErrorAt(size_t offset, std::string_view message) const;

 private:
  std::string_view text_;
  std::string_view what_;
  size_t first_line_;
  size_t pos_ = 0;
};

}  // namespace incdb

#endif  // INCDB_UTIL_SCANNER_H_
