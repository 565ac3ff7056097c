// SQL tokens.

#ifndef INCDB_SQL_TOKEN_H_
#define INCDB_SQL_TOKEN_H_

#include <cstdint>
#include <string>

namespace incdb {

enum class TokenType {
  kEof,
  kIdentifier,  ///< table / column names (case-preserved)
  kKeyword,     ///< upper-cased reserved word
  kInteger,
  kString,      ///< 'quoted'
  kComma,
  kDot,
  kLParen,
  kRParen,
  kStar,
  kEq,     ///< =
  kNe,     ///< <> or !=
  kLt,
  kLe,
  kGt,
  kGe,
};

struct Token {
  TokenType type = TokenType::kEof;
  std::string text;     ///< identifier/keyword/string payload
  int64_t int_value = 0;
  size_t position = 0;  ///< byte offset in the input, for error messages
};

/// True if `word` (upper-case) is a reserved keyword.
bool IsSqlKeyword(const std::string& upper);

}  // namespace incdb

#endif  // INCDB_SQL_TOKEN_H_
