#include "sql/lexer.h"

#include <cctype>

#include "util/strings.h"

namespace incdb {

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  Scanner s(sql, "SQL query");
  std::vector<Token> out;
  auto push = [&](TokenType t, size_t pos) {
    Token tok;
    tok.type = t;
    tok.position = pos;
    out.push_back(std::move(tok));
    return &out.back();
  };
  while (!s.AtEnd()) {
    const char c = s.Peek();
    const size_t start = s.pos();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string word(s.ReadWord());
      std::string upper = ToUpper(word);
      const bool keyword = IsSqlKeyword(upper);
      Token* tok = push(
          keyword ? TokenType::kKeyword : TokenType::kIdentifier, start);
      tok->text = keyword ? std::move(upper) : std::move(word);
      continue;
    }
    // `-5` is one literal; a '-' before anything but a digit is an error.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && s.rest().size() > 1 &&
         std::isdigit(static_cast<unsigned char>(s.rest()[1])))) {
      INCDB_ASSIGN_OR_RETURN(int64_t v, s.ReadInt());
      push(TokenType::kInteger, start)->int_value = v;
      continue;
    }
    if (c == '\'') {
      INCDB_ASSIGN_OR_RETURN(std::string text, s.ReadQuoted());
      push(TokenType::kString, start)->text = std::move(text);
      continue;
    }
    if (s.Accept("<>") || s.Accept("!=")) {
      push(TokenType::kNe, start);
    } else if (s.Accept("<=")) {
      push(TokenType::kLe, start);
    } else if (s.Accept(">=")) {
      push(TokenType::kGe, start);
    } else if (s.Accept(',')) {
      push(TokenType::kComma, start);
    } else if (s.Accept('.')) {
      push(TokenType::kDot, start);
    } else if (s.Accept('(')) {
      push(TokenType::kLParen, start);
    } else if (s.Accept(')')) {
      push(TokenType::kRParen, start);
    } else if (s.Accept('*')) {
      push(TokenType::kStar, start);
    } else if (s.Accept('=')) {
      push(TokenType::kEq, start);
    } else if (s.Accept('<')) {
      push(TokenType::kLt, start);
    } else if (s.Accept('>')) {
      push(TokenType::kGt, start);
    } else {
      return s.Error("unexpected character");
    }
  }
  push(TokenType::kEof, sql.size());
  return out;
}

}  // namespace incdb
