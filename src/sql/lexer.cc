#include "sql/lexer.h"

#include <cctype>

#include "util/strings.h"

namespace incdb {

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = sql.size();
  auto make = [&](TokenType t, size_t pos) {
    Token tok;
    tok.type = t;
    tok.position = pos;
    return tok;
  };
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '_')) {
        ++j;
      }
      std::string word = sql.substr(i, j - i);
      std::string upper = ToUpper(word);
      Token tok = make(IsSqlKeyword(upper) ? TokenType::kKeyword
                                           : TokenType::kIdentifier,
                       start);
      tok.text = IsSqlKeyword(upper) ? upper : word;
      out.push_back(std::move(tok));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t j = i + 1;
      while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) ++j;
      const std::optional<int64_t> v =
          ParseDecimal<int64_t>(std::string_view(sql).substr(i, j - i));
      if (!v) {
        return Status::ParseError("integer literal out of range at offset " +
                                  std::to_string(start));
      }
      Token tok = make(TokenType::kInteger, start);
      tok.int_value = *v;
      out.push_back(std::move(tok));
      i = j;
      continue;
    }
    if (c == '\'') {
      std::string text;
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (sql[j] == '\'') {
          if (j + 1 < n && sql[j + 1] == '\'') {
            text += '\'';
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        text += sql[j];
        ++j;
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      Token tok = make(TokenType::kString, start);
      tok.text = std::move(text);
      out.push_back(std::move(tok));
      i = j;
      continue;
    }
    switch (c) {
      case ',':
        out.push_back(make(TokenType::kComma, start));
        ++i;
        break;
      case '.':
        out.push_back(make(TokenType::kDot, start));
        ++i;
        break;
      case '(':
        out.push_back(make(TokenType::kLParen, start));
        ++i;
        break;
      case ')':
        out.push_back(make(TokenType::kRParen, start));
        ++i;
        break;
      case '*':
        out.push_back(make(TokenType::kStar, start));
        ++i;
        break;
      case '=':
        out.push_back(make(TokenType::kEq, start));
        ++i;
        break;
      case '!':
        if (i + 1 < n && sql[i + 1] == '=') {
          out.push_back(make(TokenType::kNe, start));
          i += 2;
        } else {
          return Status::ParseError("unexpected '!' at offset " +
                                    std::to_string(start));
        }
        break;
      case '<':
        if (i + 1 < n && sql[i + 1] == '>') {
          out.push_back(make(TokenType::kNe, start));
          i += 2;
        } else if (i + 1 < n && sql[i + 1] == '=') {
          out.push_back(make(TokenType::kLe, start));
          i += 2;
        } else {
          out.push_back(make(TokenType::kLt, start));
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && sql[i + 1] == '=') {
          out.push_back(make(TokenType::kGe, start));
          i += 2;
        } else {
          out.push_back(make(TokenType::kGt, start));
          ++i;
        }
        break;
      default:
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(start));
    }
  }
  out.push_back(make(TokenType::kEof, n));
  return out;
}

}  // namespace incdb
