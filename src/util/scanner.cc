#include "util/scanner.h"

#include <algorithm>
#include <cstring>

#include "util/strings.h"

namespace incdb {
namespace {

// Longest token an error quotes; a 1 MiB line must not come back whole.
constexpr size_t kMaxTokenBytes = 40;

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsDelimiter(char c) {
  return c != '\0' && std::strchr("(){}[],;=~&|", c) != nullptr;
}

// The token that starts at `offset`: a quoted string (to its closing quote
// or the end of its line), one delimiter, or a run of other non-space
// characters.
std::string_view TokenAt(std::string_view text, size_t offset) {
  size_t end = offset + 1;
  if (text[offset] == '\'') {
    while (end < text.size() && text[end] != '\n') {
      if (text[end++] != '\'') continue;
      if (end < text.size() && text[end] == '\'') {
        ++end;
      } else {
        break;
      }
    }
  } else if (!IsDelimiter(text[offset])) {
    while (end < text.size() && text[end] != '\'' && !IsDelimiter(text[end]) &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
  }
  return text.substr(offset, std::min(end - offset, kMaxTokenBytes));
}

}  // namespace

bool Scanner::AcceptWord(std::string_view w, bool ignore_case) {
  SkipSpace();
  if (text_.size() - pos_ < w.size()) return false;
  for (size_t i = 0; i < w.size(); ++i) {
    const char c = text_[pos_ + i];
    const bool same =
        ignore_case ? std::toupper(static_cast<unsigned char>(c)) ==
                          std::toupper(static_cast<unsigned char>(w[i]))
                    : c == w[i];
    if (!same) return false;
  }
  const size_t end = pos_ + w.size();
  if (end < text_.size() && IsWordChar(text_[end])) return false;
  pos_ = end;
  return true;
}

Status Scanner::Expect(char c) {
  if (Accept(c)) return Status::OK();
  return Error(std::string("expected '") + c + "'");
}

std::string_view Scanner::ReadWord() {
  SkipSpace();
  const size_t start = pos_;
  while (pos_ < text_.size() && IsWordChar(text_[pos_])) ++pos_;
  return text_.substr(start, pos_ - start);
}

Result<int64_t> Scanner::ReadInt() {
  SkipSpace();
  const size_t start = pos_;
  size_t end = start;
  if (end < text_.size() && text_[end] == '-') ++end;
  const size_t digits = end;
  while (end < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[end]))) {
    ++end;
  }
  if (end == digits) return Error("expected integer");
  const std::optional<int64_t> v =
      ParseDecimal<int64_t>(text_.substr(start, end - start));
  if (!v) return ErrorAt(start, "integer out of range");
  pos_ = end;
  return *v;
}

Result<std::string> Scanner::ReadQuoted() {
  SkipSpace();
  const size_t start = pos_;
  if (pos_ >= text_.size() || text_[pos_] != '\'') {
    return Error("expected a quoted string");
  }
  std::string out;
  for (size_t i = start + 1; i < text_.size(); ++i) {
    if (text_[i] != '\'') {
      out += text_[i];
    } else if (i + 1 < text_.size() && text_[i + 1] == '\'') {
      out += '\'';
      ++i;
    } else {
      pos_ = i + 1;
      return out;
    }
  }
  return ErrorAt(start, "unterminated string");
}

Status Scanner::Error(std::string_view message) const {
  size_t at = pos_;
  while (at < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[at]))) {
    ++at;
  }
  return ErrorAt(at, message);
}

Status Scanner::ErrorAt(size_t offset, std::string_view message) const {
  offset = std::min(offset, text_.size());
  size_t line = first_line_;
  size_t line_start = 0;
  for (size_t i = 0; i < offset; ++i) {
    if (text_[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
  }
  std::string out(message);
  out += " on line " + std::to_string(line) + ", column " +
         std::to_string(offset - line_start + 1);
  if (offset == text_.size()) {
    out += " (at end of ";
    out += what_;
    out += ')';
  } else {
    out += " (at '";
    for (const char c : TokenAt(text_, offset)) {
      // Control bytes would break the one-line replies of the wire.
      out += std::iscntrl(static_cast<unsigned char>(c)) ? '?' : c;
    }
    out += "')";
  }
  return Status::ParseError(std::move(out));
}

}  // namespace incdb
