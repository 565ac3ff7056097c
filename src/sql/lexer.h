// SQL lexer.

#ifndef INCDB_SQL_LEXER_H_
#define INCDB_SQL_LEXER_H_

#include <string>
#include <vector>

#include "sql/token.h"
#include "util/scanner.h"
#include "util/status.h"

namespace incdb {

/// Tokenizes a SQL string. Keywords are case-insensitive and surfaced
/// upper-cased; identifiers keep their original spelling. Integers and
/// string literals are read by util/scanner.h ('' escapes a quote), and
/// errors carry its line, column and token.
Result<std::vector<Token>> Tokenize(const std::string& sql);

}  // namespace incdb

#endif  // INCDB_SQL_LEXER_H_
