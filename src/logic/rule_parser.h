// Text syntax for conjunctive queries, UCQs, and tgds — the rule notation
// the paper itself uses ("Order(i, p) → Cust(x), Pref(x, p)").
//
//   CQ   :   ans(x, p) :- Order(x, p), Pay(y, x, z)
//   Bool :   :- Order(x, p)                     (empty head)
//   UCQ  :   cq1 ; cq2 ; ...
//   TGD  :   Order(i, p) -> Cust(x), Pref(x, p)
//
// Terms: bare identifiers are variables (so `_x` is a variable: rules hold
// no nulls); integers and 'quoted' strings ('' for a quote, as in
// core/io.h) are constants. Relation names are the identifiers in atom
// position. Variable identifiers are scoped per rule. A UCQ splits at each
// `;` outside quotes. Parse errors name the line, column and token within
// the whole input (util/scanner.h).

#ifndef INCDB_LOGIC_RULE_PARSER_H_
#define INCDB_LOGIC_RULE_PARSER_H_

#include <string>

#include "exchange/mapping.h"
#include "logic/cq.h"

namespace incdb {

/// Parses "head :- body" (head optional for Boolean queries).
Result<ConjunctiveQuery> ParseCQ(const std::string& text);

/// Parses ';'-separated CQs into a UCQ.
Result<UnionOfCQs> ParseUCQ(const std::string& text);

/// Parses "body -> head".
Result<Tgd> ParseTgd(const std::string& text);

/// Parses one tgd per non-empty line into a mapping.
Result<SchemaMapping> ParseMapping(const std::string& text);

}  // namespace incdb

#endif  // INCDB_LOGIC_RULE_PARSER_H_
