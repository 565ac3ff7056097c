// incdb_shell — a tiny interactive shell over the library.
//
// Commands (one per line; also scriptable via stdin):
//   create <table>(<col>, <col>, ...)      declare a relation
//   insert <table> (v1, v2, ...)           values: 42, 'str', null, _3
//   show                                   print the database
//   sql     <SELECT ...>                   evaluate with SQL 3VL semantics
//   naive   <SELECT ...>                   evaluate with marked-null naïve
//   certain <SELECT ...>                   certain answers (positive only)
//   modes   <SELECT ...>                   all three side by side
//   ra      <algebra expr>                 e.g. ra proj{0}(R - S)
//   prob    [<threshold>] <query>          per-tuple answer probabilities under
//                                          the uniform CWA valuation measure
//                                          (exact world counting, Monte-Carlo
//                                          fallback); threshold defaults to 1.0
//   explain [naive|enum|prob] <query>      pre/post-optimization plan, answer,
//                                          per-operator + delta-eval (or
//                                          counting) stats
//   stats   on|off                         per-operator counters after queries
//   threads <n>                            worker threads (0 = auto, 1 = serial)
//   delta   on|off                         differential world enumeration
//   backend enum|ctable                    world enumeration vs c-table-native
//                                          certain/possible answers
//   help / quit
//
// All query commands run through the QueryEngine facade
// (engine/query_engine.h) — the shell names an answer notion and prints
// whatever comes back.
//
// Example session:
//   create R(a)
//   create S(a)
//   insert R (1)
//   insert R (2)
//   insert S (null)
//   modes SELECT a FROM R WHERE a NOT IN (SELECT a FROM S)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "incdb.h"

using namespace incdb;

namespace {

NullId g_next_null = 0;

Result<Value> ParseValueToken(const std::string& tok) {
  if (tok.empty()) return Status::ParseError("empty value");
  if (EqualsIgnoreCase(tok, "null")) return Value::Null(g_next_null++);
  if (tok[0] == '_') {
    return Value::Null(static_cast<NullId>(std::stoul(tok.substr(1))));
  }
  if (tok.front() == '\'' && tok.back() == '\'' && tok.size() >= 2) {
    return Value::Str(tok.substr(1, tok.size() - 2));
  }
  try {
    size_t used = 0;
    const int64_t v = std::stoll(tok, &used);
    if (used == tok.size()) return Value::Int(v);
  } catch (...) {
  }
  return Status::ParseError("cannot parse value: " + tok);
}

// Splits "(a, b, 'c d')" into value tokens, respecting quotes.
Result<std::vector<std::string>> SplitTuple(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quote = false;
  int depth = 0;
  for (char c : s) {
    if (c == '\'') in_quote = !in_quote;
    if (!in_quote) {
      if (c == '(') {
        ++depth;
        if (depth == 1) continue;
      }
      if (c == ')') {
        --depth;
        if (depth == 0) continue;
      }
      if (c == ',' && depth == 1) {
        out.push_back(Trim(cur));
        cur.clear();
        continue;
      }
    }
    if (depth >= 1) cur += c;
  }
  if (in_quote || depth != 0) {
    return Status::ParseError("unbalanced tuple literal");
  }
  if (!Trim(cur).empty()) out.push_back(Trim(cur));
  return out;
}

void PrintRelation(const Relation& r) {
  std::printf("%s   (%zu row%s)\n", r.ToString().c_str(), r.size(),
              r.size() == 1 ? "" : "s");
}

bool g_stats = false;
int g_threads = 1;  // num_threads for every query; 1 = serial, 0 = auto
bool g_delta = true;  // differential world enumeration (EvalOptions::delta_eval)
Backend g_backend = Backend::kEnumeration;  // certain-enum/possible backend

// Runs one notion through the engine and prints the outcome under `label`.
// Returns true when the answer was printed (vs an error).
bool RunNotion(const QueryEngine& engine, QueryRequest req, const char* label,
               bool error_prefix = true) {
  auto r = engine.Run(std::move(req));
  if (r.ok()) {
    std::printf("  %s ", label);
    PrintRelation(r->relation);
    if (g_stats) std::printf("%s", r->stats.ToString().c_str());
    return true;
  }
  std::printf("  %s %s%s\n", label, error_prefix ? "error: " : "",
              r.status().ToString().c_str());
  return false;
}

// Prints the per-tuple probability table and the counting-layer counters
// of a kCertainWithProbability response.
void PrintProbabilities(const QueryResponse& resp) {
  for (const TupleProbability& p : resp.probabilities) {
    std::printf("    %-32s p=%.6f  [%.6f, %.6f]  %s\n",
                p.tuple.ToString().c_str(), p.probability, p.ci_low, p.ci_high,
                p.exact ? "exact" : "sampled");
  }
  std::printf(
      "  counting:      %llu world%s counted, %llu sample%s drawn, "
      "%llu exact hit%s\n",
      static_cast<unsigned long long>(resp.stats.worlds_counted()),
      resp.stats.worlds_counted() == 1 ? "" : "s",
      static_cast<unsigned long long>(resp.stats.samples_drawn()),
      resp.stats.samples_drawn() == 1 ? "" : "s",
      static_cast<unsigned long long>(resp.stats.exact_count_hits()),
      resp.stats.exact_count_hits() == 1 ? "" : "s");
}

QueryRequest SqlRequest(const std::string& sql, AnswerNotion notion) {
  QueryRequest req;
  req.input = QueryInput::SqlText(sql);
  req.notion = notion;
  req.backend = g_backend;
  req.eval.num_threads = g_threads;
  req.eval.delta_eval = g_delta;
  return req;
}

void RunQuery(const std::string& mode, const std::string& sql, Database* db) {
  const QueryEngine engine(*db);
  if (mode == "sql" || mode == "modes") {
    RunNotion(engine, SqlRequest(sql, AnswerNotion::k3VL), "[3VL]    ");
  }
  if (mode == "maybe" || mode == "modes") {
    RunNotion(engine, SqlRequest(sql, AnswerNotion::kMaybe), "[maybe]  ");
  }
  if (mode == "naive" || mode == "modes") {
    RunNotion(engine, SqlRequest(sql, AnswerNotion::kNaive), "[naive]  ");
  }
  if (mode == "certain" || mode == "modes") {
    RunNotion(engine, SqlRequest(sql, AnswerNotion::kCertainNaive),
              "[certain]", /*error_prefix=*/false);
  }
}

}  // namespace

int main() {
  Database db;
  std::printf("incdb shell — type 'help' for commands\n");
  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream iss(line);
    std::string cmd;
    iss >> cmd;
    cmd = ToLower(cmd);
    std::string rest;
    std::getline(iss, rest);
    rest = Trim(rest);

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      std::printf(
          "  create <t>(<c>,...)   declare relation\n"
          "  insert <t> (v, ...)   add tuple; null = fresh marked null\n"
          "  show                  print database\n"
          "  save <file> / load <file>   dump-format persistence\n"
          "  sql|maybe|naive|certain <SELECT ...>\n"
          "  modes <SELECT ...>    all three evaluations\n"
          "  ra <algebra expr>     classify + evaluate algebra\n"
          "  prob [<p>] <query>    per-tuple answer probabilities (uniform\n"
          "                        CWA measure); keeps tuples with\n"
          "                        probability >= p (default 1.0 = certain)\n"
          "  explain [naive|enum|prob] <query>   plans before/after\n"
          "                        optimization, answer, operator and\n"
          "                        delta-eval stats (enum = certain\n"
          "                        answers by enumeration, prob = answer\n"
          "                        probabilities); query is SQL when it\n"
          "                        starts with SELECT, algebra otherwise\n"
          "  stats on|off          per-operator counters after queries\n"
          "  threads <n>           worker threads (0 = auto, 1 = serial)\n"
          "  delta on|off          differential world enumeration\n"
          "  backend enum|ctable   how certain-enum/possible answers are\n"
          "                        computed: world enumeration, or natively\n"
          "                        on c-tables (bit-identical, no worlds)\n"
          "  quit\n");
      continue;
    }
    if (cmd == "show") {
      std::printf("%s", db.ToString().c_str());
      continue;
    }
    if (cmd == "save") {
      std::ofstream f(rest);
      if (!f) {
        std::printf("  cannot open %s\n", rest.c_str());
        continue;
      }
      f << DumpDatabase(db);
      std::printf("  saved %zu tuples to %s\n", db.TupleCount(),
                  rest.c_str());
      continue;
    }
    if (cmd == "load") {
      std::ifstream f(rest);
      if (!f) {
        std::printf("  cannot open %s\n", rest.c_str());
        continue;
      }
      std::stringstream buf;
      buf << f.rdbuf();
      auto loaded = LoadDatabase(buf.str());
      if (!loaded.ok()) {
        std::printf("  %s\n", loaded.status().ToString().c_str());
        continue;
      }
      db = *loaded;
      std::printf("  loaded %zu tuples from %s\n", db.TupleCount(),
                  rest.c_str());
      continue;
    }
    if (cmd == "create") {
      const size_t paren = rest.find('(');
      if (paren == std::string::npos) {
        std::printf("  usage: create name(col, ...)\n");
        continue;
      }
      const std::string name = Trim(rest.substr(0, paren));
      auto cols = SplitTuple(rest.substr(paren));
      if (!cols.ok()) {
        std::printf("  %s\n", cols.status().ToString().c_str());
        continue;
      }
      Status st = db.mutable_schema()->AddRelation(name, *cols);
      std::printf("  %s\n", st.ok() ? "ok" : st.ToString().c_str());
      continue;
    }
    if (cmd == "insert") {
      std::istringstream rs(rest);
      std::string table;
      rs >> table;
      std::string tup;
      std::getline(rs, tup);
      auto toks = SplitTuple(Trim(tup));
      if (!toks.ok()) {
        std::printf("  %s\n", toks.status().ToString().c_str());
        continue;
      }
      std::vector<Value> vals;
      bool ok = true;
      for (const std::string& tok : *toks) {
        auto v = ParseValueToken(tok);
        if (!v.ok()) {
          std::printf("  %s\n", v.status().ToString().c_str());
          ok = false;
          break;
        }
        vals.push_back(*v);
      }
      if (!ok) continue;
      if (db.schema().HasRelation(table) &&
          *db.schema().Arity(table) != vals.size()) {
        std::printf("  arity mismatch for %s\n", table.c_str());
        continue;
      }
      db.AddTuple(table, Tuple(std::move(vals)));
      std::printf("  ok\n");
      continue;
    }
    if (cmd == "sql" || cmd == "naive" || cmd == "certain" || cmd == "modes" ||
        cmd == "maybe") {
      RunQuery(cmd, rest, &db);
      continue;
    }
    if (cmd == "stats") {
      g_stats = EqualsIgnoreCase(rest, "on");
      std::printf("  stats %s\n", g_stats ? "on" : "off");
      continue;
    }
    if (cmd == "delta") {
      g_delta = EqualsIgnoreCase(rest, "on");
      std::printf("  delta %s\n", g_delta ? "on" : "off");
      continue;
    }
    if (cmd == "backend") {
      if (EqualsIgnoreCase(rest, "ctable")) {
        g_backend = Backend::kCTable;
      } else if (EqualsIgnoreCase(rest, "enum") ||
                 EqualsIgnoreCase(rest, "enumeration")) {
        g_backend = Backend::kEnumeration;
      } else {
        std::printf("  usage: backend enum|ctable\n");
        continue;
      }
      std::printf("  backend %s\n", BackendName(g_backend));
      continue;
    }
    if (cmd == "threads") {
      int n = 0;
      if (std::sscanf(rest.c_str(), "%d", &n) != 1 || n < 0) {
        std::printf("  usage: threads <n>   (0 = hardware concurrency)\n");
        continue;
      }
      g_threads = n;
      std::printf("  threads %d (%d worker%s)\n", n, ResolveNumThreads(n),
                  ResolveNumThreads(n) == 1 ? "" : "s");
      continue;
    }
    if (cmd == "prob") {
      std::istringstream rs(rest);
      std::string first;
      rs >> first;
      ProbabilisticOptions popts;
      std::string query = rest;
      char* end = nullptr;
      const double p = std::strtod(first.c_str(), &end);
      if (!first.empty() && end != nullptr && *end == '\0') {
        popts.threshold = p;
        std::getline(rs, query);
        query = Trim(query);
      }
      if (query.empty()) {
        std::printf("  usage: prob [<threshold>] <SELECT ...|algebra>\n");
        continue;
      }
      const QueryEngine engine(db);
      QueryRequest req;
      req.input = EqualsIgnoreCase(query.substr(0, 6), "select")
                      ? QueryInput::SqlText(query)
                      : QueryInput::RaText(query);
      req.notion = AnswerNotion::kCertainWithProbability;
      req.backend = g_backend;
      req.probability = popts;
      req.eval.num_threads = g_threads;
      req.eval.delta_eval = g_delta;
      auto resp = engine.Run(req);
      if (!resp.ok()) {
        std::printf("  %s\n", resp.status().ToString().c_str());
        continue;
      }
      std::printf("  [prob >= %.4g] ", popts.threshold);
      PrintRelation(resp->relation);
      PrintProbabilities(*resp);
      if (g_stats) std::printf("%s", resp->stats.ToString().c_str());
      continue;
    }
    if (cmd == "explain") {
      std::istringstream rs(rest);
      std::string first;
      rs >> first;
      AnswerNotion notion = AnswerNotion::kNaive;
      std::string query = rest;
      if (EqualsIgnoreCase(first, "enum") || EqualsIgnoreCase(first, "naive") ||
          EqualsIgnoreCase(first, "prob")) {
        if (EqualsIgnoreCase(first, "enum")) {
          notion = AnswerNotion::kCertainEnum;
        } else if (EqualsIgnoreCase(first, "prob")) {
          notion = AnswerNotion::kCertainWithProbability;
        }
        std::getline(rs, query);
        query = Trim(query);
      }
      if (query.empty()) {
        std::printf(
            "  usage: explain [naive|enum|prob] <SELECT ...|algebra>\n");
        continue;
      }
      const QueryEngine engine(db);
      QueryRequest req;
      if (EqualsIgnoreCase(query.substr(0, 6), "select")) {
        req.input = QueryInput::SqlText(query);
      } else {
        req.input = QueryInput::RaText(query);
      }
      req.notion = notion;
      req.backend = g_backend;
      req.eval.num_threads = g_threads;
      req.eval.delta_eval = g_delta;
      auto resp = engine.Run(req);
      if (!resp.ok()) {
        std::printf("  %s\n", resp.status().ToString().c_str());
        continue;
      }
      if (resp->fragment.has_value()) {
        std::printf("  class:     %s\n", QueryClassName(*resp->fragment));
      }
      if (resp->plan != nullptr) {
        std::printf("  plan:      %s\n", resp->plan->ToString().c_str());
      }
      if (resp->optimized_plan != nullptr) {
        std::printf("  optimized: %s\n",
                    resp->optimized_plan->ToString().c_str());
      } else {
        std::printf("  optimized: (query ran through the SQL evaluator)\n");
      }
      std::printf("  [%s] ", AnswerNotionName(notion));
      PrintRelation(resp->relation);
      std::printf("%s", resp->stats.ToString().c_str());
      if (notion == AnswerNotion::kCertainWithProbability) {
        PrintProbabilities(*resp);
      }
      if (notion == AnswerNotion::kCertainEnum &&
          resp->backend == Backend::kCTable) {
        std::printf(
            "  backend:       ctable (%llu condition%s simplified, %llu "
            "pruned unsat)\n",
            static_cast<unsigned long long>(resp->stats.cond_simplified()),
            resp->stats.cond_simplified() == 1 ? "" : "s",
            static_cast<unsigned long long>(resp->stats.unsat_pruned()));
      } else if (notion == AnswerNotion::kCertainEnum) {
        std::printf(
            "  delta eval:    %llu world%s applied / %llu fallback%s\n",
            static_cast<unsigned long long>(resp->stats.delta_applied()),
            resp->stats.delta_applied() == 1 ? "" : "s",
            static_cast<unsigned long long>(resp->stats.delta_fallbacks()),
            resp->stats.delta_fallbacks() == 1 ? "" : "s");
        std::printf(
            "  vectorized:    %llu batch%s / %llu row%s\n",
            static_cast<unsigned long long>(resp->stats.batches_processed()),
            resp->stats.batches_processed() == 1 ? "" : "es",
            static_cast<unsigned long long>(resp->stats.rows_vectorized()),
            resp->stats.rows_vectorized() == 1 ? "" : "s");
      }
      continue;
    }
    if (cmd == "ra") {
      const QueryEngine engine(db);
      QueryRequest naive_req;
      naive_req.input = QueryInput::RaText(rest);
      naive_req.notion = AnswerNotion::kNaive;
      naive_req.eval.num_threads = g_threads;
      auto naive = engine.Run(naive_req);
      if (!naive.ok()) {
        std::printf("  %s\n", naive.status().ToString().c_str());
        continue;
      }
      if (naive->fragment.has_value()) {
        std::printf("  class: %s\n", QueryClassName(*naive->fragment));
      }
      std::printf("  [naive]   ");
      PrintRelation(naive->relation);
      if (g_stats) std::printf("%s", naive->stats.ToString().c_str());
      for (auto sem :
           {WorldSemantics::kOpenWorld, WorldSemantics::kClosedWorld}) {
        QueryRequest req;
        req.input = QueryInput::RaText(rest);
        req.notion = AnswerNotion::kCertainNaive;
        req.semantics = sem;
        req.eval.num_threads = g_threads;
        auto certain = engine.Run(req);
        if (certain.ok()) {
          std::printf("  [certain/%s] ", WorldSemanticsName(sem));
          PrintRelation(certain->relation);
        } else {
          std::printf("  [certain/%s] %s\n", WorldSemanticsName(sem),
                      certain.status().ToString().c_str());
        }
      }
      continue;
    }
    std::printf("  unknown command '%s' (try 'help')\n", cmd.c_str());
  }
  return 0;
}
