// count_worlds — per-tuple answer probabilities from the command line.
//
// Loads a database dump (core/io format), answers a query under the
// kCertainWithProbability notion, and prints the probability table: one row
// per tuple with non-zero observed probability, its probability, the Wilson
// confidence interval, and whether the value is an exact world count or a
// Monte-Carlo estimate, followed by the counting-layer counters.
//
//   count_worlds --db=orders.inc --query='Order - PaidOrder'
//   count_worlds --demo --sql='SELECT o_id FROM Order' --backend=ctable
//   count_worlds --demo --samples=100000 --seed=7 --threshold=0.9
//
// Exit status: 0 = answered, 1 = evaluation error, 2 = bad usage.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "incdb.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: count_worlds [options]\n"
      "  --db=FILE            database dump (core/io format)\n"
      "  --demo               use the built-in orders/payments workload\n"
      "  --query=RA           relational algebra query text\n"
      "  --sql=SQL            SQL query text (alternative to --query)\n"
      "  --backend=B          enum | ctable (default ctable)\n"
      "  --threshold=P        answer threshold (default 1.0)\n"
      "  --samples=N          Monte-Carlo samples (default 10000)\n"
      "  --seed=N             sampling seed (default 1)\n"
      "  --threads=N          evaluation and sampling threads (0 = auto)\n"
      "  --max_exact_worlds=N exact-enumeration gate (default 100000)\n"
      "  --force_sampling     skip the exact paths\n");
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  bool demo = false;
  std::string ra_text;
  std::string sql_text;
  incdb::Backend backend = incdb::Backend::kCTable;
  incdb::ProbabilisticOptions popts;
  incdb::EvalOptions eval;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--db=")) {
      db_path = v;
    } else if (arg == "--demo") {
      demo = true;
    } else if (const char* v = value("--query=")) {
      ra_text = v;
    } else if (const char* v = value("--sql=")) {
      sql_text = v;
    } else if (const char* v = value("--backend=")) {
      const std::string b = incdb::ToLower(v);
      if (b == "enum" || b == "enumeration") {
        backend = incdb::Backend::kEnumeration;
      } else if (b == "ctable") {
        backend = incdb::Backend::kCTable;
      } else {
        std::fprintf(stderr, "unknown backend: %s\n", v);
        return Usage(), 2;
      }
    } else if (const char* v = value("--threshold=")) {
      popts.threshold = std::atof(v);
    } else if (const char* v = value("--samples=")) {
      if (!ParseUint(v, &popts.sampling.samples)) return Usage(), 2;
    } else if (const char* v = value("--seed=")) {
      if (!ParseUint(v, &popts.sampling.seed)) return Usage(), 2;
    } else if (const char* v = value("--threads=")) {
      eval.num_threads = std::atoi(v);
    } else if (const char* v = value("--max_exact_worlds=")) {
      if (!ParseUint(v, &popts.max_exact_worlds)) return Usage(), 2;
    } else if (arg == "--force_sampling") {
      popts.force_sampling = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(), 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return Usage(), 2;
    }
  }

  if (demo != db_path.empty()) {
    std::fprintf(stderr, "need exactly one of --db / --demo\n");
    return Usage(), 2;
  }
  if (ra_text.empty() == sql_text.empty()) {
    std::fprintf(stderr, "need exactly one of --query / --sql\n");
    return Usage(), 2;
  }

  incdb::Database db;
  if (demo) {
    incdb::OrdersPaymentsConfig config;
    config.n_orders = 40;
    config.null_density = 0.3;
    db = incdb::MakeOrdersPayments(config).db;
  } else {
    std::ifstream in(db_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", db_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    incdb::Result<incdb::Database> loaded =
        incdb::LoadDatabase(text.str());
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s: %s\n", db_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    db = *std::move(loaded);
  }

  incdb::QueryEngine engine(db);
  const incdb::QueryRequest request =
      incdb::QueryRequestBuilder(
          ra_text.empty() ? incdb::QueryInput::SqlText(sql_text)
                          : incdb::QueryInput::RaText(ra_text))
          .Notion(incdb::AnswerNotion::kCertainWithProbability)
          .OnBackend(backend)
          .Probability(popts)
          .Eval(eval)
          .Build();

  const auto start = std::chrono::steady_clock::now();
  incdb::Result<incdb::QueryResponse> resp = engine.Run(request);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!resp.ok()) {
    std::fprintf(stderr, "error: %s\n", resp.status().ToString().c_str());
    return 1;
  }

  // The space the drivers counted: D's worlds, the query's constants in
  // the domain.
  const incdb::WorldEnumOptions wopts =
      incdb::WithQueryConstants(resp->plan, incdb::WorldEnumOptions{});
  std::printf("nulls: %zu   domain: %zu   worlds: ", db.Nulls().size(),
              incdb::WorldDomain(db, wopts).size());
  const uint64_t worlds = incdb::CountWorldsCwa(db, wopts);
  if (worlds == UINT64_MAX) {
    std::printf(">= 2^64\n");
  } else {
    std::printf("%llu\n", static_cast<unsigned long long>(worlds));
  }

  std::printf("backend: %s   threshold: %.4g   time: %.3fs\n",
              incdb::BackendName(resp->backend), popts.threshold, secs);
  std::printf("%-40s %-12s %-22s %s\n", "tuple", "probability", "95% CI",
              "mode");
  for (const incdb::TupleProbability& p : resp->probabilities) {
    std::printf("%-40s %-12.6f [%.6f, %.6f]    %s\n",
                p.tuple.ToString().c_str(), p.probability, p.ci_low, p.ci_high,
                p.exact ? "exact" : "sampled");
  }
  std::printf("answer tuples (p >= %.4g): %zu\n", popts.threshold,
              resp->relation.size());
  std::printf(
      "worlds_counted: %llu   samples_drawn: %llu   exact_count_hits: %llu\n",
      static_cast<unsigned long long>(resp->stats.worlds_counted()),
      static_cast<unsigned long long>(resp->stats.samples_drawn()),
      static_cast<unsigned long long>(resp->stats.exact_count_hits()));
  return 0;
}
