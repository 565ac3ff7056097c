// fuzz_incdb — differential fuzzing harness for the incdb evaluators.
//
// Generates random incomplete databases and random RA plans, cross-checks
// every evaluator configuration through the DifferentialOracle, shrinks any
// failing case, and writes it as a replayable .inc corpus file.
//
//   fuzz_incdb --seed=1 --iterations=500                # bounded run
//   fuzz_incdb --time_budget_s=600 --corpus_dir=corpus  # nightly soak
//   fuzz_incdb --replay=tests/corpus                    # re-check corpus
//   fuzz_incdb --fragment=positive --iterations=200     # one fragment only
//
// Exit status: 0 = no violations, 1 = violations found, 2 = bad usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "incdb.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: fuzz_incdb [options]\n"
               "  --seed=N            PRNG seed (default 1)\n"
               "  --iterations=N      iteration budget (default 500; 0 = "
               "unbounded, needs --time_budget_s)\n"
               "  --time_budget_s=S   wall-clock budget in seconds (default "
               "off)\n"
               "  --fragment=F        positive | racwa | full (repeatable; "
               "default: all)\n"
               "  --max_worlds=N      skip cases with more CWA worlds "
               "(default 20000)\n"
               "  --threads=N         threads for parallel configs (default "
               "4)\n"
               "  --corpus_dir=DIR    write shrunk failing cases here\n"
               "  --replay=DIR        replay *.inc corpus instead of "
               "fuzzing\n"
               "  --no_shrink         report failures unshrunk\n"
               "  --no_ctable_backend skip the c-table-native certain/"
               "possible backend cross-check\n"
               "  --no_service        skip the IncDbService session "
               "cross-check\n"
               "  --no_check_sampling skip the probabilistic-notion "
               "cross-check\n"
               "  --samples=N         Monte-Carlo samples per sampling "
               "cross-check (default 1000)\n");
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

void PrintSummary(const incdb::FuzzSummary& summary) {
  std::printf("cases run:      %llu\n",
              static_cast<unsigned long long>(summary.iterations_run));
  std::printf("cases skipped:  %llu (world budget)\n",
              static_cast<unsigned long long>(summary.cases_skipped));
  std::printf("checks skipped: %llu\n",
              static_cast<unsigned long long>(summary.checks_skipped));
  std::printf("failures:       %zu\n", summary.failures.size());
  for (const incdb::FuzzFailure& f : summary.failures) {
    std::printf("\n== failure at iteration %llu ==\n",
                static_cast<unsigned long long>(f.iteration));
    if (!f.corpus_path.empty()) {
      std::printf("corpus: %s\n", f.corpus_path.c_str());
    }
    for (const std::string& v : f.violations) {
      std::printf("  violation: %s\n", v.c_str());
    }
    if (f.shrunk.plan != nullptr) {
      std::printf("  query: %s\n", f.shrunk.plan->ToString().c_str());
      std::printf("%s", incdb::DumpDatabase(f.shrunk.db).c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  incdb::FuzzConfig config;
  std::string replay_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--seed=")) {
      if (!ParseUint(v, &config.seed)) return Usage(), 2;
    } else if (const char* v = value("--iterations=")) {
      if (!ParseUint(v, &config.iterations)) return Usage(), 2;
    } else if (const char* v = value("--time_budget_s=")) {
      config.time_budget_s = std::atof(v);
    } else if (const char* v = value("--fragment=")) {
      const std::string f = incdb::ToLower(v);
      if (f == "positive" || f == "ucq") {
        config.fragments.push_back(incdb::QueryClass::kPositive);
      } else if (f == "racwa" || f == "pos_forall_g") {
        config.fragments.push_back(incdb::QueryClass::kRAcwa);
      } else if (f == "full" || f == "fullra") {
        config.fragments.push_back(incdb::QueryClass::kFullRA);
      } else {
        std::fprintf(stderr, "unknown fragment: %s\n", v);
        return Usage(), 2;
      }
    } else if (const char* v = value("--max_worlds=")) {
      if (!ParseUint(v, &config.oracle.max_worlds_per_case)) {
        return Usage(), 2;
      }
    } else if (const char* v = value("--threads=")) {
      config.oracle.num_threads = std::atoi(v);
    } else if (const char* v = value("--corpus_dir=")) {
      config.corpus_dir = v;
    } else if (const char* v = value("--replay=")) {
      replay_dir = v;
    } else if (arg == "--no_shrink") {
      config.shrink = false;
    } else if (arg == "--no_ctable_backend") {
      config.oracle.check_ctable_backend = false;
    } else if (arg == "--no_service") {
      config.oracle.check_service = false;
    } else if (arg == "--no_check_sampling") {
      config.oracle.check_sampling = false;
    } else if (const char* v = value("--samples=")) {
      if (!ParseUint(v, &config.oracle.sampling_samples)) return Usage(), 2;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(), 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return Usage(), 2;
    }
  }

  if (!replay_dir.empty()) {
    if (incdb::ListCorpusFiles(replay_dir).empty()) {
      std::fprintf(stderr, "no .inc files under %s\n", replay_dir.c_str());
      return 2;
    }
    std::printf("replaying corpus %s\n", replay_dir.c_str());
    const incdb::FuzzSummary summary =
        incdb::ReplayCorpus(replay_dir, config.oracle);
    PrintSummary(summary);
    return summary.ok() ? 0 : 1;
  }

  if (config.iterations == 0 && config.time_budget_s <= 0) {
    std::fprintf(stderr, "need --iterations or --time_budget_s\n");
    return Usage(), 2;
  }

  std::printf("fuzzing: seed=%llu iterations=%llu time_budget_s=%.0f\n",
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(config.iterations),
              config.time_budget_s);
  const incdb::FuzzSummary summary = incdb::RunFuzz(config);
  PrintSummary(summary);
  return summary.ok() ? 0 : 1;
}
