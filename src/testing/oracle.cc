#include "testing/oracle.h"

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/certain.h"
#include "algebra/classify.h"
#include "algebra/eval.h"
#include "algebra/eval_3vl.h"
#include "core/possible_worlds.h"
#include "counting/probabilistic.h"
#include "ctables/ctable.h"
#include "ctables/ctable_algebra.h"
#include "engine/query_engine.h"
#include "service/service.h"

namespace incdb {
namespace {

// One evaluator configuration in the cross-check matrix.
struct Config {
  std::string label;
  bool hash;
  bool optimize;
  bool cache;
  bool delta;
  int threads;  // 0 = use OracleOptions::num_threads
};

// The reference (index 0) is the nested-loop serial evaluator with every
// acceleration layer off; everything else runs the columnar engine and must
// match it bit for bit.
const std::vector<Config>& ConfigMatrix() {
  static const std::vector<Config> kConfigs = [] {
    std::vector<Config> out;
    out.push_back(
        {"reference(nested-loop,serial)", false, false, false, false, 1});
    for (int opt = 0; opt <= 1; ++opt) {
      for (int cache = 0; cache <= 1; ++cache) {
        for (int delta = 0; delta <= 1; ++delta) {
          out.push_back({"opt=" + std::to_string(opt) +
                             ",cache=" + std::to_string(cache) +
                             ",delta=" + std::to_string(delta) + ",serial",
                         true, opt != 0, cache != 0, delta != 0, 1});
        }
      }
    }
    out.push_back({"opt=1,cache=1,delta=1,parallel", true, true, true, true,
                   0});
    out.push_back({"opt=0,cache=0,delta=0,parallel", true, false, false,
                   false, 0});
    return out;
  }();
  return kConfigs;
}

EvalOptions MakeEvalOptions(const Config& c, int num_threads) {
  EvalOptions o;
  o.use_hash_kernels = c.hash;
  o.optimize = c.optimize;
  o.cache_subplans = c.cache;
  o.delta_eval = c.delta;
  o.num_threads = c.threads == 0 ? num_threads : c.threads;
  // Force the chunked parallel loops onto small inputs.
  o.parallel_row_threshold = 2;
  return o;
}

std::string Truncate(std::string s) {
  constexpr size_t kMax = 400;
  if (s.size() > kMax) s = s.substr(0, kMax) + "...";
  return s;
}

std::string DescribeSides(const Relation& want, const Relation& got) {
  return "reference=" + Truncate(want.ToString()) +
         " got=" + Truncate(got.ToString());
}

// Computes `driver` across the whole config matrix and reports any mismatch
// against the reference. Returns the reference answer when it exists.
template <typename Driver>
std::optional<Relation> CrossCheck(const std::string& what, Driver&& driver,
                                   const OracleOptions& options,
                                   OracleReport* report) {
  std::optional<Relation> reference;
  Status ref_status = Status::OK();
  int fault_countdown = options.inject_fault;
  const auto& matrix = ConfigMatrix();
  for (size_t i = 0; i < matrix.size(); ++i) {
    const Config& c = matrix[i];
    Result<Relation> r = driver(MakeEvalOptions(c, options.num_threads));
    ++report->configs_run;
    if (i == 0) {
      if (r.ok()) {
        reference = std::move(r).value();
      } else {
        ref_status = r.status();
        if (ref_status.code() == StatusCode::kUnsupported ||
            ref_status.code() == StatusCode::kResourceExhausted) {
          report->skipped.push_back(what + ": " + ref_status.ToString());
          return std::nullopt;
        }
      }
      continue;
    }
    if (!reference.has_value()) {
      // The reference errored; every configuration must agree on the code.
      if (r.ok() || r.status().code() != ref_status.code()) {
        report->violations.push_back(
            what + " [" + c.label + "]: reference failed with '" +
            ref_status.ToString() + "' but this config " +
            (r.ok() ? "succeeded" : "failed with '" + r.status().ToString() +
                                        "'"));
      }
      continue;
    }
    if (!r.ok()) {
      report->violations.push_back(what + " [" + c.label +
                                   "]: " + r.status().ToString() +
                                   " (reference succeeded)");
      continue;
    }
    Relation got = std::move(r).value();
    if (--fault_countdown == 0) {
      // Test hook: corrupt this configuration's answer.
      std::vector<Value> bogus(got.arity(), Value::Int(987654321));
      got.Add(Tuple(std::move(bogus)));
    }
    if (got != *reference) {
      report->violations.push_back(what + " [" + c.label + "] differs: " +
                                   DescribeSides(*reference, got));
    }
  }
  return reference;
}

}  // namespace

OracleReport CheckCase(const RAExprPtr& plan, const Database& db,
                       const OracleOptions& options) {
  OracleReport report;
  WorldEnumOptions world_opts;
  world_opts.max_worlds = options.max_worlds_per_case + 1;
  if (CountWorldsCwa(db, world_opts) > options.max_worlds_per_case) {
    report.skipped.push_back("case: world space exceeds max_worlds_per_case");
    return report;
  }
  const QueryClass cls = Classify(plan);

  // --- Certain answers under CWA: full matrix vs reference. ---
  std::optional<Relation> certain_cwa = CrossCheck(
      "certain/cwa",
      [&](const EvalOptions& eval) {
        return CertainAnswersEnum(plan, db, WorldSemantics::kClosedWorld,
                                  world_opts, eval);
      },
      options, &report);

  // --- Possible answers: full matrix vs reference. ---
  std::optional<Relation> possible = CrossCheck(
      "possible",
      [&](const EvalOptions& eval) {
        return PossibleAnswersEnum(plan, db, world_opts, eval);
      },
      options, &report);

  // --- certain ⊆ possible. ---
  if (certain_cwa && possible && !certain_cwa->empty() &&
      !certain_cwa->IsSubsetOf(*possible)) {
    report.violations.push_back("certain/cwa ⊄ possible: " +
                                DescribeSides(*possible, *certain_cwa));
  }

  // --- Equation (4): naïve evaluation inside its guaranteed fragment. ---
  if (certain_cwa &&
      NaiveEvaluationWorks(plan, WorldSemantics::kClosedWorld)) {
    Result<Relation> naive = CertainAnswersNaive(
        plan, db, WorldSemantics::kClosedWorld, /*force=*/false, {});
    if (!naive.ok()) {
      report.violations.push_back(
          "certain-naive/cwa refused inside its fragment: " +
          naive.status().ToString());
    } else if (*naive != *certain_cwa) {
      report.violations.push_back(std::string("certain-naive/cwa != ") +
                                  "certain-enum/cwa (" + QueryClassName(cls) +
                                  "): " + DescribeSides(*certain_cwa, *naive));
    }
  }

  // --- OWA: for positive plans the enum and naïve notions must agree. ---
  if (options.check_owa && cls == QueryClass::kPositive) {
    Result<Relation> owa_enum = CertainAnswersEnum(
        plan, db, WorldSemantics::kOpenWorld, world_opts, {});
    Result<Relation> owa_naive = CertainAnswersNaive(
        plan, db, WorldSemantics::kOpenWorld, /*force=*/false, {});
    if (owa_enum.ok() && owa_naive.ok()) {
      if (*owa_enum != *owa_naive) {
        report.violations.push_back("certain-naive/owa != certain-enum/owa: " +
                                    DescribeSides(*owa_enum, *owa_naive));
      }
    } else if (owa_enum.ok() != owa_naive.ok()) {
      report.violations.push_back(
          "certain/owa: one notion refused the positive plan: enum=" +
          owa_enum.status().ToString() +
          " naive=" + owa_naive.status().ToString());
    }
  }

  // --- Facade faithfulness: QueryEngine must match the direct driver. ---
  if (certain_cwa) {
    QueryEngine engine(db);
    QueryRequest req;
    req.input = QueryInput::Ra(plan);
    req.notion = AnswerNotion::kCertainEnum;
    req.semantics = WorldSemantics::kClosedWorld;
    req.world_options = world_opts;
    Result<QueryResponse> resp = engine.Run(req);
    if (!resp.ok()) {
      report.violations.push_back("QueryEngine(kCertainEnum) failed: " +
                                  resp.status().ToString());
    } else if (resp->relation != *certain_cwa) {
      report.violations.push_back("QueryEngine(kCertainEnum) differs: " +
                                  DescribeSides(*certain_cwa,
                                                resp->relation));
    }
  }

  // --- Service path: a shared IncDbService session must agree with the
  // direct drivers — on the cold run, and again from the plan cache (the
  // repeated identical request must be served as a hit). ---
  if (options.check_service && (certain_cwa || possible)) {
    IncDbService service{Database(db)};
    Session session = service.OpenSession();
    auto check_service = [&](const char* what, AnswerNotion notion,
                             const std::optional<Relation>& reference) {
      if (!reference) return;
      QueryRequest req;
      req.input = QueryInput::Ra(plan);
      req.notion = notion;
      req.semantics = WorldSemantics::kClosedWorld;
      req.world_options = world_opts;
      req.eval.num_threads = options.num_threads;
      for (const bool expect_hit : {false, true}) {
        Result<ServiceResponse> resp = session.Run(req);
        ++report.configs_run;
        if (!resp.ok()) {
          report.violations.push_back(std::string("service(") + what +
                                      ") failed: " +
                                      resp.status().ToString());
          return;
        }
        if (resp->cache_hit != expect_hit) {
          report.violations.push_back(
              std::string("service(") + what +
              (expect_hit ? "): repeated query missed the plan cache"
                          : "): cold query reported a cache hit"));
        }
        if (resp->response.relation != *reference) {
          report.violations.push_back(
              std::string("service(") + what +
              (expect_hit ? ", cached)" : ", cold)") + " differs: " +
              DescribeSides(*reference, resp->response.relation));
          return;
        }
      }
    };
    check_service("kCertainEnum", AnswerNotion::kCertainEnum, certain_cwa);
    check_service("kPossible", AnswerNotion::kPossible, possible);
  }

  // --- C-table-native backend: must be bit-identical to enumeration. ---
  if (options.check_ctable_backend) {
    auto check_backend = [&](const char* what,
                             const std::optional<Relation>& reference,
                             Result<Relation> native, AnswerNotion notion) {
      ++report.configs_run;
      if (!reference.has_value()) return;
      if (!native.ok()) {
        if (native.status().code() == StatusCode::kUnsupported) {
          report.skipped.push_back(std::string(what) + ": " +
                                    native.status().ToString());
        } else {
          report.violations.push_back(std::string(what) + ": " +
                                       native.status().ToString() +
                                       " (enumeration succeeded)");
        }
        return;
      }
      if (*native != *reference) {
        report.violations.push_back(std::string(what) + " differs: " +
                                     DescribeSides(*reference, *native));
        return;
      }
      // The engine facade on Backend::kCTable must agree too.
      QueryEngine engine(db);
      QueryRequest req;
      req.input = QueryInput::Ra(plan);
      req.backend = Backend::kCTable;
      req.notion = notion;
      req.semantics = WorldSemantics::kClosedWorld;
      req.world_options = world_opts;
      Result<QueryResponse> resp = engine.Run(req);
      if (!resp.ok()) {
        report.violations.push_back(std::string("QueryEngine(") + what +
                                     ") failed: " + resp.status().ToString());
      } else if (resp->relation != *reference) {
        report.violations.push_back(std::string("QueryEngine(") + what +
                                     ") differs: " +
                                     DescribeSides(*reference, resp->relation));
      }
    };
    check_backend("ctable-backend/certain", certain_cwa,
                  CertainAnswersCTable(plan, db, WorldSemantics::kClosedWorld,
                                       world_opts),
                  AnswerNotion::kCertainEnum);
    check_backend("ctable-backend/possible", possible,
                  PossibleAnswersCTable(plan, db, world_opts),
                  AnswerNotion::kPossible);
  }

  // --- Probabilistic notion: counts, samples, and backends must agree. ---
  if (options.check_sampling && certain_cwa && possible) {
    auto same_set = [](const Relation& a, const Relation& b) {
      return a.IsSubsetOf(b) && b.IsSubsetOf(a);
    };
    auto describe_table = [](const std::vector<TupleProbability>& tab) {
      std::string s = "{";
      for (const TupleProbability& p : tab) {
        s += p.tuple.ToString() + ":" + std::to_string(p.probability) + " ";
      }
      return Truncate(s + "}");
    };
    // Sound in both modes: reported tuples are possible, certain tuples
    // carry probability exactly 1 (a certain tuple is in every world, so
    // even a sampled tally hits on every admitted sample), and the
    // threshold-1.0 relation therefore covers the certain answers. When
    // every row is exact the description is complete: reported == possible,
    // probability-1 set == certain, relation == certain.
    auto check_table = [&](const std::string& what, const Relation& rel,
                           const std::vector<TupleProbability>& tab) {
      Relation reported(possible->arity());
      Relation prob_one(possible->arity());
      bool all_exact = true;
      for (const TupleProbability& p : tab) {
        reported.Add(p.tuple);
        all_exact = all_exact && p.exact;
        if (p.probability == 1.0) prob_one.Add(p.tuple);
        // The Wilson interval contains the point estimate; allow FP slack
        // at the p = 1 boundary where the bound computes to 1 ± rounding.
        if (p.probability <= 0.0 || p.probability > 1.0 ||
            p.ci_low > p.probability + 1e-12 ||
            p.probability > p.ci_high + 1e-12) {
          report.violations.push_back(
              what + ": malformed probability row for " + p.tuple.ToString());
        }
      }
      if (!reported.IsSubsetOf(*possible)) {
        report.violations.push_back(what + ": reported tuples ⊄ possible: " +
                                    DescribeSides(*possible, reported));
      }
      if (!certain_cwa->IsSubsetOf(prob_one)) {
        report.violations.push_back(
            what + ": a certain tuple lacks probability 1: certain=" +
            Truncate(certain_cwa->ToString()) + " table=" +
            describe_table(tab));
      }
      if (!certain_cwa->IsSubsetOf(rel)) {
        report.violations.push_back(what +
                                    ": threshold-1.0 answer misses certain "
                                    "tuples: " +
                                    DescribeSides(*certain_cwa, rel));
      }
      if (all_exact) {
        if (!same_set(reported, *possible)) {
          report.violations.push_back(what + ": exact table != possible: " +
                                      DescribeSides(*possible, reported));
        }
        if (!same_set(prob_one, *certain_cwa)) {
          report.violations.push_back(
              what + ": exact probability-1 set != certain: " +
              DescribeSides(*certain_cwa, prob_one));
        }
        if (!same_set(rel, *certain_cwa)) {
          report.violations.push_back(
              what + ": exact threshold-1.0 answer != certain: " +
              DescribeSides(*certain_cwa, rel));
        }
      }
    };
    // Runs one driver configuration; kUnsupported / kResourceExhausted are
    // legitimate refusals (condition language, counting budget), anything
    // else is a violation because the enumeration reference succeeded.
    auto run_prob =
        [&](const std::string& what, bool ctable,
            const ProbabilisticOptions& popts,
            std::vector<TupleProbability>* tab) -> std::optional<Relation> {
      ++report.configs_run;
      Result<Relation> r =
          ctable ? CertainAnswersWithProbabilityCTable(
                       plan, db, WorldSemantics::kClosedWorld, popts,
                       world_opts, {}, tab)
                 : CertainAnswersWithProbabilityEnum(
                       plan, db, WorldSemantics::kClosedWorld, popts,
                       world_opts, {}, tab);
      if (r.ok()) return std::move(r).value();
      if (r.status().code() == StatusCode::kUnsupported ||
          r.status().code() == StatusCode::kResourceExhausted) {
        report.skipped.push_back(what + ": " + r.status().ToString());
      } else {
        report.violations.push_back(what + ": " + r.status().ToString() +
                                    " (enumeration succeeded)");
      }
      return std::nullopt;
    };
    auto tables_equal = [](const std::vector<TupleProbability>& a,
                           const std::vector<TupleProbability>& b) {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].tuple == b[i].tuple) ||
            a[i].probability != b[i].probability ||
            a[i].ci_low != b[i].ci_low || a[i].ci_high != b[i].ci_high ||
            a[i].exact != b[i].exact) {
          return false;
        }
      }
      return true;
    };

    ProbabilisticOptions popts;
    popts.sampling.samples = options.sampling_samples;

    // Exact mode, both backends. Exact probabilities are the same rational
    // count/total on both sides, computed by different factorings — agree
    // up to FP rounding.
    std::vector<TupleProbability> exact_enum;
    std::optional<Relation> exact_enum_rel =
        run_prob("probability/exact-enum", /*ctable=*/false, popts,
                 &exact_enum);
    if (exact_enum_rel) {
      check_table("probability/exact-enum", *exact_enum_rel, exact_enum);
    }
    std::vector<TupleProbability> exact_ct;
    std::optional<Relation> exact_ct_rel =
        run_prob("probability/exact-ctable", /*ctable=*/true, popts,
                 &exact_ct);
    if (exact_ct_rel) {
      check_table("probability/exact-ctable", *exact_ct_rel, exact_ct);
    }
    if (exact_enum_rel && exact_ct_rel) {
      bool agree = exact_enum.size() == exact_ct.size();
      for (size_t i = 0; agree && i < exact_enum.size(); ++i) {
        agree = exact_enum[i].tuple == exact_ct[i].tuple &&
                (!exact_enum[i].exact || !exact_ct[i].exact ||
                 std::abs(exact_enum[i].probability -
                          exact_ct[i].probability) <= 1e-9);
      }
      if (!agree) {
        report.violations.push_back(
            "probability: exact-ctable != exact-enum: enum=" +
            describe_table(exact_enum) + " ctable=" +
            describe_table(exact_ct));
      }
    }

    // Facade faithfulness for the new notion.
    if (exact_enum_rel) {
      QueryEngine engine(db);
      QueryRequest req;
      req.input = QueryInput::Ra(plan);
      req.notion = AnswerNotion::kCertainWithProbability;
      req.semantics = WorldSemantics::kClosedWorld;
      req.world_options = world_opts;
      req.probability = popts;
      Result<QueryResponse> resp = engine.Run(req);
      ++report.configs_run;
      if (!resp.ok()) {
        report.violations.push_back(
            "QueryEngine(kCertainWithProbability) failed: " +
            resp.status().ToString());
      } else if (!tables_equal(resp->probabilities, exact_enum) ||
                 resp->relation != *exact_enum_rel) {
        report.violations.push_back(
            "QueryEngine(kCertainWithProbability) differs: engine=" +
            describe_table(resp->probabilities) + " direct=" +
            describe_table(exact_enum));
      }
    }

    // Forced sampling: both backends draw the same (seed, index) valuation
    // stream over the same domain, so the tallies — and the full tables —
    // must be bit-identical, at every thread count.
    ProbabilisticOptions sampled = popts;
    sampled.force_sampling = true;
    sampled.sampling.num_threads = 1;
    std::vector<TupleProbability> serial_enum;
    std::optional<Relation> serial_rel = run_prob(
        "probability/sampled-enum-serial", /*ctable=*/false, sampled,
        &serial_enum);
    if (serial_rel) {
      check_table("probability/sampled-enum-serial", *serial_rel,
                  serial_enum);
      sampled.sampling.num_threads = options.num_threads;
      std::vector<TupleProbability> parallel_enum;
      std::optional<Relation> parallel_rel = run_prob(
          "probability/sampled-enum-parallel", /*ctable=*/false, sampled,
          &parallel_enum);
      if (parallel_rel && !tables_equal(serial_enum, parallel_enum)) {
        report.violations.push_back(
            "probability: sampled tallies differ across thread counts: "
            "serial=" + describe_table(serial_enum) + " parallel=" +
            describe_table(parallel_enum));
      }
      std::vector<TupleProbability> sampled_ct;
      std::optional<Relation> sampled_ct_rel = run_prob(
          "probability/sampled-ctable", /*ctable=*/true, sampled,
          &sampled_ct);
      if (sampled_ct_rel && !tables_equal(serial_enum, sampled_ct)) {
        report.violations.push_back(
            "probability: sampled-ctable != sampled-enum at equal seed: "
            "enum=" + describe_table(serial_enum) + " ctable=" +
            describe_table(sampled_ct));
      }
    }
  }

  // --- 3VL soundness on positive plans: null-free 3VL rows are certain. ---
  if (certain_cwa && cls == QueryClass::kPositive) {
    Result<Relation> sql3vl = Eval3VL(plan, db);
    if (sql3vl.ok()) {
      const Relation grounded = DropNullTuples(*sql3vl);
      if (!grounded.IsSubsetOf(*certain_cwa)) {
        report.violations.push_back("3VL null-free answers ⊄ certain/cwa: " +
                                    DescribeSides(*certain_cwa, grounded));
      }
    }
  }

  // --- Strong representation: ground Q(T) world by world. ---
  if (options.check_ctables) {
    const CDatabase cdb = CDatabase::FromDatabase(db);
    Result<CTable> ct = EvalOnCTables(plan, cdb);
    if (!ct.ok()) {
      report.skipped.push_back("ctables: " + ct.status().ToString());
    } else {
      Status st = ForEachValuation(
          db, world_opts, [&](const Valuation& v) -> bool {
            bool global_ok = true;
            Relation grounded = ct->ApplyValuation(v, &global_ok);
            if (!global_ok) {
              report.violations.push_back(
                  "ctables: global condition false under valuation " +
                  v.ToString() + " (lifted database has no global guard)");
              return false;
            }
            Result<Relation> expected = EvalNaive(plan, v.Apply(db));
            if (!expected.ok()) {
              report.violations.push_back("ctables: world evaluation failed: " +
                                          expected.status().ToString());
              return false;
            }
            if (grounded != *expected) {
              report.violations.push_back(
                  "ctables: v(Q(T)) != Q(v(D)) under " + v.ToString() + ": " +
                  DescribeSides(*expected, grounded));
              return false;
            }
            return true;
          });
      if (st.code() == StatusCode::kResourceExhausted) {
        report.skipped.push_back("ctables: world budget exhausted");
      }
    }
  }

  return report;
}

}  // namespace incdb
