#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "algebra/certain.h"
#include "algebra/classify.h"
#include "algebra/eval.h"
#include "algebra/eval_3vl.h"
#include "algebra/optimize.h"
#include "algebra/parser.h"
#include "core/possible_worlds.h"
#include "ctables/ctable_algebra.h"
#include "counting/probabilistic.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/rewrite.h"
#include "sql/to_algebra.h"
#include "wire.h"

namespace e2e {

using incdb::AnswerNotion;
using incdb::Backend;

std::string FormatData(const incdb::QueryResponse& r) {
  std::ostringstream out;
  for (const incdb::Tuple& t : r.relation.tuples()) {
    out << "| " << t.ToString() << "\n";
  }
  for (const incdb::TupleProbability& p : r.probabilities) {
    out << "p " << p.tuple.ToString() << " " << p.probability << " "
        << p.ci_low << " " << p.ci_high << " " << (p.exact ? 1 : 0) << "\n";
  }
  return out.str();
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Tracer::Add(Span s) {
  s.id = spans_.size() + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - epoch_).count();
    std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"trace_id\":%llu,"
        "\"span_id\":%llu,\"parent_id\":%llu,\"path\":\"%s\"}}",
        k == 0 ? "" : ",", s.name.c_str(),
        s.name.substr(0, s.name.find('.')).c_str(), ts, s.us(), s.tid,
        static_cast<unsigned long long>(s.trace_id),
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent), s.path.c_str());
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

struct LayerAnswer {
  incdb::Relation relation;
  std::vector<incdb::TupleProbability> probabilities;
};

// Answers `req` the way QueryEngine::Run does, one public layer call at a
// time, appending one span per call to `spans`.
incdb::Result<LayerAnswer> RunLayers(const incdb::QueryRequest& req,
                                     const incdb::Database& db,
                                     std::vector<Span>* spans) {
  auto timed = [spans](const char* name, const char* path, auto&& call) {
    Span s;
    s.name = name;
    s.path = path;
    s.start = Clock::now();
    auto result = call();
    s.end = Clock::now();
    spans->push_back(std::move(s));
    return result;
  };
  incdb::EvalStats stats;
  incdb::EvalOptions opts = req.eval;
  opts.stats = &stats;  // the engine always collects counters
  LayerAnswer out;
  const std::string& text = req.input.text();
  const bool world_quantified = req.notion == AnswerNotion::kCertainEnum ||
                                req.notion == AnswerNotion::kPossible ||
                                req.notion ==
                                    AnswerNotion::kCertainWithProbability;

  if (req.input.kind() == incdb::QueryInput::Kind::kSqlText) {
    INCDB_ASSIGN_OR_RETURN(
        const incdb::SqlQuery sql,
        timed("sql.parse", "", [&] { return incdb::ParseSql(text); }));
    auto ra = timed("sql.to_ra", "", [&] {
      return incdb::SqlToAlgebra(sql, db.schema());
    });
    if (ra.ok()) {
      timed("algebra.classify", "", [&] {
        return std::make_pair(
            incdb::Classify(*ra),
            incdb::NaiveEvaluationWorks(*ra, req.semantics));
      });
    }
    if (world_quantified) {
      return incdb::Status::Unsupported("no mix sends world-quantified SQL");
    }
    auto eval = [&]() -> incdb::Result<incdb::Relation> {
      switch (req.notion) {
        case AnswerNotion::kNaive:
        case AnswerNotion::kCertainObject:
          return incdb::EvalSql(sql, db, incdb::SqlEvalMode::kNaive, opts);
        case AnswerNotion::k3VL:
          return incdb::EvalSql(sql, db, incdb::SqlEvalMode::kSql3VL, opts);
        case AnswerNotion::kMaybe:
          return incdb::EvalSql(sql, db, incdb::SqlEvalMode::kSqlMaybe, opts);
        default:
          return incdb::EvalSqlCertain(sql, db, req.force, opts);
      }
    };
    INCDB_ASSIGN_OR_RETURN(out.relation, timed("sql.eval", "sql", eval));
    return out;
  }

  INCDB_ASSIGN_OR_RETURN(
      incdb::RAExprPtr ra,
      timed("algebra.parse", "", [&] { return incdb::ParseRA(text); }));
  timed("algebra.classify", "", [&] {
    return std::make_pair(incdb::Classify(ra),
                          incdb::NaiveEvaluationWorks(ra, req.semantics));
  });
  if (opts.optimize) {
    ra = timed("algebra.optimize", "",
               [&] { return incdb::Optimize(ra, db); });
    opts.optimize = false;
  }
  const auto& w = req.world_options;
  auto eval = [&]() -> incdb::Result<incdb::Relation> {
    if (req.notion == AnswerNotion::kCertainWithProbability) {
      return req.backend == Backend::kCTable
                 ? incdb::CertainAnswersWithProbabilityCTable(
                       ra, db, req.semantics, req.probability, w, opts,
                       &out.probabilities)
                 : incdb::CertainAnswersWithProbabilityEnum(
                       ra, db, req.semantics, req.probability, w, opts,
                       &out.probabilities);
    }
    if (req.backend == Backend::kCTable) {
      return req.notion == AnswerNotion::kCertainEnum
                 ? incdb::CertainAnswersCTable(ra, db, req.semantics, w, opts)
                 : incdb::PossibleAnswersCTable(ra, db, w, opts);
    }
    switch (req.notion) {
      case AnswerNotion::kNaive:
        return incdb::EvalNaive(ra, db, opts);
      case AnswerNotion::k3VL:
        return incdb::Eval3VL(ra, db);
      case AnswerNotion::kCertainNaive:
        return incdb::CertainAnswersNaive(ra, db, req.semantics, req.force,
                                          opts);
      case AnswerNotion::kCertainObject:
        return incdb::CertainObjectNaive(ra, db, opts);
      case AnswerNotion::kCertainEnum:
        return incdb::CertainAnswersEnum(ra, db, req.semantics, w, opts);
      case AnswerNotion::kPossible:
        return incdb::PossibleAnswersEnum(ra, db, w, opts);
      default:
        return incdb::Status::Unsupported("notion not answered on RA");
    }
  };
  const char* name = "engine.eval";
  const char* path = world_quantified ? "worlds" : "naive";
  if (req.notion == AnswerNotion::kCertainWithProbability) {
    name = "counting.eval";
    path = incdb::BackendName(req.backend);
  } else if (req.backend == Backend::kCTable) {
    name = "ctables.eval";
    path = "ctable";
  }
  INCDB_ASSIGN_OR_RETURN(out.relation, timed(name, path, eval));
  return out;
}

// Layers self time is charged to; "engine.worlds" is the engine's world
// drivers (enumeration notions), "engine" its naive-family evaluation.
constexpr const char* kLayers[] = {"wire",   "service",       "algebra",
                                   "sql",    "engine",        "engine.worlds",
                                   "ctables", "counting"};

// The layer a leaf span's self time is charged to.
std::string LayerOf(const Span& s) {
  if (s.name == "engine.eval" && s.path == "worlds") return "engine.worlds";
  return s.name.substr(0, s.name.find('.'));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

bool SameProbabilities(const std::vector<incdb::TupleProbability>& a,
                       const std::vector<incdb::TupleProbability>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].tuple != b[k].tuple || a[k].probability != b[k].probability ||
        a[k].ci_low != b[k].ci_low || a[k].ci_high != b[k].ci_high ||
        a[k].exact != b[k].exact) {
      return false;
    }
  }
  return true;
}

// Ingest batches the layer pass of a writer workload replays, budget
// permitting, so that the service's per-publication counters rest on
// several publications.
constexpr uint64_t kLayerPassPublications = 8;

}  // namespace

LayerPassResult RunLayerPass(const LayerPassConfig& c, Tracer* tracer) {
  LayerPassResult out;
  auto fail = [&out](const std::string& why) {
    ++out.failed;
    if (out.first_error.empty()) out.first_error = why;
  };
  const Workload& w = *c.workload;

  ServerProcess server;
  const std::string started = server.Start(c.server, c.server_args);
  if (!started.empty()) {
    fail("layer pass: " + started);
    return out;
  }
  Connection conn;
  Response resp;
  std::string error;
  if (!conn.Open(server.port()) || !conn.Exchange("threads 1", &resp, &error) ||
      !resp.ok()) {
    fail("layer pass: cannot open a session: " + error);
    return out;
  }
  incdb::ServiceLimits limits;
  limits.max_worlds_per_query = kServerMaxWorlds;
  limits.plan_cache_capacity = w.cache_capacity;
  incdb::IncDbService service(*c.base, limits);

  std::vector<double> ping_us, roundtrip_us, wire_self_us, run_us,
      service_self_us;
  std::map<std::string, std::vector<double>> span_us;  // by span name
  // Per mix entry: each layer's self time per request.
  struct EntrySamples {
    size_t requests = 0;
    std::map<std::string, std::vector<double>> self_us;
  };
  std::vector<EntrySamples> by_entry(w.mix.size());
  double bytes = 0;
  incdb::EvalStats work;  // counters of the requests the service evaluated
  double candidates = 0;  // probability-table rows, for exact_hit_ratio

  SessionState state;
  size_t block = 0;
  for (const MixEntry& e : w.mix) block += static_cast<size_t>(e.weight);
  const bool writer = w.ingest_period_ms > 0;
  const uint64_t per_batch = std::max<uint64_t>(1, c.reads_per_batch);
  const uint64_t requests =
      writer ? std::max<uint64_t>(c.max_requests,
                                  kLayerPassPublications * per_batch + 1)
             : c.max_requests;
  // Version each Pay-reading line was last evaluated at: a hit on it must
  // come from that version, since every publication changes Pay.
  std::map<std::string, uint64_t> pay_filled_at;
  const auto t0 = Clock::now();
  for (uint64_t i = 0; i < requests; ++i) {
    if (i >= block && std::chrono::duration<double>(Clock::now() - t0).count() >
                          c.budget_seconds) {
      break;
    }
    if (writer && i > 0 && i % per_batch == 0) {
      const std::vector<std::string> rows =
          IngestBatch(w, c.seed, out.batches++);
      std::string text = "ingest " + std::to_string(rows.size()) + "\n";
      for (const std::string& r : rows) text += r + "\n";
      Span ingest{"service.ingest", "", i, 0, 0, 0, {}, {}};
      if (!conn.Send(text) || !conn.Read(&resp, &error) || !resp.ok()) {
        fail("layer pass ingest: " + error + resp.terminator);
        break;
      }
      ingest.start = Clock::now();
      auto version = service.Ingest(ToIngestRows(rows));
      ingest.end = Clock::now();
      tracer->Add(ingest);
      if (!version.ok() || std::to_string(*version) != resp.Field("version")) {
        fail("layer pass: server and in-process versions differ");
        break;
      }
    }

    const Request r = c.sequence->At(i);
    const MixEntry& entry = w.mix[r.entry];
    for (const std::string& line : StateLines(entry, &state)) {
      if (!conn.Exchange(line, &resp, &error) || !resp.ok()) {
        fail("layer pass: " + line + ": " + error + resp.terminator);
        return out;
      }
    }
    Span ping{"wire.ping", "", i, 0, 0, 0, Clock::now(), {}};
    if (!conn.Exchange("ping", &resp, &error)) {
      fail("layer pass ping: " + error);
      break;
    }
    ping.end = Clock::now();
    ping_us.push_back(ping.us());

    Span root{"request", entry.name, i, 0, 0, 0, Clock::now(), {}};
    Span rt{"wire.roundtrip", "", i, 0, 0, 0, Clock::now(), {}};
    const bool sent = conn.Exchange(r.line, &resp, &error);
    rt.end = Clock::now();
    const incdb::QueryRequest req = MakeRequest(entry, r.line);
    Span run{"service.run", "", i, 0, 0, 0, Clock::now(), {}};
    auto served = service.Run(req);
    run.end = Clock::now();
    // A plan-cache hit calls no layer below the service: it returns what an
    // earlier miss computed, and that miss was decomposed and checked.
    std::vector<Span> layers;
    incdb::Result<LayerAnswer> decomposed = LayerAnswer();
    if (served.ok() && !served->cache_hit) {
      decomposed = RunLayers(req, service.CurrentSnapshot()->db(), &layers);
    }
    root.end = Clock::now();

    if (!sent || !resp.ok()) {
      fail("layer pass " + entry.name + ": " + error + resp.terminator);
      continue;
    }
    if (!served.ok() || !decomposed.ok()) {
      fail("layer pass " + entry.name + ": in-process run failed: " +
           (served.ok() ? decomposed.status() : served.status()).ToString());
      continue;
    }
    const incdb::QueryResponse& answer = served->response;
    if (resp.data != FormatData(answer) ||
        resp.Field("version") != std::to_string(served->snapshot_version) ||
        resp.Field("cache") != (served->cache_hit ? "hit" : "miss")) {
      fail("layer pass " + entry.name + ": TCP answer differs from "
           "service.run");
    }
    if (served->cache_hit) {
      const auto filled = pay_filled_at.find(r.line);
      if (entry.reads_pay &&
          (filled == pay_filled_at.end() ||
           filled->second != served->snapshot_version)) {
        fail("layer pass " + entry.name + ": hit survived a Pay publication");
      }
    } else {
      if (decomposed->relation != answer.relation ||
          !SameProbabilities(decomposed->probabilities,
                             answer.probabilities)) {
        fail("layer pass " + entry.name +
             ": layer-by-layer answer differs from service.run");
      }
      if (entry.reads_pay) pay_filled_at[r.line] = served->snapshot_version;
    }
    const auto known = c.expected->find(ExpectedKey(entry, r.line));
    if (known != c.expected->end() && known->second != resp.data) {
      fail("layer pass " + entry.name + ": wrong answer");
    }

    const uint64_t root_id = tracer->Add(root);
    rt.parent = root_id;
    const uint64_t rt_id = tracer->Add(rt);
    run.parent = rt_id;
    const uint64_t run_id = tracer->Add(run);
    std::map<std::string, double> self_us;  // by layer
    double layer_us = 0;
    if (!served->cache_hit) {  // a hit calls no layer below the service
      for (Span& s : layers) {
        s.trace_id = i;
        s.parent = run_id;
        span_us[s.name].push_back(s.us());
        self_us[LayerOf(s)] += s.us();
        layer_us += s.us();
        tracer->Add(s);
      }
      work.Merge(answer.stats);
      candidates += static_cast<double>(answer.probabilities.size());
    }
    self_us["wire"] = rt.us() - run.us();
    self_us["service"] = run.us() - layer_us;
    EntrySamples& samples = by_entry[r.entry];
    ++samples.requests;
    for (const char* layer : kLayers) {
      samples.self_us[layer].push_back(self_us[layer]);
    }
    roundtrip_us.push_back(rt.us());
    run_us.push_back(run.us());
    wire_self_us.push_back(self_us["wire"]);
    service_self_us.push_back(self_us["service"]);
    bytes += static_cast<double>(resp.bytes);
    ++out.requests;
  }
  conn.Send("quit\n");
  server.Stop();

  const double n = std::max<double>(1, static_cast<double>(out.requests));
  const incdb::ServiceStats ss = service.Stats();
  auto op = [&work](incdb::EvalOp o) { return work.at(o); };
  double engine_probes = 0, engine_in = 0;
  for (size_t k = 0; k <= static_cast<size_t>(incdb::EvalOp::kDelta); ++k) {
    engine_probes += static_cast<double>(op(incdb::EvalOp(k)).probes);
    engine_in += static_cast<double>(op(incdb::EvalOp(k)).tuples_in);
  }
  const double steps =
      static_cast<double>(work.delta_applied() + work.delta_fallbacks());
  const std::vector<incdb::Value> domain =
      incdb::WorldDomain(*c.base, incdb::WorldEnumOptions{});

  auto& m = out.metrics;
  m.push_back({"wire.ping_us", Median(ping_us), "us"});
  m.push_back({"wire.roundtrip_ms", Median(roundtrip_us) / 1000, "ms"});
  m.push_back({"wire.self_ms", Median(wire_self_us) / 1000, "ms"});
  m.push_back({"wire.bytes_per_response", bytes / n, "bytes"});
  m.push_back({"service.run_ms", Median(run_us) / 1000, "ms"});
  m.push_back({"service.self_us", Median(service_self_us), "us"});
  m.push_back({"service.plan_cache_hit_ratio",
               Ratio(static_cast<double>(ss.cache_hits),
                     static_cast<double>(ss.cache_hits + ss.cache_misses)),
               "ratio"});
  m.push_back({"service.invalidated_per_publish",
               Ratio(static_cast<double>(ss.invalidated_entries),
                     static_cast<double>(ss.snapshots_published - 1)),
               "count"});
  m.push_back({"algebra.parse_us", Median(span_us["algebra.parse"]), "us"});
  m.push_back(
      {"algebra.classify_us", Median(span_us["algebra.classify"]), "us"});
  m.push_back(
      {"algebra.optimize_us", Median(span_us["algebra.optimize"]), "us"});
  m.push_back({"sql.block_probes_per_query",
               static_cast<double>(op(incdb::EvalOp::kSqlBlock).probes) / n,
               "count"});
  m.push_back({"sql.block_tuples_in_per_query",
               static_cast<double>(op(incdb::EvalOp::kSqlBlock).tuples_in) / n,
               "count"});
  m.push_back({"engine.probes_per_query", engine_probes / n, "count"});
  m.push_back({"engine.tuples_in_per_query", engine_in / n, "count"});
  m.push_back({"engine.rows_vectorized_per_query",
               static_cast<double>(work.rows_vectorized()) / n, "count"});
  m.push_back({"engine.batches_per_query",
               static_cast<double>(work.batches_processed()) / n, "count"});
  m.push_back({"engine.world_steps_per_query", steps / n, "count"});
  m.push_back({"engine.delta_applied_ratio",
               Ratio(static_cast<double>(work.delta_applied()), steps),
               "ratio"});
  m.push_back({"engine.subplan_cache_hit_ratio",
               Ratio(static_cast<double>(work.cache_hits()),
                     static_cast<double>(work.cache_hits() +
                                         work.cache_misses())),
               "ratio"});
  m.push_back({"engine.world_space_log10",
               static_cast<double>(c.base->Nulls().size()) *
                   std::log10(static_cast<double>(domain.size())),
               "log10"});
  m.push_back({"ctables.cond_simplified_per_query",
               static_cast<double>(work.cond_simplified()) / n, "count"});
  m.push_back({"ctables.unsat_pruned_per_query",
               static_cast<double>(work.unsat_pruned()) / n, "count"});
  m.push_back(
      {"ctables.join_probes_per_query",
       static_cast<double>(op(incdb::EvalOp::kCTableJoin).probes) / n,
       "count"});
  m.push_back({"counting.worlds_counted_per_query",
               static_cast<double>(work.worlds_counted()) / n, "count"});
  m.push_back({"counting.samples_per_query",
               static_cast<double>(work.samples_drawn()) / n, "count"});
  m.push_back({"counting.exact_hit_ratio",
               Ratio(static_cast<double>(work.exact_count_hits()), candidates),
               "ratio"});
  // Shares of the attributed time, from per-entry medians weighted by how
  // often each entry ran: a request's time flips between two speeds on a
  // busy host, which sums over single requests would carry into the
  // shares. A median below zero counts as zero: the in-process replay of a
  // heavy query can run slower than the server did (README.md).
  std::map<std::string, double> attributed;
  double total_us = 0;
  for (EntrySamples& e : by_entry) {
    for (const char* layer : kLayers) {
      const double self = static_cast<double>(e.requests) *
                          std::max(0.0, Median(e.self_us[layer]));
      attributed[layer] += self;
      total_us += self;
    }
  }
  for (const char* layer : kLayers) {
    const std::string name = layer;
    m.push_back({name + (name.find('.') == std::string::npos ? "." : "_") +
                     "self_share",
                 100 * Ratio(attributed[layer], total_us), "%"});
  }
  return out;
}

}  // namespace e2e
