// incdb_e2e — end-to-end cold-path benchmark driver for incdb_serve.
//
//   incdb_e2e --workload=ra_naive --seed=1 --seconds=15 [--trace]
//             --server=<incdb_serve binary> --workdir=<work dir>
//   incdb_e2e --smoke --server=... --workdir=...   every workload, 1 s each
//   incdb_e2e --check_generator                    dump determinism
//
// One run: generate the workload's instance from the seed, write it as an
// io.h dump, compute every fixed answer in process, start incdb_serve on
// the dump (several times, for set-up time), then drive it closed-loop over
// three TCP connections (warm-up, then the measured window), checking every
// answer. --trace adds the serial layer pass (layers.h) and writes a Chrome
// trace. The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. README.md describes workloads and metrics.
//
// Exit status: 0 when every operation succeeded with the right answer,
// 1 otherwise, 2 on bad usage or when the server cannot be started.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/io.h"
#include "engine/query_engine.h"
#include "layers.h"
#include "wire.h"
#include "workloads.h"

namespace e2e {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;  ///< measured window
  bool trace = false;
  std::string server;
  std::string workdir = ".";
  // Fixed for measurements; --smoke shrinks them.
  double warmup = 3;             ///< unrecorded seconds before the window
  int setups = 21;               ///< server starts timed for setup_s
  size_t layer_requests = 1000;  ///< serial layer-pass cap
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

constexpr size_t kMaxRequestSpans = 20000;
// The serial layer pass stops after this long or Options::layer_requests.
constexpr double kLayerPassSeconds = 5;

struct Op {
  uint64_t index = 0;
  size_t entry = 0;
  Clock::time_point start, end;
};

// A read whose answer depends on the ingested Pay rows; checked after the
// run by replaying the batch log up to its version.
struct PayRead {
  size_t entry = 0;
  std::string line;
  uint64_t version = 0;
  uint64_t digest = 0;
};

struct Batch {
  uint64_t j = 0;
  Clock::time_point due, sent, acked;
};

struct ThreadLog {
  std::vector<Op> ops;
  std::vector<PayRead> pay_reads;
  std::vector<Batch> batches;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

struct LoadContext {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  const RequestSequence* seq = nullptr;
  const ExpectedAnswers* expected = nullptr;
  int port = 0;
  std::atomic<uint64_t> next{0};
  std::atomic<bool> stop{false};
};

// Closed-loop reader: sends the next request of the shared sequence as soon
// as the previous answer is in. State lines ("notion ...") are exchanged
// one at a time before the query and are not part of its latency; sending
// them in the query's write would make the server answer with two small
// writes, which Nagle's algorithm holds back until a delayed ACK.
void Reader(LoadContext* ctx, ThreadLog* log) {
  Connection conn;
  Response resp;
  std::string error;
  if (!conn.Open(ctx->port) || !conn.Exchange("threads 1", &resp, &error) ||
      !resp.ok()) {
    log->Fail("reader cannot open a session: " + error + resp.terminator);
    return;
  }
  SessionState state;
  while (!ctx->stop.load(std::memory_order_relaxed)) {
    const uint64_t i = ctx->next.fetch_add(1);
    const Request r = ctx->seq->At(i);
    const MixEntry& e = ctx->w->mix[r.entry];
    ++log->attempted;
    bool io = true, state_ok = true;
    for (const std::string& line : StateLines(e, &state)) {
      io = io && conn.Exchange(line, &resp, &error);
      state_ok = state_ok && resp.ok();
    }
    Op op{i, r.entry, Clock::now(), {}};
    io = io && conn.Exchange(r.line, &resp, &error);
    op.end = Clock::now();
    if (!io) {
      log->Fail(e.name + ": protocol violation: " + error);
      return;  // the connection is out of step; stop this client
    }
    if (!state_ok || !resp.ok()) {
      log->Fail(e.name + ": " + resp.terminator);
      continue;
    }
    const auto known = ctx->expected->find(ExpectedKey(e, r.line));
    if (known != ctx->expected->end()) {
      if (known->second != resp.data) {
        log->Fail(e.name + ": wrong answer to " + r.line);
        continue;
      }
    } else if (e.reads_pay) {
      log->pay_reads.push_back({r.entry, r.line,
                                std::strtoull(resp.Field("version").c_str(),
                                              nullptr, 10),
                                Fnv1a(resp.data)});
    } else {
      log->Fail(e.name + ": no expected answer for " + r.line);
      continue;
    }
    log->ops.push_back(op);
  }
  conn.Send("quit\n");
}

// Open-loop writer: batch j is due at start + j·period whether or not the
// previous one was answered late; its latency counts from the due time.
void Writer(LoadContext* ctx, Clock::time_point start, ThreadLog* log) {
  Connection conn;
  if (!conn.Open(ctx->port)) {
    log->Fail("writer cannot connect");
    return;
  }
  const auto period = std::chrono::milliseconds(ctx->w->ingest_period_ms);
  Response resp;
  std::string error;
  for (uint64_t j = 0;; ++j) {
    const Clock::time_point due = start + j * period;
    std::this_thread::sleep_until(due);
    if (ctx->stop.load(std::memory_order_relaxed)) break;
    const std::vector<std::string> rows = IngestBatch(*ctx->w, ctx->seed, j);
    std::string text = "ingest " + std::to_string(rows.size()) + "\n";
    for (const std::string& r : rows) text += r + "\n";
    ++log->attempted;
    Batch b{j, due, Clock::now(), {}};
    const bool io = conn.Send(text) && conn.Read(&resp, &error);
    b.acked = Clock::now();
    if (!io) {
      log->Fail("ingest: protocol violation: " + error);
      return;
    }
    // Batch j publishes version j + 2 (the loaded instance is version 1),
    // which is what the post-run replay relies on.
    if (!resp.ok() || resp.Field("version") != std::to_string(j + 2)) {
      log->Fail("ingest " + std::to_string(j) + ": " + resp.terminator);
      return;
    }
    log->batches.push_back(b);
  }
  conn.Send("quit\n");
}

// Answers to every request whose answer cannot change during the run,
// computed in process with QueryEngine before any timing starts. On
// enumeration-backend world notions the c-table backend must agree.
bool ComputeExpected(const Workload& w, const RequestSequence& seq,
                     const incdb::Database& db, ExpectedAnswers* out,
                     std::string* error) {
  const incdb::QueryEngine engine(db);
  for (const MixEntry& e : w.mix) {
    if (e.reads_pay) continue;
    std::vector<std::string> lines;
    if (e.point_lookup) {
      for (int64_t key : seq.point_keys()) lines.push_back(RequestLine(e, key));
    } else {
      lines.push_back(RequestLine(e));
    }
    for (const std::string& line : lines) {
      const incdb::QueryRequest req = MakeRequest(e, line);
      auto r = engine.Run(req);
      if (!r.ok()) {
        *error = e.name + ": " + r.status().ToString();
        return false;
      }
      (*out)[ExpectedKey(e, line)] = FormatData(*r);
      const bool worlds = e.notion == incdb::AnswerNotion::kCertainEnum ||
                          e.notion == incdb::AnswerNotion::kPossible;
      if (worlds && e.backend == incdb::Backend::kEnumeration) {
        incdb::QueryRequest ct = req;
        ct.backend = incdb::Backend::kCTable;
        auto other = engine.Run(ct);
        if (!other.ok() || other->relation != r->relation) {
          *error = e.name + ": enumeration and c-table backends disagree";
          return false;
        }
      }
    }
  }
  return true;
}

// Replays the batch log in process and re-answers a seeded sample of at
// most 50 Pay-dependent reads at the version each one reported.
void CheckPayReads(const Workload& w, uint64_t seed,
                   const incdb::Database& base, std::vector<PayRead> reads,
                   ThreadLog* log) {
  Prng rng(SeedFor(seed, 999));
  for (size_t i = reads.size(); i > 1; --i) {
    std::swap(reads[i - 1], reads[rng.Below(i)]);
  }
  reads.resize(std::min<size_t>(reads.size(), 50));
  std::sort(reads.begin(), reads.end(),
            [](const PayRead& a, const PayRead& b) {
              return a.version < b.version;
            });
  incdb::Database db = base;
  uint64_t version = 1;
  for (const PayRead& r : reads) {
    if (r.version < 1) {
      log->Fail("read reported no version");
      continue;
    }
    for (; version < r.version; ++version) {
      for (const incdb::IngestRow& row :
           ToIngestRows(IngestBatch(w, seed, version - 1))) {
        db.AddTuple(row.relation, row.tuple);
      }
    }
    auto answer = incdb::QueryEngine(db).Run(
        MakeRequest(w.mix[r.entry], r.line));
    if (!answer.ok() || Fnv1a(FormatData(*answer)) != r.digest) {
      log->Fail(w.mix[r.entry].name + ": wrong answer at version " +
                std::to_string(r.version));
    }
  }
}

// The concurrent pass: three connections from `start`, the window
// [t0, t1) after the warm-up. Reads and batches are logged per thread.
struct Load {
  std::vector<ThreadLog> logs = std::vector<ThreadLog>(3);
  Clock::time_point start, t0, t1;
};

Load RunLoad(const Workload& w, const Options& opt, const RequestSequence& seq,
             const ExpectedAnswers& expected, int port, bool writer) {
  LoadContext ctx;
  ctx.w = &w;
  ctx.seed = opt.seed;
  ctx.seq = &seq;
  ctx.expected = &expected;
  ctx.port = port;
  Load load;
  std::vector<std::thread> threads;
  load.start = Clock::now();
  try {
    for (int t = 0; t < 3; ++t) {
      if (writer && t == 2) {
        threads.emplace_back(Writer, &ctx, load.start, &load.logs[t]);
      } else {
        threads.emplace_back(Reader, &ctx, &load.logs[t]);
      }
    }
  } catch (...) {  // a thread failed to start: stop and join the others
    ctx.stop = true;
    for (std::thread& t : threads) t.join();
    throw;
  }
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  load.t0 = load.start + to_duration(opt.warmup);
  load.t1 = load.t0 + to_duration(opt.seconds);
  std::this_thread::sleep_until(load.t1);
  ctx.stop = true;
  for (std::thread& t : threads) t.join();
  return load;
}

// How steady the window was: reads started in each of its seconds.
void PrintPerSecond(const Load& load, double seconds) {
  std::vector<double> per_second(
      static_cast<size_t>(std::max(1.0, std::floor(seconds))));
  for (const ThreadLog& log : load.logs) {
    for (const Op& op : log.ops) {
      const double at = Seconds(op.start - load.t0);
      if (at >= 0 && at < static_cast<double>(per_second.size())) {
        ++per_second[static_cast<size_t>(at)];
      }
    }
  }
  std::sort(per_second.begin(), per_second.end());
  std::printf("  per second     %10.0f min, %.0f median, %.0f max\n",
              per_second.front(), Percentile(per_second, 0.5),
              per_second.back());
}

// Reads and latency of each mix entry inside the window.
void PrintPerEntry(const Workload& w, const Load& load) {
  for (size_t e = 0; e < w.mix.size(); ++e) {
    std::vector<double> mine;
    for (const ThreadLog& log : load.logs) {
      for (const Op& op : log.ops) {
        if (op.entry == e && op.start >= load.t0 && op.start < load.t1) {
          mine.push_back(Seconds(op.end - op.start) * 1000);
        }
      }
    }
    std::sort(mine.begin(), mine.end());
    std::printf("    %-22s %6zu reads  p50 %9.3f ms  p99 %9.3f ms\n",
                w.mix[e].name.c_str(), mine.size(), Percentile(mine, 0.5),
                Percentile(mine, 0.99));
  }
}

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::vector<Metric> metrics;
};

void PrintJson(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t k = 0; k < r.metrics.size(); ++k) {
    const Metric& m = r.metrics[k];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

RunResult RunWorkload(const Workload& w, const Options& opt) {
  RunResult result;
  ThreadLog checks;  // failures found outside the client threads
  const std::string dump = GenerateDump(w.instance, opt.seed);
  const std::string dump_path =
      opt.workdir + "/" + w.name + "-" + std::to_string(opt.seed) + ".db";
  {
    std::ofstream f(dump_path, std::ios::binary);
    f << dump;
    if (!f) {
      result.first_error = "cannot write " + dump_path;
      return result;
    }
  }
  auto loaded = incdb::LoadDatabase(dump);
  if (!loaded.ok()) {
    result.first_error = "generated dump does not load: " +
                         loaded.status().ToString();
    return result;
  }
  const incdb::Database& db = *loaded;
  const RequestSequence seq(w, opt.seed);
  ExpectedAnswers expected;
  std::string error;
  if (!ComputeExpected(w, seq, db, &expected, &error)) {
    result.first_error = "expected answers: " + error;
    return result;
  }

  const std::vector<std::string> server_args = {
      "--db=" + dump_path, "--port=0",
      "--cache_capacity=" + std::to_string(w.cache_capacity),
      "--max_worlds=" + std::to_string(kServerMaxWorlds)};
  // setup_s times half its starts before the load and half after it, about
  // 20 s apart: the host's speed drifts on that scale, and a run's median
  // should not rest on one moment of it. The last start before the load
  // serves the load.
  std::vector<double> setups;
  ServerProcess server;
  auto time_starts = [&](int n) -> std::string {
    for (int k = 0; k < n; ++k) {
      server.Stop(/*graceful=*/false);  // only timed for its start
      const std::string started = server.Start(opt.server, server_args);
      if (!started.empty()) return started;
      setups.push_back(server.setup_seconds());
    }
    return "";
  };
  const int setups_before = std::max(1, (opt.setups + 1) / 2);
  if (std::string started = time_starts(setups_before); !started.empty()) {
    result.first_error = started;
    return result;
  }

  const bool writer = w.ingest_period_ms > 0;
  const Load load =
      RunLoad(w, opt, seq, expected, server.port(), writer);
  const std::vector<ThreadLog>& logs = load.logs;
  const Clock::time_point start = load.start, t0 = load.t0, t1 = load.t1;

  Connection probe;
  Response stats;
  uint64_t rejected = 0;
  if (probe.Open(server.port()) && probe.Exchange("stats", &stats, &error)) {
    rejected = std::strtoull(stats.Field("rejected_overload").c_str(), nullptr,
                             10) +
               std::strtoull(stats.Field("rejected_budget").c_str(), nullptr,
                             10);
  }
  probe.Send("quit\n");
  const double rss_mb = static_cast<double>(server.PeakRssKb()) / 1024;
  server.Stop();
  if (std::string started = time_starts(opt.setups - setups_before);
      !started.empty()) {
    checks.Fail("set-up after the load: " + started);
  }
  server.Stop(/*graceful=*/false);

  // The measured reads are those started inside [t0, t1); throughput is
  // their number over the time from t0 until the last of them completed.
  std::vector<double> latencies;
  std::vector<PayRead> pay_reads;
  Clock::time_point last_end = t0;
  std::vector<double> ingest_ms, lag_ms;
  for (int t = 0; t < 3; ++t) {
    const ThreadLog& log = logs[t];
    for (const Op& op : log.ops) {
      if (op.start >= t0 && op.start < t1) {
        latencies.push_back(Seconds(op.end - op.start) * 1000);
        last_end = std::max(last_end, op.end);
      }
    }
    for (const Batch& b : log.batches) {
      if (b.due >= t0 && b.due < t1) {
        ingest_ms.push_back(Seconds(b.acked - b.due) * 1000);
        lag_ms.push_back(Seconds(b.sent - b.due) * 1000);
      }
    }
    pay_reads.insert(pay_reads.end(), log.pay_reads.begin(),
                     log.pay_reads.end());
    result.attempted += log.attempted;
    result.failed += log.failed;
    if (result.first_error.empty()) result.first_error = log.first_error;
  }
  if (!pay_reads.empty()) CheckPayReads(w, opt.seed, db, pay_reads, &checks);
  std::sort(latencies.begin(), latencies.end());
  std::sort(ingest_ms.begin(), ingest_ms.end());
  std::sort(lag_ms.begin(), lag_ms.end());
  const double qps =
      last_end > t0
          ? static_cast<double>(latencies.size()) / Seconds(last_end - t0)
          : 0;

  std::printf("workload %s seed %llu: %zu orders, %zu distinct nulls, "
              "world domain log10 %.1f; %s, warm-up %.1f s, measured %.1f s\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              w.instance.orders, db.Nulls().size(),
              static_cast<double>(db.Nulls().size()) *
                  std::log10(static_cast<double>(
                      incdb::WorldDomain(db, {}).size())),
              writer ? "2 closed-loop readers + 1 open-loop writer"
                     : "3 closed-loop readers",
              opt.warmup, opt.seconds);
  std::printf("  qps            %10.2f 1/s  (%zu reads)\n", qps,
              latencies.size());
  PrintPerSecond(load, opt.seconds);
  std::printf("  p50_ms         %10.3f ms   (%zu samples)\n",
              Percentile(latencies, 0.5), latencies.size());
  std::printf("  p90_ms         %10.3f ms\n", Percentile(latencies, 0.9));
  std::printf("  p99_ms         %10.3f ms   (%zu samples beyond)\n",
              Percentile(latencies, 0.99),
              latencies.size() - static_cast<size_t>(std::ceil(
                                     0.99 * static_cast<double>(
                                                latencies.size()))));
  std::printf("  setup_s        %10.4f s    (median of %zu starts, %d before "
              "the load)\n",
              Median(setups), setups.size(), setups_before);
  std::printf("  rss_mb         %10.1f MiB  (server VmHWM)\n", rss_mb);
  if (writer) {
    std::printf("  ingest_p50_ms  %10.3f ms   (%zu batches, from due time)\n",
                Percentile(ingest_ms, 0.5), ingest_ms.size());
    std::printf("  ingest_p95_ms  %10.3f ms\n", Percentile(ingest_ms, 0.95));
    std::printf("  ingest_lag_ms  %10.3f ms   (median; max %.3f)\n",
                Percentile(lag_ms, 0.5), lag_ms.empty() ? 0 : lag_ms.back());
  }
  std::printf("  rejected       %10llu\n",
              static_cast<unsigned long long>(rejected));
  PrintPerEntry(w, load);

  if (opt.trace) {
    // One span per measured request, up to kMaxRequestSpans of them (the
    // cached reads of ingest_mixed would otherwise make a trace of hundreds
    // of MB).
    Tracer tracer(start);
    size_t request_spans = 0;
    for (int t = 0; t < 3; ++t) {
      for (const Op& op : logs[t].ops) {
        if (op.start < t0 || ++request_spans > kMaxRequestSpans) continue;
        tracer.Add({"tcp.request", w.mix[op.entry].name, op.index, 0, 0, t + 1,
                    op.start, op.end});
      }
      for (const Batch& b : logs[t].batches) {
        if (b.due < t0) continue;
        tracer.Add({"tcp.ingest", "", b.j, 0, 0, t + 1, b.due, b.acked});
      }
    }
    LayerPassConfig lp;
    lp.workload = &w;
    lp.seed = opt.seed;
    lp.sequence = &seq;
    lp.base = &db;
    lp.expected = &expected;
    lp.server = opt.server;
    lp.server_args = server_args;
    lp.max_requests = opt.layer_requests;
    lp.budget_seconds = std::min(opt.seconds, kLayerPassSeconds);
    if (!ingest_ms.empty()) {
      lp.reads_per_batch = static_cast<uint64_t>(std::llround(
          static_cast<double>(latencies.size()) /
          static_cast<double>(ingest_ms.size())));
    }
    LayerPassResult layers = RunLayerPass(lp, &tracer);
    checks.failed += layers.failed;
    checks.attempted += layers.requests;
    if (checks.first_error.empty()) checks.first_error = layers.first_error;
    result.metrics = layers.metrics;
    result.metrics.push_back({"trace.qps", qps, "1/s"});
    result.metrics.push_back(
        {"trace.layer_requests", static_cast<double>(layers.requests),
         "count"});
    const std::string trace_path = opt.workdir + "/trace-" + w.name + "-" +
                                   std::to_string(opt.seed) + ".json";
    if (!tracer.Write(trace_path)) checks.Fail("cannot write " + trace_path);
    std::printf("  layer pass     %10llu requests",
                static_cast<unsigned long long>(layers.requests));
    if (writer) {
      std::printf(", %llu batches, one every %llu reads as in the window",
                  static_cast<unsigned long long>(layers.batches),
                  static_cast<unsigned long long>(lp.reads_per_batch));
    }
    std::printf("; trace %s\n", trace_path.c_str());
    for (const Metric& m : result.metrics) {
      std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  } else {
    result.metrics = {
        {"qps", qps, "1/s"},
        {"setup_s", Median(setups), "s"},
        {"rss_mb", rss_mb, "MiB"},
    };
  }

  result.attempted += checks.attempted;
  result.failed += checks.failed;
  if (result.first_error.empty()) result.first_error = checks.first_error;
  if (latencies.empty()) {
    ++result.failed;
    if (result.first_error.empty()) result.first_error = "no read completed";
  }
  result.correct = result.failed == 0;
  std::printf("  attempted %llu, failed %llu%s%s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.first_error.empty() ? "" : "; first failure: ",
              result.first_error.c_str());
  return result;
}

int CheckGenerator() {
  int bad = 0;
  for (const Workload& w : AllWorkloads()) {
    const std::string a = GenerateDump(w.instance, 1);
    const bool same = a == GenerateDump(w.instance, 1);
    const bool differs = a != GenerateDump(w.instance, 2);
    const bool loads = incdb::LoadDatabase(a).ok();
    const RequestSequence s1(w, 1), s1b(w, 1), s2(w, 2);
    bool seq_same = true, seq_differs = false;
    for (uint64_t i = 0; i < 200; ++i) {
      seq_same = seq_same && s1.At(i).line == s1b.At(i).line;
      seq_differs = seq_differs || s1.At(i).line != s2.At(i).line;
    }
    const bool ok = same && differs && loads && seq_same && seq_differs;
    std::printf("%-15s dump %zu bytes: same seed identical %s, other seed "
                "differs %s, loads %s, sequence %s\n",
                w.name.c_str(), a.size(), same ? "yes" : "NO",
                differs ? "yes" : "NO", loads ? "yes" : "NO",
                seq_same && seq_differs ? "ok" : "NOT SEEDED");
    if (!ok) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

int Smoke(Options opt) {
  opt.seconds = 1;
  opt.warmup = 0.2;
  opt.setups = 2;
  opt.trace = true;
  opt.layer_requests = 30;
  int bad = 0;
  for (const Workload& w : AllWorkloads()) {
    const RunResult r = RunWorkload(w, opt);
    if (r.correct) continue;
    ++bad;
    std::printf("%s failed: %s\n", w.name.c_str(), r.first_error.c_str());
  }
  std::printf("smoke: %d of %zu workloads failed\n", bad,
              AllWorkloads().size());
  return bad == 0 ? 0 : 1;
}

void Usage() {
  std::fprintf(stderr,
               "usage: incdb_e2e --workload=NAME --server=BIN [options]\n"
               "       incdb_e2e --smoke --server=BIN [--workdir=DIR]\n"
               "       incdb_e2e --check_generator\n"
               "  --seed=N        instance and request-sequence seed "
               "(default 1)\n"
               "  --seconds=S     measured window (default 15)\n"
               "  --trace         per-layer metrics and a Chrome trace\n"
               "  --workdir=DIR   where dumps and traces go (default .)\n"
               "workloads:");
  for (const Workload& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opt;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      opt.workload = v;
    } else if (const char* v = value("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      opt.seconds = std::atof(v);
    } else if (const char* v = value("--server=")) {
      opt.server = v;
    } else if (const char* v = value("--workdir=")) {
      opt.workdir = v;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--check_generator") {
      return e2e::CheckGenerator();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return e2e::Usage(), 2;
    }
  }
  if (opt.server.empty() || opt.seconds <= 0) {
    return e2e::Usage(), 2;
  }
  std::error_code made;
  std::filesystem::create_directories(opt.workdir, made);
  if (made) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.workdir.c_str(),
                 made.message().c_str());
    return 2;
  }
  if (smoke) return e2e::Smoke(opt);
  const e2e::Workload* w = e2e::FindWorkload(opt.workload);
  if (w == nullptr) return e2e::Usage(), 2;
  const e2e::RunResult r = e2e::RunWorkload(*w, opt);
  if (r.metrics.empty()) {
    std::fprintf(stderr, "incdb_e2e: %s\n", r.first_error.c_str());
    return 2;
  }
  std::fflush(stdout);
  e2e::PrintJson(r);
  return r.correct ? 0 : 1;
}
