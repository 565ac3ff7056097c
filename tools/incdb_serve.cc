// incdb_serve — the IncDbService behind a newline-delimited text protocol
// on a local TCP socket (grammar in docs/SERVICE.md).
//
//   incdb_serve --demo --port=7433            # orders/payments demo db
//   incdb_serve --db=instance.txt --port=0    # ephemeral port, printed
//
// One connection = one Session. Requests are single lines; every response
// is zero or more data lines ("| <tuple>" result rows, "p <tuple> <prob>
// <lo> <hi> <exact>" probability rows) terminated by exactly one "ok ..."
// or "error <CODE> <message>" line.
//
// Exit status: 0 on clean shutdown, 2 on bad usage or startup failure.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "incdb.h"

namespace {

// Largest `ingest` batch and `threads` value a client may ask for.
constexpr int64_t kMaxIngestRows = 100000;
constexpr int64_t kMaxThreads = 256;

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop = true; }

void Usage() {
  std::fprintf(stderr,
               "usage: incdb_serve [options]\n"
               "  --port=N            listen port (default 0 = ephemeral; "
               "the chosen port is printed)\n"
               "  --db=FILE           load the instance from an io.h dump\n"
               "  --demo              orders/payments demo instance "
               "(default when --db is absent)\n"
               "  --demo_orders=N     demo size (default 12)\n"
               "  --runtime_s=S       exit after S seconds (default 0 = "
               "run until signalled)\n"
               "  --max_in_flight=N   concurrent-query gate (default 64)\n"
               "  --max_worlds=N      per-query world budget (default "
               "200000)\n"
               "  --max_rows=N        per-query result-row budget "
               "(default 0 = off)\n"
               "  --cache_capacity=N  plan-cache entries (default 256)\n");
}

// Buffered line reader over a socket fd.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // Reads one '\n'-terminated line (terminator stripped, trailing '\r'
  // too). False on EOF/error.
  bool ReadLine(std::string* out) {
    out->clear();
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!out->empty() && out->back() == '\r') out->pop_back();
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // Receive timeout (set per connection): lets blocked readers
        // notice shutdown instead of pinning join forever.
        if (g_stop) return false;
        continue;
      }
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

std::string OneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

// Reads all of `text`, a command's argument, as one integer in [lo, hi].
incdb::Result<int64_t> ParseIntArg(const std::string& text, int64_t lo,
                                   int64_t hi) {
  incdb::Scanner s(text, "argument");
  INCDB_ASSIGN_OR_RETURN(int64_t n, s.ReadInt());
  if (!s.AtEnd()) return s.Error("expected one integer");
  if (n < lo || n > hi) {
    return s.ErrorAt(0, "expected an integer in [" + std::to_string(lo) +
                            ", " + std::to_string(hi) + "]");
  }
  return n;
}

// Reads all of `text` as one finite number.
incdb::Result<double> ParseNumberArg(const std::string& text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(v)) {
    return incdb::Scanner(text, "argument").Error("expected a number");
  }
  return v;
}

// Per-connection protocol state: the notion/backend/knob settings that
// shape subsequent query commands.
struct ConnState {
  incdb::AnswerNotion notion = incdb::AnswerNotion::kNaive;
  incdb::Backend backend = incdb::Backend::kEnumeration;
  incdb::WorldSemantics semantics = incdb::WorldSemantics::kClosedWorld;
  int threads = 0;
  uint64_t max_worlds = 0;  // 0 = engine default
  double threshold = 1.0;
};

bool ParseNotion(const std::string& s, incdb::AnswerNotion* out) {
  using incdb::AnswerNotion;
  static const struct {
    const char* name;
    AnswerNotion notion;
  } kNames[] = {
      {"naive", AnswerNotion::kNaive},
      {"3vl", AnswerNotion::k3VL},
      {"maybe", AnswerNotion::kMaybe},
      {"certain-naive", AnswerNotion::kCertainNaive},
      {"certain-enum", AnswerNotion::kCertainEnum},
      {"certain-object", AnswerNotion::kCertainObject},
      {"possible", AnswerNotion::kPossible},
      {"certain-probability", AnswerNotion::kCertainWithProbability},
  };
  for (const auto& entry : kNames) {
    if (incdb::EqualsIgnoreCase(s, entry.name)) {
      *out = entry.notion;
      return true;
    }
  }
  return false;
}

std::string ErrorLine(const incdb::Status& status) {
  return std::string("error ") + incdb::StatusCodeName(status.code()) + " " +
         OneLine(status.message()) + "\n";
}

std::string RunQuery(incdb::Session* session, const ConnState& state,
                     incdb::QueryInput input) {
  incdb::QueryRequest req;
  req.input = std::move(input);
  req.notion = state.notion;
  req.backend = state.backend;
  req.semantics = state.semantics;
  req.eval.num_threads = state.threads;
  if (state.max_worlds > 0) req.world_options.max_worlds = state.max_worlds;
  req.probability.threshold = state.threshold;
  auto resp = session->Run(req);
  if (!resp.ok()) return ErrorLine(resp.status());
  std::string reply;
  incdb::AppendRows(resp->response.relation, &reply);
  // The stream formats the probabilities' doubles.
  std::ostringstream out;
  for (const incdb::TupleProbability& p : resp->response.probabilities) {
    out << "p " << p.tuple.ToString() << " " << p.probability << " "
        << p.ci_low << " " << p.ci_high << " " << (p.exact ? 1 : 0) << "\n";
  }
  out << "ok rows=" << resp->response.relation.size()
      << " version=" << resp->snapshot_version
      << " cache=" << (resp->cache_hit ? "hit" : "miss")
      << " notion=" << incdb::AnswerNotionName(state.notion) << "\n";
  reply += out.str();
  return reply;
}

// One connection's session and input.
struct Connection {
  incdb::IncDbService* service;
  incdb::Session session;
  LineReader reader;
};

// Answers one request line into *result (nothing for a blank line). False
// ends the connection: `quit`, or the client left inside an ingest batch.
bool HandleLine(const std::string& line, Connection& conn, ConnState& state,
                std::string* result) {
  const std::string trimmed = incdb::Trim(line);
  if (trimmed.empty()) return true;
  const size_t sp = trimmed.find(' ');
  const std::string cmd = incdb::ToLower(trimmed.substr(0, sp));
  const std::string rest =
      sp == std::string::npos ? "" : incdb::Trim(trimmed.substr(sp + 1));
  std::string& reply = *result;

  if (cmd == "ping") {
    reply = "ok pong\n";
  } else if (cmd == "quit") {
    reply = "ok bye\n";
    return false;
  } else if (cmd == "notion") {
    reply = ParseNotion(rest, &state.notion)
                ? "ok\n"
                : "error INVALID_ARGUMENT unknown notion " + rest + "\n";
  } else if (cmd == "backend") {
    if (incdb::EqualsIgnoreCase(rest, "enumeration")) {
      state.backend = incdb::Backend::kEnumeration;
      reply = "ok\n";
    } else if (incdb::EqualsIgnoreCase(rest, "ctable")) {
      state.backend = incdb::Backend::kCTable;
      reply = "ok\n";
    } else {
      reply = "error INVALID_ARGUMENT unknown backend " + rest + "\n";
    }
  } else if (cmd == "semantics") {
    if (incdb::EqualsIgnoreCase(rest, "cwa")) {
      state.semantics = incdb::WorldSemantics::kClosedWorld;
      reply = "ok\n";
    } else if (incdb::EqualsIgnoreCase(rest, "owa")) {
      state.semantics = incdb::WorldSemantics::kOpenWorld;
      reply = "ok\n";
    } else if (incdb::EqualsIgnoreCase(rest, "wcwa")) {
      state.semantics = incdb::WorldSemantics::kWeakClosedWorld;
      reply = "ok\n";
    } else {
      reply = "error INVALID_ARGUMENT unknown semantics " + rest + "\n";
    }
  } else if (cmd == "threads") {
    const auto n = ParseIntArg(rest, 0, kMaxThreads);
    if (n.ok()) state.threads = static_cast<int>(*n);
    reply = n.ok() ? "ok\n" : ErrorLine(n.status());
  } else if (cmd == "max_worlds") {
    const auto n =
        ParseIntArg(rest, 0, std::numeric_limits<int64_t>::max());
    if (n.ok()) state.max_worlds = static_cast<uint64_t>(*n);
    reply = n.ok() ? "ok\n" : ErrorLine(n.status());
  } else if (cmd == "threshold") {
    const auto x = ParseNumberArg(rest);
    if (x.ok()) state.threshold = *x;
    reply = x.ok() ? "ok\n" : ErrorLine(x.status());
  } else if (cmd == "query") {
    reply = RunQuery(&conn.session, state, incdb::QueryInput::RaText(rest));
  } else if (cmd == "sql") {
    reply = RunQuery(&conn.session, state, incdb::QueryInput::SqlText(rest));
  } else if (cmd == "ingest") {
    // "ingest <n>" followed by n lines "<relation> <v1> <v2> ...". All n
    // lines are read before the reply, even after a bad one, so the
    // connection stays in step; a bad batch applies nothing.
    const auto n = ParseIntArg(rest, 0, kMaxIngestRows);
    if (!n.ok()) {
      reply = ErrorLine(n.status());
    } else {
      std::vector<incdb::IngestRow> batch;
      incdb::Status bad;
      bool read_ok = true;
      for (int64_t i = 0; i < *n && read_ok; ++i) {
        std::string row_line;
        read_ok = conn.reader.ReadLine(&row_line);
        if (!read_ok || !bad.ok()) continue;
        auto row = incdb::ParseIngestRow(row_line);
        if (row.ok()) {
          batch.push_back(std::move(row).value());
        } else {
          bad = incdb::Status(row.status().code(),
                              "ingest row " + std::to_string(i + 1) + ": " +
                                  row.status().message());
        }
      }
      // The connection died mid-batch: nothing is applied.
      if (!read_ok) return false;
      if (!bad.ok()) {
        reply = ErrorLine(bad);
      } else if (auto version = conn.session.Ingest(batch); version.ok()) {
        reply = "ok version=" + std::to_string(*version) +
                " rows=" + std::to_string(batch.size()) + "\n";
      } else {
        reply = ErrorLine(version.status());
      }
    }
  } else if (cmd == "version") {
    reply = "ok version=" +
            std::to_string(conn.session.SnapshotVersion()) + "\n";
  } else if (cmd == "stats") {
    const incdb::ServiceStats s = conn.service->Stats();
    std::ostringstream out;
    out << "ok queries=" << s.queries << " cache_hits=" << s.cache_hits
        << " cache_misses=" << s.cache_misses
        << " cache_entries=" << s.cache_entries
        << " invalidated=" << s.invalidated_entries
        << " rejected_overload=" << s.rejected_overload
        << " rejected_budget=" << s.rejected_budget
        << " snapshots=" << s.snapshots_published << "\n";
    reply = out.str();
  } else {
    reply = "error INVALID_ARGUMENT unknown command " + cmd + "\n";
  }
  return true;
}

void ServeConnection(int fd, incdb::IncDbService* service) {
  timeval timeout{0, 200 * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  Connection conn{service, service->OpenSession(), LineReader(fd)};
  ConnState state;
  std::string line;
  while (!g_stop && conn.reader.ReadLine(&line)) {
    std::string reply;
    bool keep_serving = true;
    // A thread entry function must not let an exception out: that would
    // end the whole server. One failed request costs one error line.
    try {
      keep_serving = HandleLine(line, conn, state, &reply);
    } catch (const std::bad_alloc&) {
      reply = ErrorLine(incdb::Status::ResourceExhausted("out of memory"));
    } catch (const std::exception& e) {
      reply = ErrorLine(incdb::Status::Internal(e.what()));
    }
    if (!WriteAll(fd, reply) || !keep_serving) break;
  }
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  std::string db_file;
  bool demo = false;
  uint64_t demo_orders = 12;
  double runtime_s = 0;
  incdb::ServiceLimits limits;
  limits.max_worlds_per_query = 200'000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--port=")) {
      port = std::atoi(v);
    } else if (const char* v = value("--db=")) {
      db_file = v;
    } else if (arg == "--demo") {
      demo = true;
    } else if (const char* v = value("--demo_orders=")) {
      demo_orders = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--runtime_s=")) {
      runtime_s = std::atof(v);
    } else if (const char* v = value("--max_in_flight=")) {
      limits.max_in_flight = std::atoi(v);
    } else if (const char* v = value("--max_worlds=")) {
      limits.max_worlds_per_query = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--max_rows=")) {
      limits.max_result_rows = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--cache_capacity=")) {
      limits.plan_cache_capacity = std::strtoull(v, nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      return Usage(), 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return Usage(), 2;
    }
  }

  incdb::Database db;
  if (!db_file.empty()) {
    std::ifstream in(db_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", db_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto loaded = incdb::LoadDatabase(text.str());
    if (!loaded.ok()) {
      std::fprintf(stderr, "bad --db file: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    db = std::move(loaded).value();
  } else {
    demo = true;
  }
  if (demo && db_file.empty()) {
    // Small by design: the demo db keeps few enough nulls that even the
    // enumeration notions answer in microseconds, so a soak run measures
    // the service machinery, not world enumeration.
    incdb::OrdersPaymentsConfig config;
    config.n_orders = demo_orders;
    config.null_density = 0.15;
    db = incdb::MakeOrdersPayments(config).db;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("socket");
    return 2;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    std::perror("bind");
    return 2;
  }
  if (::listen(listen_fd, 64) < 0) {
    std::perror("listen");
    return 2;
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  std::printf("listening on 127.0.0.1:%d\n", ntohs(addr.sin_port));
  std::fflush(stdout);

  incdb::IncDbService service(std::move(db), limits);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(runtime_s));
  std::vector<std::thread> connections;
  while (!g_stop) {
    if (runtime_s > 0 && std::chrono::steady_clock::now() >= deadline) break;
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    connections.emplace_back(ServeConnection, fd, &service);
  }
  ::close(listen_fd);
  g_stop = true;  // wake blocked connection readers so join terminates
  for (std::thread& t : connections) t.join();
  const incdb::ServiceStats s = service.Stats();
  std::printf("served %llu queries (%llu cache hits, %llu rejected)\n",
              static_cast<unsigned long long>(s.queries),
              static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.rejected_overload +
                                              s.rejected_budget));
  return 0;
}
