// Client side of the incdb_serve wire protocol (docs/SERVICE.md): the
// server as a child process, and one TCP connection to it.

#ifndef INCDB_BENCH_E2E_WIRE_H_
#define INCDB_BENCH_E2E_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// One incdb_serve child process. Start() returns once the server answered
/// its first ping; the destructor stops it and waits for it to end.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary args...` and waits for "listening on" plus a ping
  /// answer. Returns "" on success, else what went wrong.
  std::string Start(const std::string& binary,
                    const std::vector<std::string>& args);
  /// Seconds from spawning to the first ping answered.
  double setup_seconds() const { return setup_seconds_; }
  int port() const { return port_; }
  /// VmHWM of the live process in KiB (0 if unreadable).
  uint64_t PeakRssKb() const;
  /// SIGTERM (SIGKILL when not `graceful`), wait up to 5 s, then SIGKILL;
  /// always reaps. Idempotent.
  void Stop(bool graceful = true);

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  double setup_seconds_ = 0;
};

/// A response: the data lines ("| ..." / "p ...", each with its '\n') and
/// the terminator line ("ok ..." / "error ...", without '\n').
struct Response {
  std::string data;
  std::string terminator;
  size_t bytes = 0;  ///< everything read for it, terminator included
  bool ok() const { return terminator.rfind("ok", 0) == 0; }
  /// Value of "key=" in the terminator, or "" when absent.
  std::string Field(const std::string& key) const;
};

/// One client connection. Not thread-safe; one per thread.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(int port);
  /// Writes `text` (one or more '\n'-terminated lines) in one go.
  bool Send(const std::string& text);
  /// Reads one response; false (with `error` set) on a protocol violation,
  /// a closed connection or a 60 s stall.
  bool Read(Response* out, std::string* error);
  /// Send + Read of one line.
  bool Exchange(const std::string& line, Response* out, std::string* error);

 private:
  // Reads more bytes into buf_, dropping what was consumed; false on EOF,
  // error or a 60 s stall.
  bool Fill();
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace e2e

#endif  // INCDB_BENCH_E2E_WIRE_H_
