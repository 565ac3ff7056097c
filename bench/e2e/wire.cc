#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Reads the child's stdout until the "listening on <addr>:<port>" line.
int ReadListenPort(int fd, double timeout_s) {
  const auto t0 = Clock::now();
  std::string text;
  for (;;) {
    const size_t at = text.find("listening on ");
    const size_t nl = at == std::string::npos ? at : text.find('\n', at);
    if (nl != std::string::npos) {
      const size_t colon = text.rfind(':', nl);
      return colon == std::string::npos || colon < at
                 ? -1
                 : std::atoi(text.c_str() + colon + 1);
    }
    const int left_ms =
        static_cast<int>((timeout_s - SecondsSince(t0)) * 1000);
    if (left_ms <= 0) return -1;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, left_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return -1;
    char chunk[512];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) return -1;
    text.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace

std::string ServerProcess::Start(const std::string& binary,
                                 const std::vector<std::string>& args) {
  Stop();
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    return std::string("pipe: ") + std::strerror(errno);
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  // posix_spawn rather than fork: it does not copy this process's page
  // tables, whose size depends on the workload's expected answers, so
  // setup_s times the server's start alone.
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  const auto t0 = Clock::now();
  const int spawned = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                    argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (spawned != 0) {
    pid_ = -1;
    ::close(out[0]);
    return "cannot start " + binary + ": " + std::strerror(spawned);
  }
  port_ = ReadListenPort(out[0], 60);
  // The server ignores SIGPIPE, so its exit summary into the closed pipe is
  // harmless.
  ::close(out[0]);
  if (port_ <= 0) {
    Stop();
    return "server did not report a listening port";
  }
  Connection conn;
  Response pong;
  std::string error;
  if (!conn.Open(port_) || !conn.Exchange("ping", &pong, &error) ||
      pong.terminator != "ok pong") {
    Stop();
    return "server did not answer ping: " + error + pong.terminator;
  }
  setup_seconds_ = SecondsSince(t0);
  return "";
}

uint64_t ServerProcess::PeakRssKb() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

void ServerProcess::Stop(bool graceful) {
  if (pid_ <= 0) return;
  ::kill(pid_, graceful ? SIGTERM : SIGKILL);
  const auto t0 = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (SecondsSince(t0) > 5) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
}

std::string Response::Field(const std::string& key) const {
  const std::string needle = " " + key + "=";
  const size_t at = terminator.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  return terminator.substr(start, terminator.find(' ', start) - start);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Open(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
}

bool Connection::Send(const std::string& text) {
  size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd_, text.data() + off, text.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::Fill() {
  buf_.erase(0, pos_);
  pos_ = 0;
  const size_t had = buf_.size();
  buf_.resize(had + 65536);
  ssize_t n;
  do {
    n = ::read(fd_, buf_.data() + had, 65536);
  } while (n < 0 && errno == EINTR);
  buf_.resize(had + static_cast<size_t>(std::max<ssize_t>(n, 0)));
  return n > 0;
}

bool Connection::Read(Response* out, std::string* error) {
  out->data.clear();
  out->terminator.clear();
  // Data lines are scanned in place and copied out in blocks: a response
  // can hold tens of thousands of rows, and the client's cost per row is
  // part of every latency it measures.
  size_t data_from = pos_;
  for (;;) {
    const size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
      out->data.append(buf_, data_from, pos_ - data_from);
      if (!Fill()) {
        *error = "connection closed or stalled mid-response";
        return false;
      }
      data_from = 0;
      continue;
    }
    const char* line = buf_.data() + pos_;
    const size_t len = nl - pos_;
    if (len >= 2 && (line[0] == '|' || line[0] == 'p') && line[1] == ' ') {
      pos_ = nl + 1;
      continue;
    }
    out->data.append(buf_, data_from, pos_ - data_from);
    out->terminator.assign(line, len);
    pos_ = nl + 1;
    out->bytes = out->data.size() + len + 1;
    const std::string& t = out->terminator;
    if ((t.rfind("ok", 0) == 0 && (t.size() == 2 || t[2] == ' ')) ||
        t.rfind("error ", 0) == 0) {
      return true;
    }
    *error = "unparseable response line: " + t.substr(0, 200);
    return false;
  }
}

bool Connection::Exchange(const std::string& line, Response* out,
                          std::string* error) {
  if (!Send(line + "\n")) {
    *error = "send failed";
    return false;
  }
  return Read(out, error);
}

}  // namespace e2e
