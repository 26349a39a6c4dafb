#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <istream>
#include <list>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/specparse.hpp"

namespace laacad::serve {

namespace {

/// Pending connections the kernel queues before accept(); loopback clients
/// connect a few at a time.
constexpr int kListenBacklog = 16;

/// The one error line a transport sends before it drops a session whose
/// request line exceeds kMaxRequestLineBytes.
std::string overlong_line_response() {
  return error_response("request line exceeds " +
                        std::to_string(kMaxRequestLineBytes) +
                        " bytes; closing connection");
}

}  // namespace

int serve_stdio(CoverageService& svc, std::istream& in, std::ostream& out) {
  int handled = 0;
  std::string line;
  for (;;) {
    const specparse::LineRead read =
        specparse::read_line(in, line, kMaxRequestLineBytes);
    if (read == specparse::LineRead::kOverlong)
      out << overlong_line_response() << '\n' << std::flush;
    if (read != specparse::LineRead::kLine) break;
    if (line.empty()) continue;
    const HandleResult result =
        handle_line(svc, line, std::chrono::steady_clock::now());
    ++handled;
    out << result.response << '\n';
    out.flush();
    if (result.action == HandleAction::kShutdown) break;
  }
  // EOF without a shutdown op gets the same graceful treatment: drain the
  // queue, finish the final phase, leave state replayable.
  svc.stop();
  return handled;
}

TcpServer::TcpServer(CoverageService& svc, int port) : svc_(svc) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind port " +
                             std::to_string(port));
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

TcpServer::~TcpServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

LineReader::LineReader(int fd, std::size_t max_line)
    : fd_(fd),
      max_line_(max_line),
      arrival_(std::chrono::steady_clock::now()) {}

LineReader::Status LineReader::next(std::string* line) {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (std::min(nl, buf_.size()) > max_line_) return Status::kOverlong;
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return Status::kLine;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::kClosed;
    buf_.append(chunk, static_cast<std::size_t>(n));
    arrival_ = std::chrono::steady_clock::now();
  }
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

int TcpServer::serve() {
  std::atomic<int> handled{0};
  std::atomic<bool> shutting_down{false};
  // One entry per live connection; a finished one is joined and erased at
  // the next accept, so a long-lived daemon holds no thread per past peer.
  // List nodes are stable, so a worker keeps a reference to its own.
  struct Connection {
    int fd = -1;
    bool finished = false;  ///< worker closed fd and is returning
    std::thread worker;
  };
  std::mutex conn_mu;  // guards conns (membership, fd, finished)
  std::list<Connection> conns;

  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (shutting_down.load() || errno != EINTR) break;
      continue;
    }
    std::lock_guard<std::mutex> lk(conn_mu);
    // A finished worker has released conn_mu for good, so joining it here
    // cannot deadlock.
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->finished) {
        ++it;
        continue;
      }
      it->worker.join();
      it = conns.erase(it);
    }
    if (shutting_down.load()) {
      ::close(fd);
      break;
    }
    if (conns.size() >= kMaxConnections) {
      write_all(fd, error_response("server has " +
                                   std::to_string(kMaxConnections) +
                                   " connections open; closing connection") +
                        "\n");
      ::close(fd);
      continue;
    }
    Connection& conn = conns.emplace_back();
    conn.fd = fd;
    conn.worker = std::thread([this, fd, &conn, &handled, &shutting_down,
                               &conn_mu, &conns] {
      // Request/response turnarounds are latency-bound, not throughput-
      // bound: disable Nagle so a response is not parked waiting for an
      // ACK (40 ms delayed-ACK stalls would dominate every percentile a
      // load generator measures).
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      LineReader reader(fd, kMaxRequestLineBytes);
      std::string line;
      for (;;) {
        const LineReader::Status status = reader.next(&line);
        if (status == LineReader::Status::kOverlong)
          write_all(fd, overlong_line_response() + "\n");
        if (status != LineReader::Status::kLine) break;
        if (line.empty()) continue;
        const HandleResult result = handle_line(svc_, line, reader.arrival());
        handled.fetch_add(1);
        if (!write_all(fd, result.response + "\n")) break;
        if (result.action == HandleAction::kShutdown) {
          shutting_down.store(true);
          std::lock_guard<std::mutex> conn_lk(conn_mu);
          // Unblock the accept loop and every idle connection so serve()
          // can join all workers: half-close the sockets, do not close the
          // fds (each worker closes its own, exactly once).
          ::shutdown(listen_fd_, SHUT_RDWR);
          for (const Connection& other : conns)
            if (!other.finished && &other != &conn)
              ::shutdown(other.fd, SHUT_RDWR);
          break;
        }
      }
      std::lock_guard<std::mutex> conn_lk(conn_mu);
      ::close(fd);
      conn.finished = true;
    });
  }

  // The accept loop is over, so conns no longer changes shape; workers
  // touch only their own entry's fields, under conn_mu.
  for (Connection& c : conns) c.worker.join();
  svc_.stop();
  return handled.load();
}

}  // namespace laacad::serve
