// Line-oriented transports for the serving daemon: stdio (tests, scripted
// sessions, piping) and a minimal TCP listener (one thread per
// connection, newline-delimited requests). Both feed serve::handle_line;
// the shutdown op (or EOF on stdio) stops the service gracefully.
#pragma once

#include <cstddef>
#include <iosfwd>

#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace laacad::serve {

/// Serve requests from `in` to `out` until EOF or a shutdown op, then stop
/// the service (drain + final phase). Returns the number of requests
/// handled.
int serve_stdio(CoverageService& svc, std::istream& in, std::ostream& out);

/// Longest request line, in bytes without its newline, a TCP connection
/// may send. Past it the connection gets one protocol-error line and is
/// closed, so a peer that never sends '\n' cannot grow daemon memory
/// without bound. Real requests are a few hundred bytes.
inline constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

class TcpServer {
 public:
  /// Bind + listen on `port` (0 = ephemeral; see port() for the result).
  /// Throws std::runtime_error on socket errors.
  TcpServer(CoverageService& svc, int port, int backlog = 16);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (useful after binding port 0).
  int port() const { return port_; }

  /// Accept-and-serve until a client sends shutdown. Each connection gets
  /// a thread; requests within a connection are handled in order. Blocks;
  /// returns the total number of requests handled.
  int serve();

 private:
  void handle_connection(int fd);

  CoverageService& svc_;
  int listen_fd_ = -1;
  int port_ = 0;
};

}  // namespace laacad::serve
