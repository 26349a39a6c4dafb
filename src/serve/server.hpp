// Line-oriented transports for the serving daemon: stdio (tests, scripted
// sessions, piping) and a minimal TCP listener (one thread per
// connection, newline-delimited requests). Both feed serve::handle_line;
// the shutdown op (or EOF on stdio) stops the service gracefully.
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace laacad::serve {

/// Serve requests from `in` to `out` until EOF, a shutdown op or a line
/// past kMaxRequestLineBytes (answered with one error line, as on TCP),
/// then stop the service (drain + final phase). Returns the number of
/// requests handled.
int serve_stdio(CoverageService& svc, std::istream& in, std::ostream& out);

/// Longest request line, in bytes without its newline, a TCP connection
/// or a stdio session may send. Past it the session gets one
/// protocol-error line and is closed, so a peer that never sends '\n'
/// cannot grow daemon memory without bound. Real requests are a few
/// hundred bytes.
inline constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

/// Most connections a TcpServer serves at once; each holds a thread. Past
/// it a new connection gets one protocol-error line and is closed, so a
/// peer that opens connections without end cannot grow the daemon's
/// threads without bound. Real clients use far fewer: serve_mix.wl opens
/// 2, and perfbench's serving probe nproc - 3.
inline constexpr std::size_t kMaxConnections = 256;

/// Writes all of `data` to `fd`, resuming short writes (a large stats or
/// coverage response against a small socket buffer) and EINTR; false on
/// any other write error.
bool write_all(int fd, const std::string& data);

/// Newline-delimited reader over a raw socket fd, shared by the daemon's
/// connections and serve_bench's clients. It reads only when no complete
/// line is buffered, so the buffer holds at most one partial line plus one
/// read's chunk, and erasing a consumed line moves at most that much.
class LineReader {
 public:
  enum class Status { kLine, kClosed, kOverlong };

  /// `max_line` caps a line's length in bytes without its newline.
  explicit LineReader(int fd, std::size_t max_line = std::string::npos);

  /// The next line without its '\n' (or trailing "\r\n"). kClosed on EOF
  /// or a read error. kOverlong once the pending line exceeds max_line,
  /// whether or not its newline has arrived: the buffer never grows much
  /// past the cap. Interrupted reads (EINTR) are retried.
  Status next(std::string* line);

  /// When the read() that delivered the latest bytes returned. A pipelined
  /// client that leaves several requests in one TCP segment gets the same
  /// stamp for each of them — which is what lets the protocol layer's
  /// queue phase measure real head-of-line blocking.
  std::chrono::steady_clock::time_point arrival() const { return arrival_; }

 private:
  int fd_;
  std::size_t max_line_;
  std::string buf_;
  std::chrono::steady_clock::time_point arrival_;
};

class TcpServer {
 public:
  /// Bind + listen on `port` (0 = ephemeral; see port() for the result).
  /// Throws std::runtime_error on socket errors.
  TcpServer(CoverageService& svc, int port);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (useful after binding port 0).
  int port() const { return port_; }

  /// Accept-and-serve until a client sends shutdown. Each connection gets
  /// a thread, joined at the next accept after the connection ends;
  /// requests within a connection are handled in order. A connection past
  /// kMaxConnections live ones gets one error line and is closed. Blocks;
  /// returns the total number of requests handled.
  int serve();

 private:
  CoverageService& svc_;
  int listen_fd_ = -1;
  int port_ = 0;
};

}  // namespace laacad::serve
