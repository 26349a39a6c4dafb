// The serving layer's probe: an in-process daemon (CoverageService +
// TcpServer) on a 200-node network answering an open-loop read mix (knn,
// coverage, load, stats) with balanced churn — every churn point fails two
// random nodes and adds two, so the node count stays put and the service
// never aborts. Client latency runs from the *scheduled* send, so a server
// stall is charged to every request due during it.
//
// Serving is measured per layer only. As an end-to-end workload
// (serve_churn: open-loop knn p50/p99, a rate staircase, event + drain
// recovery) its figures swung between identical runs on a 4-core VM by far
// more than any usable bound — knn p99 0.8-6 ms, the staircase knee
// 5 200-9 500 requests/s — because syscall and wake-up costs drift for
// seconds at a time there. See perfbench/README.md.
//
// The generator sends from the calling thread and receives on one more,
// over nproc - 3 connections (at least one): generator threads, connection
// threads and the daemon's round loop together never exceed nproc.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/flatjson.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "obs/histogram.hpp"
#include "serve/bench.hpp"
#include "serve/latency.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace perfbench {

namespace {

using namespace laacad;

constexpr const char* kFail = "fail_nodes count=2 pick=random";
constexpr const char* kAdd = "add_nodes count=2 deploy=uniform";

struct ServeSize {
  int nodes;
  double side;
  double rate;      ///< open loop, requests/s
  double loop_s;    ///< open loop length
  int churn_every;  ///< queries between churn points
};

ServeSize serve_size(const Options& opt) {
  if (opt.tiny) return {40, 300.0, 400.0, 0.4, 50};
  return {200, 500.0, 2000.0, 1.0, 1000};
}

scenario::ScenarioSpec serve_spec(const ServeSize& z, std::uint64_t seed) {
  scenario::ScenarioSpec s;
  s.name = "serve_probe";
  s.domain = "square";
  s.side = z.side;
  s.nodes = z.nodes;
  s.k = 2;
  s.seed = seed;
  s.epsilon = 2.0;
  s.max_rounds = 200;
  s.battery = 2.0e6;
  s.grid_resolution = 5.0;
  // The round loop stays serial, so generator threads + connections can
  // take every other core.
  s.num_threads = 1;
  return s;
}

std::vector<serve::ScheduledRequest> schedule(std::uint64_t seed,
                                              int requests,
                                              const ServeSize& z) {
  serve::WorkloadSpec wl;
  wl.name = "serve_probe";
  wl.requests = std::max(1, requests);
  wl.seed = seed;
  wl.knn_k = 3;
  wl.mix_knn = 6;
  wl.mix_coverage = 2;
  wl.mix_load = 1;
  wl.mix_stats = 1;
  wl.mix_health = 0;
  wl.churn = {{z.churn_every, kFail}, {z.churn_every, kAdd}};
  return serve::expand_schedule(wl, z.side);
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double p_us(const obs::Histogram& h, double q) {
  return static_cast<double>(h.value_at(q)) / 1e3;
}

double p_us(const std::vector<double>& ns, double q) {
  return quantile(ns, q) / 1e3;
}

bool response_ok(const std::string& line) {
  bool ok = false;
  return laacad::flatjson::get_bool(line, "ok", &ok) && ok;
}

// ------------------------------------------------------------ transport --

int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("serve probe: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw std::runtime_error("serve probe: cannot connect to the daemon");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
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

/// Appends what one read() returns; false on EOF or error.
bool read_some(int fd, std::string* buffer) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

/// Pops one complete line off the front of `buffer`.
bool pop_line(std::string* buffer, std::string* line) {
  const auto nl = buffer->find('\n');
  if (nl == std::string::npos) return false;
  line->assign(*buffer, 0, nl);
  buffer->erase(0, nl + 1);
  return true;
}

/// The daemon under test plus the benchmark's connections to it.
class Daemon {
 public:
  explicit Daemon(std::unique_ptr<serve::CoverageService> svc)
      : svc_(std::move(svc)), server_(*svc_, /*port=*/0),
        thread_([this] { server_.serve(); }) {}

  ~Daemon() { shutdown(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void connect(int conns) {
    ctl_ = connect_local(server_.port());
    for (int c = 0; c < conns; ++c) fds_.push_back(connect_local(server_.port()));
  }

  /// One request/response on the control connection; "" on a transport
  /// error.
  std::string call(const std::string& request) {
    std::string line;
    if (!write_all(ctl_, request + "\n")) return "";
    while (!pop_line(&ctl_buf_, &line))
      if (!read_some(ctl_, &ctl_buf_)) return "";
    return line;
  }

  /// Shutdown op, then join the accept loop. Idempotent.
  void shutdown() {
    if (!thread_.joinable()) return;
    for (const int fd : fds_) ::close(fd);
    fds_.clear();
    if (ctl_ < 0) ctl_ = connect_local(server_.port());
    (void)call("{\"op\":\"shutdown\"}");
    ::close(ctl_);
    ctl_ = -1;
    thread_.join();
  }

  serve::CoverageService& svc() { return *svc_; }
  const std::vector<int>& fds() const { return fds_; }

 private:
  std::unique_ptr<serve::CoverageService> svc_;
  serve::TcpServer server_;
  std::thread thread_;
  int ctl_ = -1;
  std::string ctl_buf_;
  std::vector<int> fds_;
};

// ------------------------------------------------------------ generator --

struct OpenLoop {
  // Raw samples in ns (exact percentiles, not histogram bucket edges).
  std::vector<double> knn_latency;  ///< response - scheduled send
  std::vector<double> knn_service;  ///< response - actual send
  std::vector<double> lateness;     ///< actual send - scheduled, all requests
  std::array<std::uint64_t, serve::kBenchOps.size()> scheduled{}, ok{};

  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const std::uint64_t v : scheduled) n += v;
    return n;
  }
  /// Protocol errors, transport errors, and unsent or unanswered requests.
  std::uint64_t failed() const {
    std::uint64_t good = 0;
    for (const std::uint64_t v : ok) good += v;
    return total() - good;
  }
};

int op_index(const std::string& op) {
  for (std::size_t i = 0; i < serve::kBenchOps.size(); ++i)
    if (op == serve::kBenchOps[i]) return static_cast<int>(i);
  return 0;
}

/// Sends `reqs` round-robin over `fds` on the schedule start + i / rate,
/// whatever the server does; a receiver thread matches responses in order
/// per connection.
OpenLoop open_loop(const std::vector<int>& fds,
                   const std::vector<serve::ScheduledRequest>& reqs,
                   double rate) {
  struct Pending {
    Clock::time_point sched, sent;
    int op;
  };
  OpenLoop r;
  const std::size_t conns = fds.size();
  std::vector<std::deque<Pending>> inflight(conns);
  std::mutex mu;  // guards inflight
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> sender_done{false};
  for (const serve::ScheduledRequest& q : reqs)
    ++r.scheduled[static_cast<std::size_t>(op_index(q.op))];

  std::thread receiver([&] {
    std::uint64_t received = 0;
    std::vector<std::string> bufs(conns);
    std::vector<pollfd> pfds(conns);
    for (std::size_t c = 0; c < conns; ++c) pfds[c] = {fds[c], POLLIN, 0};
    Clock::time_point progress = Clock::now();
    std::string line;
    for (;;) {
      if (sender_done.load() && received == sent.load()) break;
      if (seconds_since(progress) > 30.0) break;  // unanswered: counted
      const int rc = ::poll(pfds.data(), conns, 50);
      if (rc < 0 && errno != EINTR) break;
      for (std::size_t c = 0; rc > 0 && c < conns; ++c) {
        if (pfds[c].fd < 0 || !(pfds[c].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        if (!read_some(fds[c], &bufs[c])) {
          pfds[c].fd = -1;  // its requests stay unanswered: failed()
          continue;
        }
        while (pop_line(&bufs[c], &line)) {
          const Clock::time_point now = Clock::now();
          Pending p;
          {
            std::lock_guard<std::mutex> lk(mu);
            if (inflight[c].empty()) break;
            p = inflight[c].front();
            inflight[c].pop_front();
          }
          ++received;
          progress = now;
          const auto op = static_cast<std::size_t>(p.op);
          if (response_ok(line)) ++r.ok[op];
          if (op == 0) {
            r.knn_latency.push_back(ns_between(p.sched, now));
            r.knn_service.push_back(ns_between(p.sent, now));
          }
        }
      }
    }
  });

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Clock::time_point sched =
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    1e9 * static_cast<double>(i) / rate));
    std::this_thread::sleep_until(sched);
    const std::size_t c = i % conns;
    const Clock::time_point now = Clock::now();
    {
      std::lock_guard<std::mutex> lk(mu);
      inflight[c].push_back({sched, now, op_index(reqs[i].op)});
    }
    if (!write_all(fds[c], reqs[i].line + "\n")) {
      std::lock_guard<std::mutex> lk(mu);
      inflight[c].pop_back();
      break;
    }
    r.lateness.push_back(ns_between(sched, now));
    sent.fetch_add(1);
  }
  sender_done.store(true);
  receiver.join();
  return r;
}

// -------------------------------------------------------------- session --

/// A started service whose initial phase has converged.
std::unique_ptr<serve::CoverageService> start_service(
    const scenario::ScenarioSpec& spec) {
  serve::ServeConfig cfg;
  cfg.spec = spec;
  auto svc = std::make_unique<serve::CoverageService>(std::move(cfg));
  svc->start();
  svc->drain();
  return svc;
}

std::string event_request(const char* body) {
  return std::string("{\"op\":\"event\",\"spec\":\"") + body + "\"}";
}

/// Final health of a session: no abort, no rejected event, node count back
/// where it started (balanced churn).
void check_final(Daemon& d, int nodes, Result& res) {
  (void)d.call("{\"op\":\"drain\"}");
  const std::string stats = d.call("{\"op\":\"stats\"}");
  bool aborted = true;
  double live = 0.0, rejected = -1.0;
  res.gate(laacad::flatjson::get_bool(stats, "aborted", &aborted) && !aborted,
           "serve probe: the service aborted");
  res.gate(laacad::flatjson::get_number(stats, "nodes", &live) &&
               static_cast<int>(live) == nodes,
           "serve probe: node count drifted from " + std::to_string(nodes) +
               " to " + std::to_string(static_cast<int>(live)));
  res.gate(laacad::flatjson::get_number(stats, "events_rejected", &rejected) &&
               rejected == 0.0,
           "serve probe: the service rejected churn events");
}

/// The fixed golden session, in process: events and drains, then queries
/// against the drained (hence deterministic) snapshot, then the canonical
/// state document. Its digest is recorded in golden.json.
void golden_session(Result& res) {
  Options tiny;
  tiny.tiny = true;
  serve::ServeConfig cfg;
  cfg.spec = serve_spec(serve_size(tiny), 11);
  serve::CoverageService svc(std::move(cfg));
  svc.start();
  svc.drain();
  std::string transcript;
  bool ok = true;
  const auto ask = [&](const std::string& line) {
    const std::string r = serve::handle_line(svc, line).response;
    ok = ok && response_ok(r);
    transcript += r + '\n';
  };
  for (int i = 0; i < 4; ++i) {
    ask(event_request(i % 2 == 0 ? kFail : kAdd));
    ask("{\"op\":\"drain\"}");
  }
  laacad::Rng rng(5);
  for (int q = 0; q < 10; ++q) {
    std::ostringstream knn;
    JsonWriter w(knn, 0);
    w.begin_object();
    w.kv("op", q % 2 == 0 ? "knn" : "coverage");
    w.kv("x", rng.uniform(0.0, 300.0));
    w.kv("y", rng.uniform(0.0, 300.0));
    w.kv("k", 3);
    w.end_object();
    ask(knn.str());
  }
  ask("{\"op\":\"load\"}");
  svc.stop();
  std::ostringstream state;
  svc.write_state(state);
  transcript += state.str();
  res.gate(ok, "serve golden: a request failed");
  res.digest("serve_session", fnv1a(transcript));
}

}  // namespace

void report_serve_layers(const Options& opt, Result& res) {
  golden_session(res);
  const ServeSize z = serve_size(opt);
  const scenario::ScenarioSpec spec =
      serve_spec(z, laacad::Rng::derive(opt.seed, 0));
  Daemon d(start_service(spec));
  d.connect(std::max(1, opt.threads - 3));
  const auto base = schedule(laacad::Rng::derive(opt.seed, 1),
                             static_cast<int>(z.rate * z.loop_s), z);

  const OpenLoop plain = open_loop(d.fds(), base, z.rate);
  (void)d.call("{\"op\":\"drain\"}");
  res.count_ops(plain.total(), plain.failed());
  res.gate(plain.failed() == 0, "serve probe: errors in the base open loop");
  const serve::RequestLatency::VerbSnapshot knn =
      d.svc().request_latency().snapshot(serve::Verb::kKnn);
  OpenLoop traced;
  const Stages stages =
      with_timers([&] { traced = open_loop(d.fds(), base, z.rate); });
  stages.print(std::cerr, "serve open loop");
  res.count_ops(traced.total(), traced.failed());
  res.gate(traced.failed() == 0, "serve probe: errors in the traced loop");

  res.metric("serve.knn_queue_us_p50", p_us(knn.queue, 0.5), "us");
  res.metric("serve.knn_queue_us_p99", p_us(knn.queue, 0.99), "us");
  res.metric("serve.knn_query_us_p50", p_us(knn.query, 0.5), "us");
  res.metric("serve.knn_query_us_p99", p_us(knn.query, 0.99), "us");
  res.metric("serve.knn_serialize_us_p50", p_us(knn.serialize, 0.5), "us");
  res.metric("serve.knn_serialize_us_p99", p_us(knn.serialize, 0.99), "us");
  res.metric("serve.transport_us",
             p_us(plain.knn_service, 0.5) - p_us(knn.total, 0.5), "us");
  res.metric("serve.generator_late_us", p_us(plain.lateness, 0.99), "us");

  // In process, no transport: the handler cost per verb.
  (void)d.call("{\"op\":\"drain\"}");
  laacad::Rng rng(9);
  for (const char* verb : {"knn", "coverage", "load", "stats"}) {
    std::vector<double> us;
    for (int q = 0; q < 200; ++q) {
      std::ostringstream line;
      JsonWriter w(line, 0);
      w.begin_object();
      w.kv("op", verb);
      w.kv("x", rng.uniform(0.0, z.side));
      w.kv("y", rng.uniform(0.0, z.side));
      w.kv("k", 3);
      w.end_object();
      const std::string request = line.str();
      const Clock::time_point t0 = Clock::now();
      const serve::HandleResult r = serve::handle_line(d.svc(), request);
      us.push_back(us_since(t0));
      res.gate(response_ok(r.response), std::string("serve probe: in-process ") +
                                            verb + " failed");
    }
    res.metric(std::string("serve.handle_us_") + verb, median(us), "us");
  }
  check_final(d, spec.nodes, res);
}

}  // namespace perfbench
