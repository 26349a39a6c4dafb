#include "serve/bench.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/flatjson.hpp"
#include "common/json_writer.hpp"
#include "serve/server.hpp"

namespace laacad::serve {

namespace {

using Clock = std::chrono::steady_clock;

int op_index(const std::string& op) {
  for (std::size_t i = 0; i < kBenchOps.size(); ++i)
    if (op == kBenchOps[i]) return static_cast<int>(i);
  return -1;
}

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("bench: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw std::runtime_error("bench: cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  // Same reasoning as the server side: request/response turnarounds must
  // not wait out Nagle + delayed ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// A response is a protocol success if it says so — except `health`, whose
/// response *is* a heartbeat line (`{"hb":...}`) rather than an ok object.
bool response_ok(int op_idx, const std::string& response) {
  if (op_idx >= 0 && kBenchOps[static_cast<std::size_t>(op_idx)] ==
                         std::string_view("health"))
    return response.rfind("{\"hb\"", 0) == 0;
  bool ok = false;
  return flatjson::get_bool(response, "ok", &ok) && ok;
}

/// One in-flight request, pushed by the sender before the bytes leave and
/// popped by the receiver in response order (the protocol answers in order
/// per connection).
struct Pending {
  Clock::time_point sched;
  Clock::time_point sent;
  int op_idx;
};

/// Per-connection accumulator; merged into BenchResult after join. Kept
/// connection-local so the hot paths never share a cache line.
struct ConnStats {
  std::array<obs::Histogram, kBenchOps.size()> latency;
  std::array<obs::Histogram, kBenchOps.size()> service;
  std::array<std::uint64_t, kBenchOps.size()> ok{};
  std::array<std::uint64_t, kBenchOps.size()> errors{};
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t transport_errors = 0;
  Clock::time_point first_send;  ///< scheduled time of the first request
  Clock::time_point last_recv;
};

/// Open-loop worker pair for one connection: the sender honors the global
/// schedule no matter how the server behaves; the receiver matches
/// responses FIFO and charges each from its *scheduled* time.
void run_open_loop(int fd, const std::vector<const ScheduledRequest*>& reqs,
                   const std::vector<Clock::time_point>& times,
                   ConnStats* stats) {
  std::mutex mu;
  std::deque<Pending> inflight;

  std::thread receiver([&] {
    LineReader reader(fd);
    std::string line;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reader.next(&line) != LineReader::Status::kLine) {
        stats->transport_errors += reqs.size() - i;
        return;
      }
      const Clock::time_point now = Clock::now();
      Pending p;
      {
        std::lock_guard<std::mutex> lk(mu);
        p = inflight.front();
        inflight.pop_front();
      }
      ++stats->received;
      stats->last_recv = now;
      const auto op = static_cast<std::size_t>(p.op_idx);
      if (response_ok(p.op_idx, line)) ++stats->ok[op];
      else ++stats->errors[op];
      stats->latency[op].record(ns_between(p.sched, now));
      stats->service[op].record(ns_between(p.sent, now));
    }
  });

  if (!times.empty()) stats->first_send = times[0];
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    std::this_thread::sleep_until(times[i]);
    Pending p;
    p.sched = times[i];
    p.sent = Clock::now();
    p.op_idx = op_index(reqs[i]->op);
    {
      std::lock_guard<std::mutex> lk(mu);
      inflight.push_back(p);
    }
    if (!write_all(fd, reqs[i]->line + "\n")) {
      ++stats->transport_errors;
      {
        std::lock_guard<std::mutex> lk(mu);
        inflight.pop_back();
      }
      break;
    }
    ++stats->sent;
  }
  ::shutdown(fd, SHUT_WR);  // receiver unblocks once responses run out
  receiver.join();
}

/// Closed-loop worker: each request departs when the previous response is
/// in, so scheduled == actual and latency == service time by construction.
void run_closed_loop(int fd, const std::vector<const ScheduledRequest*>& reqs,
                     ConnStats* stats) {
  LineReader reader(fd);
  std::string line;
  bool first = true;
  for (const ScheduledRequest* req : reqs) {
    const Clock::time_point sent = Clock::now();
    if (first) {
      stats->first_send = sent;
      first = false;
    }
    if (!write_all(fd, req->line + "\n") ||
        reader.next(&line) != LineReader::Status::kLine) {
      ++stats->transport_errors;
      return;
    }
    ++stats->sent;
    const Clock::time_point now = Clock::now();
    const int op_idx = op_index(req->op);
    const auto op = static_cast<std::size_t>(op_idx);
    ++stats->received;
    stats->last_recv = now;
    if (response_ok(op_idx, line)) ++stats->ok[op];
    else ++stats->errors[op];
    const std::uint64_t ns = ns_between(sent, now);
    stats->latency[op].record(ns);
    stats->service[op].record(ns);
  }
}

void write_percentile_pair(JsonWriter& w, const BenchVerbStats& v) {
  w.begin_object();
  w.key("latency");
  v.latency.write_percentiles_json(w);
  w.key("service");
  v.service.write_percentiles_json(w);
  // The full encoding stays on one line — sparse bucket pairs exploded
  // across the indented document would bury the readable part.
  std::ostringstream hist;
  JsonWriter hw(hist, /*indent=*/0);
  v.latency.write_json(hw);
  w.key("latency_hist").raw_value(hist.str());
  w.end_object();
}

}  // namespace

BenchResult run_bench(const WorkloadSpec& spec, double side, int port) {
  BenchResult r;
  r.spec = spec;
  r.side = side;

  const std::vector<ScheduledRequest> schedule = expand_schedule(spec, side);
  for (const ScheduledRequest& req : schedule) {
    const int idx = op_index(req.op);
    if (idx >= 0) ++r.per_op[static_cast<std::size_t>(idx)].scheduled;
  }

  // Round-robin the schedule across connections, preserving global order
  // within each connection.
  const auto conns = static_cast<std::size_t>(spec.connections);
  std::vector<std::vector<const ScheduledRequest*>> assigned(conns);
  std::vector<std::vector<Clock::time_point>> times(conns);
  std::vector<int> fds(conns, -1);
  for (std::size_t c = 0; c < conns; ++c) fds[c] = connect_to(port);

  // Schedule origin slightly in the future so every sender thread is
  // already parked in sleep_until when request 0 comes due.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(50);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::size_t c = i % conns;
    assigned[c].push_back(&schedule[i]);
    if (spec.rate > 0.0)
      times[c].push_back(start + std::chrono::nanoseconds(static_cast<
                             std::int64_t>(1e9 * static_cast<double>(i) /
                                           spec.rate)));
  }

  std::vector<ConnStats> stats(conns);
  std::vector<std::thread> workers;
  workers.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      if (spec.rate > 0.0)
        run_open_loop(fds[c], assigned[c], times[c], &stats[c]);
      else
        run_closed_loop(fds[c], assigned[c], &stats[c]);
    });
  }
  for (std::thread& t : workers) t.join();

  // Wall clock spans the first (scheduled) send to the last receive.
  Clock::time_point first_send = Clock::time_point::max();
  Clock::time_point last_recv = Clock::time_point::min();
  for (std::size_t c = 0; c < conns; ++c) {
    const ConnStats& s = stats[c];
    r.sent += s.sent;
    r.received += s.received;
    r.transport_errors += s.transport_errors;
    if (s.sent > 0 && s.first_send < first_send) first_send = s.first_send;
    if (s.received > 0 && s.last_recv > last_recv) last_recv = s.last_recv;
    for (std::size_t op = 0; op < kBenchOps.size(); ++op) {
      r.per_op[op].ok += s.ok[op];
      r.per_op[op].errors += s.errors[op];
      r.per_op[op].latency.merge(s.latency[op]);
      r.per_op[op].service.merge(s.service[op]);
    }
    ::close(fds[c]);
  }
  r.wall_s = last_recv > first_send
                 ? static_cast<double>(ns_between(first_send, last_recv)) / 1e9
                 : 0.0;
  r.achieved_rate_per_s =
      r.wall_s > 0.0 ? static_cast<double>(r.received) / r.wall_s : 0.0;

  // Control epilogue on a fresh connection: make sure every churn event is
  // applied, then capture the server-side breakdown.
  const int ctl = connect_to(port);
  LineReader reader(ctl);
  std::string line;
  const auto answered = [&] {
    return reader.next(&line) == LineReader::Status::kLine;
  };
  if (write_all(ctl, "{\"op\":\"drain\"}\n") && answered() &&
      write_all(ctl, "{\"op\":\"stats\"}\n") && answered()) {
    r.final_stats = line;
  } else {
    ++r.transport_errors;
  }
  if (write_all(ctl, "{\"op\":\"shutdown\"}\n")) (void)answered();
  ::close(ctl);
  return r;
}

void write_bench_report(const BenchResult& r, std::ostream& out) {
  JsonWriter w(out, /*indent=*/2);
  w.begin_object();
  w.kv("name", r.spec.name);

  // Everything under "deterministic" is a pure function of the workload
  // spec on a healthy run: tests diff this subtree byte-for-byte across
  // runs and thread counts.
  w.key("deterministic").begin_object();
  w.key("workload").begin_object();
  w.kv("requests", r.spec.requests);
  w.kv("rate", r.spec.rate);
  w.kv("connections", r.spec.connections);
  w.kv("seed", static_cast<std::uint64_t>(r.spec.seed));
  w.kv("knn_k", r.spec.knn_k);
  w.key("mix").begin_object();
  w.kv("knn", r.spec.mix_knn);
  w.kv("coverage", r.spec.mix_coverage);
  w.kv("load", r.spec.mix_load);
  w.kv("stats", r.spec.mix_stats);
  w.kv("health", r.spec.mix_health);
  w.end_object();
  w.key("churn").begin_array();
  for (const ChurnSpec& c : r.spec.churn) {
    w.begin_object();
    w.kv("every", c.every);
    w.kv("body", c.body);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.kv("side", r.side);
  w.key("scheduled_per_op").begin_object();
  for (std::size_t op = 0; op < kBenchOps.size(); ++op)
    w.kv(kBenchOps[op], r.per_op[op].scheduled);
  w.end_object();
  std::uint64_t total_ok = 0, total_errors = 0;
  for (const BenchVerbStats& v : r.per_op) {
    total_ok += v.ok;
    total_errors += v.errors;
  }
  w.kv("responses_ok", total_ok);
  w.kv("protocol_errors", total_errors);
  w.kv("transport_errors", r.transport_errors);
  w.end_object();

  // Timing: wall-clock-derived, varies run to run by design.
  w.key("timing").begin_object();
  w.kv("wall_s", r.wall_s);
  w.kv("achieved_rate_per_s", r.achieved_rate_per_s);
  w.kv("offered_rate_per_s", r.spec.rate);
  w.key("per_op").begin_object();
  for (std::size_t op = 0; op < kBenchOps.size(); ++op) {
    if (r.per_op[op].scheduled == 0) continue;
    w.key(kBenchOps[op]);
    write_percentile_pair(w, r.per_op[op]);
  }
  w.end_object();
  // Server-side breakdown, spliced verbatim from the captured stats
  // response: "serve" (snapshot freshness + publish cost) and "latency"
  // (per-verb queue/query/serialize percentiles).
  std::string raw;
  w.key("server").begin_object();
  if (flatjson::get_raw(r.final_stats, "serve", &raw))
    w.key("serve").raw_value(raw);
  if (flatjson::get_raw(r.final_stats, "latency", &raw))
    w.key("latency").raw_value(raw);
  w.end_object();  // server
  w.end_object();  // timing
  w.end_object();
  out << '\n';
}

}  // namespace laacad::serve
