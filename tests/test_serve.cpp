// Serving daemon tests: spec round-trip formatting, snapshot query
// correctness against brute force, the replay guarantee (served state ==
// batch replay of the event log, byte-for-byte, at any thread count),
// protocol sessions over the stdio transport and a real TCP socket, and a
// reader/round-loop concurrency stress designed to run under TSan.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flatjson.hpp"
#include "counting_buf.hpp"
#include "coverage/grid_checker.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "serve/event_log.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace laacad::serve {
namespace {

constexpr const char* kBaseSpec = R"(
name      serve_test
domain    square
side      200
nodes     24
k         2
seed      9
epsilon   0.5
max_rounds 120
battery   2.0e6
grid_resolution 5
)";

scenario::ScenarioSpec base_spec() {
  return scenario::parse_scenario_string(kBaseSpec);
}

std::string temp_path(const std::string& stem) {
  return testing::TempDir() + stem;
}

// ------------------------------------------------- format round-trips ----

TEST(SpecFormat, EventLinesRoundTrip) {
  const scenario::ScenarioSpec spec = scenario::parse_scenario_string(R"(
name roundtrip
nodes 30
k 2
event converged fail_nodes count=5 pick=max_range
event round=7 drain_battery fraction=0.25
event round=30 fail_nodes count=0 pick=region x0=0.1 y0=0.2 x1=0.5 y1=0.75
event converged drain_battery epochs=12.5
event converged add_nodes count=7 deploy=gaussian x=0.25 y=0.75 sigma=0.2
event converged add_nodes count=3 deploy=corner
event converged resize_boundary scale=0.8
event converged jam_region x0=0.1 y0=0.1 x1=0.4 y1=0.4
)");
  for (const scenario::Event& ev : spec.events) {
    const std::string line = scenario::format_event(ev);
    const scenario::ScenarioSpec re = scenario::parse_scenario_string(
        "nodes 30\nk 2\n" + line + "\n");
    ASSERT_EQ(re.events.size(), 1u) << line;
    const scenario::Event& back = re.events[0];
    EXPECT_EQ(back.trigger, ev.trigger) << line;
    EXPECT_EQ(back.round, ev.round) << line;
    EXPECT_EQ(back.type, ev.type) << line;
    EXPECT_EQ(back.count, ev.count) << line;
    EXPECT_EQ(back.pick, ev.pick) << line;
    EXPECT_EQ(back.deploy, ev.deploy) << line;
    EXPECT_DOUBLE_EQ(back.epochs, ev.epochs) << line;
    EXPECT_DOUBLE_EQ(back.fraction, ev.fraction) << line;
    EXPECT_DOUBLE_EQ(back.scale, ev.scale) << line;
    EXPECT_DOUBLE_EQ(back.lo.x, ev.lo.x) << line;
    EXPECT_DOUBLE_EQ(back.lo.y, ev.lo.y) << line;
    EXPECT_DOUBLE_EQ(back.hi.x, ev.hi.x) << line;
    EXPECT_DOUBLE_EQ(back.hi.y, ev.hi.y) << line;
    EXPECT_DOUBLE_EQ(back.at.x, ev.at.x) << line;
    EXPECT_DOUBLE_EQ(back.at.y, ev.at.y) << line;
    EXPECT_DOUBLE_EQ(back.sigma, ev.sigma) << line;
  }
}

TEST(SpecFormat, HeaderRoundTripsFieldForField) {
  scenario::ScenarioSpec spec = base_spec();
  spec.domain = "lshape";
  spec.hole = true;
  spec.deploy = "gaussian";
  spec.alpha = 0.75;
  spec.gamma = 42.5;
  spec.backend = "localized";
  spec.max_hops = 7;
  spec.noise = 0.01;
  spec.flooding = "ttl";
  const scenario::ScenarioSpec re =
      scenario::parse_scenario_string(scenario::format_spec_header(spec));
  EXPECT_EQ(re.name, spec.name);
  EXPECT_EQ(re.domain, spec.domain);
  EXPECT_DOUBLE_EQ(re.side, spec.side);
  EXPECT_EQ(re.hole, spec.hole);
  EXPECT_EQ(re.deploy, spec.deploy);
  EXPECT_EQ(re.nodes, spec.nodes);
  EXPECT_EQ(re.k, spec.k);
  EXPECT_DOUBLE_EQ(re.alpha, spec.alpha);
  EXPECT_DOUBLE_EQ(re.epsilon, spec.epsilon);
  EXPECT_EQ(re.max_rounds, spec.max_rounds);
  EXPECT_DOUBLE_EQ(re.gamma, spec.gamma);
  EXPECT_EQ(re.backend, spec.backend);
  EXPECT_EQ(re.max_hops, spec.max_hops);
  EXPECT_DOUBLE_EQ(re.noise, spec.noise);
  EXPECT_EQ(re.flooding, spec.flooding);
  EXPECT_EQ(re.seed, spec.seed);
  EXPECT_DOUBLE_EQ(re.battery, spec.battery);
  EXPECT_DOUBLE_EQ(re.grid_resolution, spec.grid_resolution);
}

TEST(SpecFormat, ParseEventBodyStampsDefaultTrigger) {
  const scenario::Event ev =
      scenario::parse_event_body("fail_nodes count=3 pick=random");
  EXPECT_EQ(ev.type, scenario::EventType::kFailNodes);
  EXPECT_EQ(ev.trigger, scenario::Trigger::kOnConvergence);
  EXPECT_EQ(ev.count, 3);
  EXPECT_THROW(scenario::parse_event_body("bogus_event count=1"),
               std::runtime_error);
  EXPECT_THROW(scenario::parse_event_body(""), std::runtime_error);
}

// ------------------------------------------------------ snapshot reads ----

TEST(Snapshot, ClosestNodesMatchesBruteForce) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();
  svc.drain();

  const auto snap = svc.snapshot();
  const auto positions = snap->network().positions();
  const geom::Vec2 queries[] = {
      {10.0, 10.0}, {100.0, 100.0}, {199.0, 3.0}, {50.0, 150.0}};
  for (const geom::Vec2 q : queries) {
    const auto got = snap->closest_nodes(q, 5);
    ASSERT_EQ(got.size(), 5u);
    std::vector<double> dists;
    for (const geom::Vec2 p : positions) dists.push_back((p - q).norm());
    std::sort(dists.begin(), dists.end());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].dist, dists[i], 1e-9);
      EXPECT_NEAR((got[i].pos - q).norm(), got[i].dist, 1e-9);
      if (i > 0) {
        EXPECT_GE(got[i].dist, got[i - 1].dist);
      }
    }
  }
}

TEST(Snapshot, CoverageDepthMatchesDiskCount) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();
  svc.drain();

  const auto snap = svc.snapshot();
  ASSERT_TRUE(snap->meta().finalized);
  const auto disks = cov::sensing_disks(snap->network());
  for (double x = 5.0; x < 200.0; x += 32.5)
    for (double y = 5.0; y < 200.0; y += 32.5) {
      const geom::Vec2 q{x, y};
      EXPECT_EQ(snap->coverage_depth(q), cov::depth_at(disks, q))
          << "at (" << x << ", " << y << ")";
    }
}

TEST(Snapshot, EpochsAreMonotonicAcrossPhases) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  const std::uint64_t initial = svc.snapshot()->meta().epoch;
  EXPECT_EQ(initial, 1u);
  // The publish cadence: one snapshot after every round that moves a node
  // and one at each phase end. Every phase here converges, and the
  // converging round moves nothing, so each round adds exactly one epoch.
  const auto one_epoch_per_round = [&svc] {
    const CoverageService::Stats s = svc.stats();
    EXPECT_EQ(s.epoch, static_cast<std::uint64_t>(s.global_round) + 1);
  };
  svc.start();
  svc.drain();
  const auto converged = svc.snapshot();
  EXPECT_GT(converged->meta().epoch, initial);
  EXPECT_TRUE(converged->meta().converged);
  one_epoch_per_round();
  svc.submit_event_line("fail_nodes count=2 pick=random");
  svc.drain();
  EXPECT_GT(svc.snapshot()->meta().epoch, converged->meta().epoch);
  EXPECT_EQ(svc.snapshot()->meta().events_applied, 1);
  EXPECT_TRUE(svc.snapshot()->meta().converged);
  one_epoch_per_round();
}

// ----------------------------------------------------- replay guarantee ----

/// Drive a service through a drained (deterministic) event sequence and
/// return the canonical state document.
std::string serve_session_state(const std::string& log_path,
                                int num_threads) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  cfg.spec.num_threads = num_threads;
  cfg.log_path = log_path;
  CoverageService svc(std::move(cfg));
  svc.start();
  svc.drain();
  svc.submit_event_line("fail_nodes count=4 pick=random");
  svc.drain();
  svc.submit_event_line("add_nodes count=6 deploy=gaussian x=0.3 y=0.3 sigma=0.15");
  svc.submit_event_line("drain_battery epochs=10");
  svc.drain();
  svc.submit_event_line("jam_region x0=0.6 y0=0.6 x1=0.9 y1=0.9");
  svc.stop();
  std::ostringstream out;
  svc.write_state(out);
  return out.str();
}

TEST(Replay, ServedStateEqualsBatchReplayByteForByte) {
  const std::string log_path = temp_path("serve_replay.log");
  const std::string served = serve_session_state(log_path, 1);

  std::ostringstream replayed;
  replay_log_state(log_path, replayed);
  EXPECT_EQ(served, replayed.str());

  // The engine is thread-count deterministic; the replay (and a re-serve)
  // must be too.
  std::ostringstream replayed_mt;
  replay_log_state(log_path, replayed_mt, /*num_threads=*/3);
  EXPECT_EQ(served, replayed_mt.str());

  const std::string log2 = temp_path("serve_replay_t2.log");
  EXPECT_EQ(serve_session_state(log2, 2), served);
}

TEST(Replay, RacySubmissionsStayReplayable) {
  // No drain() between submissions: where each event lands in the round
  // sequence depends on thread timing, so the state is not deterministic
  // across runs — but served state must STILL equal the replay of the log
  // that this run produced. That is the actual guarantee.
  const std::string log_path = temp_path("serve_racy.log");
  ServeConfig cfg;
  cfg.spec = base_spec();
  cfg.log_path = log_path;
  CoverageService svc(std::move(cfg));
  svc.start();
  svc.submit_event_line("fail_nodes count=3 pick=random");
  svc.submit_event_line("add_nodes count=5 deploy=corner");
  svc.submit_event_line("drain_battery fraction=0.2");
  svc.stop();

  std::ostringstream served, replayed;
  svc.write_state(served);
  replay_log_state(log_path, replayed);
  EXPECT_EQ(served.str(), replayed.str());
}

TEST(Replay, RejectedEventsAreNotLoggedAndDoNotPerturbState) {
  const std::string log_path = temp_path("serve_rejected.log");
  ServeConfig cfg;
  cfg.spec = base_spec();
  cfg.log_path = log_path;
  CoverageService svc(std::move(cfg));
  svc.start();
  svc.drain();
  // A jam swallowing the whole domain: parses fine, but apply_event throws
  // before touching the world, so the loop rejects it without a phase.
  svc.submit_event_line("jam_region x0=0.0 y0=0.0 x1=1.0 y1=1.0");
  svc.submit_event_line("fail_nodes count=2 pick=random");
  svc.stop();

  EXPECT_EQ(svc.stats().events_rejected, 1u);
  EXPECT_EQ(svc.stats().events_applied, 1u);
  std::ostringstream served, replayed;
  svc.write_state(served);
  replay_log_state(log_path, replayed);
  EXPECT_EQ(served.str(), replayed.str());
}

TEST(Replay, AbortPathStaysReplayable) {
  const std::string log_path = temp_path("serve_abort.log");
  ServeConfig cfg;
  cfg.spec = base_spec();
  cfg.log_path = log_path;
  CoverageService svc(std::move(cfg));
  svc.start();
  svc.drain();
  svc.submit_event_line("fail_nodes count=23 pick=random");  // 24 - 23 < k
  svc.drain();
  EXPECT_TRUE(svc.stats().aborted);
  EXPECT_THROW(svc.submit_event_line("fail_nodes count=1 pick=random"),
               std::runtime_error);
  svc.stop();

  std::ostringstream served, replayed;
  svc.write_state(served);
  replay_log_state(log_path, replayed);
  EXPECT_EQ(served.str(), replayed.str());
}

TEST(Service, OversizedArrivalIsRefusedAtSubmission) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();
  svc.drain();
  // Refused by the event parser, so the client gets ok:false and the loop
  // never sees (or allocates for) the event.
  const std::string over = std::to_string(scenario::kMaxNodes + 1);
  try {
    svc.submit_event_line("add_nodes count=" + over);
    FAIL() << "expected the submission to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("above kMaxNodes"),
              std::string::npos)
        << e.what();
  }
  const std::string response = handle_line(
      svc, R"({"op":"event","spec":"add_nodes count=100000000"})").response;
  bool ok = true;
  EXPECT_TRUE(flatjson::get_bool(response, "ok", &ok)) << response;
  EXPECT_FALSE(ok) << response;
  svc.stop();
  EXPECT_EQ(svc.stats().events_accepted, 0u);
  EXPECT_EQ(svc.stats().events_applied, 0u);
}

TEST(Service, QueuedArrivalsPastKMaxNodesAreRefusedAtSubmission) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  const int base = cfg.spec.nodes;
  // Never started, so nothing applies: both arrivals stay queued, and the
  // second is refused because the two together cross the bound.
  CoverageService svc(std::move(cfg));
  const std::string fits = std::to_string(scenario::kMaxNodes - base - 10);
  EXPECT_EQ(svc.submit_event_line("add_nodes count=" + fits), 1u);
  try {
    svc.submit_event_line("add_nodes count=20");
    FAIL() << "expected the submission to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("above kMaxNodes"),
              std::string::npos)
        << e.what();
  }
  const std::string response = handle_line(
      svc, R"({"op":"event","spec":"add_nodes count=20"})").response;
  bool ok = true;
  EXPECT_TRUE(flatjson::get_bool(response, "ok", &ok)) << response;
  EXPECT_FALSE(ok) << response;
  EXPECT_NE(response.find("above kMaxNodes"), std::string::npos) << response;
  // An arrival that still fits is accepted.
  EXPECT_EQ(svc.submit_event_line("add_nodes count=10"), 2u);
  EXPECT_EQ(svc.stats().events_accepted, 2u);
}

TEST(Service, RejectsSpecWithTimeline) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  cfg.spec.events.push_back({});
  EXPECT_THROW(CoverageService svc(std::move(cfg)), std::runtime_error);
}

// ----------------------------------------------------------- protocol ----

/// One scripted request against a fresh drained service.
std::string ask(CoverageService& svc, const std::string& line) {
  return handle_line(svc, line).response;
}

TEST(Protocol, SessionAnswersEveryOp) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();
  svc.drain();

  std::string op;
  double num = 0.0;
  bool flag = false;

  const std::string knn = ask(svc, R"({"op":"knn","x":50,"y":50,"k":3})");
  EXPECT_TRUE(flatjson::get_bool(knn, "ok", &flag) && flag) << knn;
  EXPECT_TRUE(flatjson::get_number(knn, "k", &num));
  EXPECT_EQ(num, 3.0);
  // k is checked as a number before any cast: NaN (null), 1e20 and 2.5
  // get one refusal line instead of undefined behaviour or a k of 2.
  for (const std::string k : {"null", "1e20", "2.5", "0", "-1"})
    EXPECT_EQ(ask(svc, R"({"op":"knn","x":50,"y":50,"k":)" + k + "}"),
              R"({"ok":false,"error":"knn needs an integer k >= 1"})")
        << "k=" << k;
  // A query far outside the nodes' grid still finds its k nearest.
  const std::string far = ask(svc, R"({"op":"knn","x":1e12,"y":0,"k":3})");
  std::string nodes;
  ASSERT_TRUE(flatjson::get_raw(far, "nodes", &nodes)) << far;
  std::size_t ids = 0;
  for (std::size_t at = nodes.find("\"id\""); at != std::string::npos;
       at = nodes.find("\"id\"", at + 1))
    ++ids;
  EXPECT_EQ(ids, 3u) << far;

  const std::string cov50 = ask(svc, R"({"op":"coverage","x":50,"y":50})");
  EXPECT_TRUE(flatjson::get_bool(cov50, "covered_k", &flag)) << cov50;
  EXPECT_TRUE(flatjson::get_number(cov50, "depth", &num));
  EXPECT_GE(num, 2.0);  // converged 2-coverage

  const std::string outside =
      ask(svc, R"({"op":"coverage","x":-50,"y":-50})");
  EXPECT_TRUE(flatjson::get_bool(outside, "in_domain", &flag));
  EXPECT_FALSE(flag);

  const std::string load = ask(svc, R"({"op":"load"})");
  EXPECT_TRUE(flatjson::get_number(load, "nodes", &num));
  EXPECT_EQ(num, 24.0);

  const std::string ev = ask(
      svc, R"({"op":"event","spec":"fail_nodes count=2 pick=random"})");
  EXPECT_TRUE(flatjson::get_bool(ev, "ok", &flag) && flag) << ev;
  EXPECT_TRUE(flatjson::get_number(ev, "id", &num));
  EXPECT_EQ(num, 1.0);

  const std::string drain = ask(svc, R"({"op":"drain"})");
  EXPECT_TRUE(flatjson::get_bool(drain, "converged", &flag) && flag);

  const std::string stats = ask(svc, R"({"op":"stats"})");
  EXPECT_TRUE(flatjson::get_number(stats, "events_applied", &num));
  EXPECT_EQ(num, 1.0);
  EXPECT_TRUE(flatjson::get_number(stats, "nodes", &num));
  EXPECT_EQ(num, 22.0);

  const std::string health = ask(svc, R"({"op":"health"})");
  EXPECT_TRUE(flatjson::get_string(health, "hb", &op));
  EXPECT_EQ(op, "serve");

  const std::string bad_event =
      ask(svc, R"({"op":"event","spec":"explode count=1"})");
  EXPECT_TRUE(flatjson::get_bool(bad_event, "ok", &flag));
  EXPECT_FALSE(flag);
  // An event body has no line number, so its errors carry no "line 0: ".
  EXPECT_TRUE(flatjson::get_string(bad_event, "error", &op));
  EXPECT_EQ(op, "unknown event type 'explode'");
  EXPECT_TRUE(flatjson::get_string(
      ask(svc, R"({"op":"event","spec":" "})"), "error", &op));
  EXPECT_EQ(op, "event body needs a type: <type> [name=value ...]");

  const std::string unknown = ask(svc, R"({"op":"frobnicate"})");
  EXPECT_TRUE(flatjson::get_bool(unknown, "ok", &flag));
  EXPECT_FALSE(flag);
  EXPECT_EQ(handle_line(svc, R"({"op":"frobnicate"})").action,
            HandleAction::kRespond);
  EXPECT_EQ(handle_line(svc, R"({"op":"shutdown"})").action,
            HandleAction::kShutdown);
}

TEST(Protocol, StdioTransportRunsAScriptedSession) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();

  std::istringstream in(
      "{\"op\":\"event\",\"spec\":\"fail_nodes count=2 pick=random\"}\n"
      "\n"
      "{\"op\":\"drain\"}\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"stats\"}\n");  // after shutdown: must not be answered
  std::ostringstream out;
  const int handled = serve_stdio(svc, in, out);
  EXPECT_EQ(handled, 4);
  EXPECT_FALSE(svc.running());

  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string l; std::getline(split, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 4u);
  bool flag = false;
  EXPECT_TRUE(flatjson::get_bool(lines[3], "stopping", &flag) && flag);
}

// On stdio too a peer that never sends '\n' cannot grow the daemon's
// memory: the line past kMaxRequestLineBytes earns the one error line TCP
// sends, and the session stops as at EOF.
TEST(Protocol, StdioOverlongLineGetsOneErrorThenStops) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();

  const std::string health = "{\"op\":\"health\"}\n";
  test::CountingBuf buf(64 * kMaxRequestLineBytes, health);
  std::istream in(&buf);
  std::ostringstream out;
  EXPECT_EQ(serve_stdio(svc, in, out), 1);
  EXPECT_FALSE(svc.running());
  // One buffer chunk past the cap at most.
  EXPECT_LE(buf.taken, health.size() + kMaxRequestLineBytes + 256);

  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string l; std::getline(split, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 2u) << out.str().substr(0, 200);
  EXPECT_EQ(lines[1], error_response("request line exceeds 65536 bytes; "
                                     "closing connection"));
}

/// A blocking socket connected to loopback `port`, or -1. A server that
/// never answers fails a receive after 30 s instead of hanging the test.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Append everything `fd` receives until an orderly EOF; false on a
/// receive error (a reset, a timeout).
bool read_to_eof(int fd, std::string* response) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return true;
    if (n < 0) return false;
    response->append(chunk, static_cast<std::size_t>(n));
  }
}

/// One blocking loopback TCP session: connect to `port`, send `request`,
/// read until the server closes. False on any socket error, including a
/// reset in place of an orderly EOF.
bool tcp_session(int port, const std::string& request, std::string* response) {
  const int fd = connect_loopback(port);
  if (fd < 0) return false;
  // Send while receiving: a burst whose answers outgrow the socket buffers
  // would otherwise deadlock against a server blocked on its writes.
  bool sent = true;
  std::thread sender([&] {
    for (std::size_t off = 0; sent && off < request.size();) {
      const ssize_t n =
          ::send(fd, request.data() + off, request.size() - off, 0);
      sent = n > 0;
      if (sent) off += static_cast<std::size_t>(n);
    }
  });
  const bool ok = read_to_eof(fd, response);
  // A receive that failed (e.g. timed out) must not leave the sender
  // blocked in send() forever: shutting the socket down makes it return.
  if (!ok) ::shutdown(fd, SHUT_RDWR);
  sender.join();
  ::close(fd);
  return ok && sent;
}

TEST(Protocol, TcpRoundTripOnEphemeralPort) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();

  TcpServer server(svc, /*port=*/0);
  ASSERT_GT(server.port(), 0);
  std::thread accept_thread([&] { server.serve(); });

  std::string response;
  EXPECT_TRUE(tcp_session(
      server.port(),
      "{\"op\":\"event\",\"spec\":\"fail_nodes count=2 pick=random\"}\n"
      "{\"op\":\"drain\"}\n"
      "{\"op\":\"load\"}\n"
      "{\"op\":\"shutdown\"}\n",
      &response));
  accept_thread.join();
  EXPECT_FALSE(svc.running());

  std::vector<std::string> lines;
  std::istringstream split(response);
  for (std::string l; std::getline(split, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 4u);
  double nodes = 0.0;
  EXPECT_TRUE(flatjson::get_number(lines[2], "nodes", &nodes));
  EXPECT_EQ(nodes, 22.0);
  bool flag = false;
  EXPECT_TRUE(flatjson::get_bool(lines[3], "stopping", &flag) && flag);
}

// A client that never sends a newline must not grow daemon memory without
// bound: one line past kMaxRequestLineBytes earns one protocol-error line
// and an orderly close, and the daemon keeps serving new connections.
TEST(Protocol, TcpOverlongLineGetsOneErrorThenEof) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();
  TcpServer server(svc, /*port=*/0);
  std::thread accept_thread([&] { server.serve(); });

  // Stream one byte past the cap and no newline. The server consumes all
  // of it before answering, so its close is an orderly EOF, not a reset.
  std::string reply;
  EXPECT_TRUE(tcp_session(server.port(),
                          std::string(kMaxRequestLineBytes + 1, 'x'), &reply));
  // The daemon still serves a new connection.
  std::string response;
  EXPECT_TRUE(tcp_session(server.port(),
                          "{\"op\":\"health\"}\n{\"op\":\"shutdown\"}\n",
                          &response));
  accept_thread.join();

  EXPECT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
  bool ok = true;
  EXPECT_TRUE(flatjson::get_bool(reply, "ok", &ok));
  EXPECT_FALSE(ok);
  std::string error;
  EXPECT_TRUE(flatjson::get_string(reply, "error", &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;

  std::vector<std::string> lines;
  std::istringstream split(response);
  for (std::string l; std::getline(split, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 2u) << response;
  EXPECT_EQ(lines[0].find("\"error\""), std::string::npos) << lines[0];
  bool flag = false;
  EXPECT_TRUE(flatjson::get_bool(lines[1], "stopping", &flag) && flag);
}

// A pipelined burst arrives in a few large reads; every request must be
// answered, once, in order.
TEST(Protocol, TcpPipelinedBurstAnsweredInOrder) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();
  TcpServer server(svc, /*port=*/0);
  std::thread accept_thread([&] { server.serve(); });

  constexpr int kRequests = 5000;
  std::string burst;
  for (int i = 0; i < kRequests; ++i)
    burst += "{\"op\":\"knn\",\"x\":50,\"y\":50,\"k\":" +
             std::to_string(1 + i % 4) + "}\n";
  burst += "{\"op\":\"shutdown\"}\n";
  std::string response;
  EXPECT_TRUE(tcp_session(server.port(), burst, &response));
  accept_thread.join();

  std::vector<std::string> lines;
  std::istringstream split(response);
  for (std::string l; std::getline(split, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests) + 1);
  for (int i = 0; i < kRequests; ++i) {
    const std::string& got = lines[static_cast<std::size_t>(i)];
    double k = 0.0;
    ASSERT_TRUE(flatjson::get_number(got, "k", &k)) << i << ": " << got;
    ASSERT_EQ(k, 1 + i % 4) << "response " << i << " out of order";
  }
  bool flag = false;
  EXPECT_TRUE(flatjson::get_bool(lines.back(), "stopping", &flag) && flag);
}

/// The process's virtual size in KiB (VmSize in /proc/self/status).
long vm_size_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  return -1;
}

// A connection's thread is joined once the connection ends. Left joinable,
// each finished worker keeps its stack mapped (about 8 MiB), so 1 000
// sequential connections would grow the daemon by gigabytes.
TEST(Protocol, TcpFinishedConnectionsAreReaped) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();
  TcpServer server(svc, /*port=*/0);
  std::thread accept_thread([&] { server.serve(); });

  const std::string health = "{\"op\":\"health\"}\n";
  const long before = vm_size_kib();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 1000; ++i) {
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0) << "connection " << i;
    std::string reply;
    const bool ok =
        ::send(fd, health.data(), health.size(), 0) ==
            static_cast<ssize_t>(health.size()) &&
        ::shutdown(fd, SHUT_WR) == 0 && read_to_eof(fd, &reply);
    ::close(fd);
    ASSERT_TRUE(ok) << "connection " << i;
    ASSERT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
  }
  const long growth_kib = vm_size_kib() - before;

  std::string response;
  EXPECT_TRUE(
      tcp_session(server.port(), "{\"op\":\"shutdown\"}\n", &response));
  accept_thread.join();
  EXPECT_LT(growth_kib, 256L * 1024) << "VmSize grew by " << growth_kib
                                     << " KiB over 1000 connections";
}

/// Send `request` on `fd` and read one response line; "" on a socket
/// error or EOF.
std::string ask_line(int fd, const std::string& request) {
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size()))
    return "";
  LineReader reader(fd);
  std::string line;
  return reader.next(&line) == LineReader::Status::kLine ? line : "";
}

// A peer that opens connections without end must not grow the daemon's
// threads without bound: past kMaxConnections live connections a new one
// gets one protocol-error line and an orderly close, the held ones keep
// being served, and a slot frees once one of them closes.
TEST(Protocol, TcpConnectionsPastTheCapGetOneErrorThenEof) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  CoverageService svc(std::move(cfg));
  svc.start();
  TcpServer server(svc, /*port=*/0);
  std::thread accept_thread([&] { server.serve(); });

  const std::string health = "{\"op\":\"health\"}\n";
  const auto answers_health = [&](int fd) {
    const std::string reply = ask_line(fd, health);
    return !reply.empty() && reply.find("\"error\"") == std::string::npos;
  };
  // Each held connection answers once before the next opens, so all of
  // them are live server-side when the extra one arrives.
  std::vector<int> held;
  for (std::size_t i = 0; i < kMaxConnections; ++i) {
    held.push_back(connect_loopback(server.port()));
    ASSERT_GE(held.back(), 0) << "connection " << i;
    ASSERT_TRUE(answers_health(held.back())) << "connection " << i;
  }

  const int extra = connect_loopback(server.port());
  ASSERT_GE(extra, 0);
  std::string reply;
  EXPECT_TRUE(read_to_eof(extra, &reply));
  ::close(extra);
  EXPECT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
  bool ok = true;
  EXPECT_TRUE(flatjson::get_bool(reply, "ok", &ok));
  EXPECT_FALSE(ok);
  std::string error;
  EXPECT_TRUE(flatjson::get_string(reply, "error", &error));
  EXPECT_NE(error.find("connections open"), std::string::npos) << error;

  for (std::size_t i = 0; i < held.size(); ++i)
    EXPECT_TRUE(answers_health(held[i])) << "held connection " << i;

  // Closing one held connection frees its slot once its worker sees the
  // EOF; until then a new connection may still be turned away.
  ::close(held.back());
  held.pop_back();
  bool served = false;
  for (int attempt = 0; attempt < 500 && !served; ++attempt) {
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    served = answers_health(fd);
    ::close(fd);
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served) << "no slot freed after a held connection closed";

  std::string stopping = ask_line(held.front(), "{\"op\":\"shutdown\"}\n");
  for (const int fd : held) ::close(fd);
  accept_thread.join();
  bool flag = false;
  EXPECT_TRUE(flatjson::get_bool(stopping, "stopping", &flag) && flag)
      << stopping;
}

// ---------------------------------------------------- concurrency (TSan) ----

// N reader threads hammer snapshot queries while the round loop applies a
// stream of churn events. Run under TSan (ctest -L tsan). Each reader
// asserts the consistency contract: epochs never go backwards, and every
// k-NN answer is internally consistent with the snapshot that produced it.
TEST(ServeStress, ConcurrentReadersSeeConsistentEpochs) {
  ServeConfig cfg;
  cfg.spec = base_spec();
  cfg.spec.max_rounds = 60;
  CoverageService svc(std::move(cfg));
  svc.start();

  constexpr int kReaders = 4;
  constexpr int kIters = 300;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&svc, &failed, r] {
      std::uint64_t last_epoch = 0;
      for (int i = 0; i < kIters; ++i) {
        const auto snap = svc.snapshot();
        const auto& meta = snap->meta();
        if (meta.epoch < last_epoch) {
          failed.store(true);
          return;
        }
        last_epoch = meta.epoch;
        // Self-consistency: the answer reflects this snapshot alone.
        const geom::Vec2 q{10.0 + 7.0 * r, 20.0 + 3.0 * (i % 11)};
        const auto nodes = snap->closest_nodes(q, 3);
        if (nodes.size() != static_cast<std::size_t>(
                                std::min(3, snap->size())) ||
            snap->size() < 2) {
          failed.store(true);
          return;
        }
        for (std::size_t j = 1; j < nodes.size(); ++j)
          if (nodes[j].dist < nodes[j - 1].dist) {
            failed.store(true);
            return;
          }
        (void)snap->coverage_depth(q);
        (void)svc.stats();
      }
    });
  }

  // Writer: interleave accepted churn (and one rejected event) while the
  // readers run.
  for (int burst = 0; burst < 3; ++burst) {
    svc.submit_event_line("fail_nodes count=1 pick=random");
    svc.submit_event_line("add_nodes count=1 deploy=uniform");
  }
  // Whole-domain jam: accepted into the queue, rejected at apply time.
  svc.submit_event_line("jam_region x0=0.0 y0=0.0 x1=1.0 y1=1.0");

  for (std::thread& t : readers) t.join();
  svc.stop();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(svc.stats().events_rejected, 1u);
  EXPECT_EQ(svc.stats().events_applied, 6u);
}

// -------------------------------------------------------- event log I/O ----

TEST(EventLog, HeaderAndAppendsAreFlushedScenarioLines) {
  const std::string path = temp_path("event_log_basic.scn");
  scenario::ScenarioSpec spec = base_spec();
  EventLog log(path, spec);
  EXPECT_TRUE(log.enabled());

  scenario::Event ev = scenario::parse_event_body("fail_nodes count=2");
  ev.trigger = scenario::Trigger::kAtRound;
  ev.round = 17;
  log.append(ev);
  EXPECT_EQ(log.events_written(), 1u);

  // Parseable mid-session thanks to the per-append flush.
  const scenario::ScenarioSpec re = scenario::load_scenario_file(path);
  EXPECT_EQ(re.name, "serve_test");
  ASSERT_EQ(re.events.size(), 1u);
  EXPECT_EQ(re.events[0].round, 17);
  EXPECT_EQ(re.events[0].trigger, scenario::Trigger::kAtRound);
}

TEST(EventLog, DisabledLogIsInert) {
  scenario::ScenarioSpec spec = base_spec();
  EventLog log("", spec);
  EXPECT_FALSE(log.enabled());
  scenario::Event ev = scenario::parse_event_body("fail_nodes count=1");
  log.append(ev);  // no-op, no throw
  EXPECT_EQ(log.events_written(), 0u);
}

}  // namespace
}  // namespace laacad::serve
