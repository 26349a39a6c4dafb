#include "serve/protocol.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/flatjson.hpp"
#include "common/json_writer.hpp"
#include "obs/trace.hpp"

namespace laacad::serve {

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Common prologue of snapshot-backed responses.
void snapshot_header(JsonWriter& w, const Snapshot& snap) {
  w.kv("ok", true);
  w.kv("epoch", static_cast<std::int64_t>(snap.meta().epoch));
  w.kv("round", snap.meta().global_round);
}

/// Marks the query -> serialize phase boundary inside a handler. The
/// constructor starts the query phase; serialize() flips; the destructor
/// closes whichever phase is open into `d`. Handlers that error out mid-
/// parse simply never flip — the whole cost lands in the query phase.
/// Each phase is also emitted as a span ("req_query"/"req_serialize"), so
/// a traced daemon's TraceReport carries the same breakdown as histograms.
class PhaseClock {
 public:
  explicit PhaseClock(PhaseDurations* d) : d_(d), mark_(Clock::now()) {}
  void serialize() {
    const Clock::time_point now = Clock::now();
    d_->query_ns += ns_between(mark_, now);
    obs::emit_span("req_query", mark_, now, 0);
    mark_ = now;
    in_query_ = false;
  }
  ~PhaseClock() {
    const Clock::time_point now = Clock::now();
    const std::uint64_t ns = ns_between(mark_, now);
    if (in_query_) {
      d_->query_ns += ns;
      obs::emit_span("req_query", mark_, now, 0);
    } else {
      d_->serialize_ns += ns;
      obs::emit_span("req_serialize", mark_, now, 0);
    }
  }

 private:
  PhaseDurations* d_;
  Clock::time_point mark_;
  bool in_query_ = true;
};

std::string handle_knn(CoverageService& svc, const std::string& line,
                       PhaseDurations* d) {
  PhaseClock phase(d);
  double x = 0.0, y = 0.0, kd = 0.0;
  if (!flatjson::get_number(line, "x", &x) ||
      !flatjson::get_number(line, "y", &y) || !std::isfinite(x) ||
      !std::isfinite(y))
    return error_response("knn needs finite numbers x and y");
  int k = 1;
  if (flatjson::get_number(line, "k", &kd)) {
    // Checked as a double: casting a NaN, 1e20 or 2.5 would be undefined
    // or silently serve another k.
    if (!(kd >= 1.0 && kd <= std::numeric_limits<int>::max()) ||
        kd != std::floor(kd))
      return error_response("knn needs an integer k >= 1");
    k = static_cast<int>(kd);
  }

  const auto snap = svc.snapshot();
  const auto nodes = snap->closest_nodes({x, y}, k);

  phase.serialize();
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  snapshot_header(w, *snap);
  w.kv("k", k);
  w.key("nodes").begin_array();
  for (const NeighborInfo& info : nodes) {
    w.begin_object();
    w.kv("id", info.id);
    w.kv("x", info.pos.x);
    w.kv("y", info.pos.y);
    w.kv("range", info.sensing_range);
    w.kv("dist", info.dist);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out.str();
}

std::string handle_coverage(CoverageService& svc, const std::string& line,
                            PhaseDurations* d) {
  PhaseClock phase(d);
  double x = 0.0, y = 0.0;
  if (!flatjson::get_number(line, "x", &x) ||
      !flatjson::get_number(line, "y", &y) || !std::isfinite(x) ||
      !std::isfinite(y))
    return error_response("coverage needs finite numbers x and y");

  const auto snap = svc.snapshot();
  const int depth = snap->coverage_depth({x, y});
  const bool covered = depth >= svc.spec().k;
  const bool in_domain = snap->domain().contains({x, y});

  phase.serialize();
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  snapshot_header(w, *snap);
  w.kv("depth", depth);
  w.kv("covered_k", covered);
  w.kv("in_domain", in_domain);
  w.end_object();
  return out.str();
}

std::string handle_load(CoverageService& svc, PhaseDurations* d) {
  PhaseClock phase(d);
  const auto snap = svc.snapshot();

  phase.serialize();
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  snapshot_header(w, *snap);
  w.kv("nodes", snap->size());
  w.kv("max_range", snap->load().max_range);
  w.kv("min_range", snap->load().min_range);
  w.key("load").begin_object();
  w.kv("max", snap->load().max_load);
  w.kv("min", snap->load().min_load);
  w.kv("total", snap->load().total_load);
  w.kv("fairness", snap->load().fairness);
  w.end_object();
  w.end_object();
  return out.str();
}

std::string handle_stats(CoverageService& svc, PhaseDurations* d) {
  PhaseClock phase(d);
  const CoverageService::Stats s = svc.stats();
  const double snapshot_age_s = svc.snapshot_age_s();
  const int staleness = svc.snapshot_staleness_rounds();
  const obs::Histogram publish = svc.publish_histogram();

  phase.serialize();
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.kv("ok", true);
  w.kv("epoch", static_cast<std::int64_t>(s.epoch));
  w.kv("round", s.global_round);
  w.kv("phases", s.phases);
  w.kv("nodes", s.nodes);
  w.kv("converged", s.converged);
  w.kv("aborted", s.aborted);
  w.kv("idle", s.idle);
  w.kv("events_accepted", static_cast<std::int64_t>(s.events_accepted));
  w.kv("events_applied", static_cast<std::int64_t>(s.events_applied));
  w.kv("events_rejected", static_cast<std::int64_t>(s.events_rejected));
  w.kv("queue_depth", static_cast<std::int64_t>(s.queue_depth));
  w.kv("queries", static_cast<std::int64_t>(s.queries));
  // Serving-health block: snapshot freshness plus the publish-cost
  // distribution. Wall-clock values — reading them here is fine, copying
  // them into a deterministic artifact is not.
  w.key("serve").begin_object();
  w.kv("snapshot_age_s", snapshot_age_s);
  w.kv("snapshot_staleness_rounds", staleness);
  w.key("publish");
  publish.write_percentiles_json(w);
  w.end_object();
  // Per-verb request latency, split queue/query/serialize.
  w.key("latency");
  svc.request_latency().write_stats_json(w);
  w.end_object();
  return out.str();
}

std::string handle_health(CoverageService& svc, PhaseDurations* d) {
  PhaseClock phase(d);
  // The health endpoint *is* the heartbeat schema — one line, `{"hb":...`,
  // parseable by obs::parse_heartbeat like any fleet heartbeat stream.
  const obs::Heartbeat hb = svc.health();
  phase.serialize();
  std::string line = obs::format_heartbeat(hb);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

std::string handle_event(CoverageService& svc, const std::string& line,
                         PhaseDurations* d) {
  PhaseClock phase(d);
  std::string body;
  if (!flatjson::get_string(line, "spec", &body) || body.empty())
    return error_response(
        "event needs spec: the event body, e.g. "
        "{\"op\":\"event\",\"spec\":\"add_nodes count=5\"}");
  std::uint64_t id = 0;
  try {
    id = svc.submit_event_line(body);
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
  phase.serialize();
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.kv("ok", true);
  w.kv("id", static_cast<std::int64_t>(id));
  w.end_object();
  return out.str();
}

std::string handle_drain(CoverageService& svc, PhaseDurations* d) {
  PhaseClock phase(d);
  svc.drain();
  const auto snap = svc.snapshot();
  phase.serialize();
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  snapshot_header(w, *snap);
  w.kv("converged", snap->meta().converged);
  w.kv("aborted", snap->meta().aborted);
  w.end_object();
  return out.str();
}

}  // namespace

std::string error_response(const std::string& what) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.kv("ok", false);
  w.kv("error", what);
  w.end_object();
  return out.str();
}

HandleResult handle_line(CoverageService& svc, const std::string& line) {
  return handle_line(svc, line, Clock::now());
}

HandleResult handle_line(CoverageService& svc, const std::string& line,
                         std::chrono::steady_clock::time_point received_at) {
  obs::ScopedSpan request_span("request");
  const Clock::time_point dispatched = Clock::now();
  svc.count_query();

  PhaseDurations d;
  d.queue_ns = ns_between(received_at, dispatched);

  std::string op;
  HandleResult result;
  if (!flatjson::get_string(line, "op", &op) || op.empty()) {
    result = {error_response("request needs op: knn, coverage, load, stats, "
                             "health, event, drain, or shutdown"),
              HandleAction::kRespond};
    d.total_ns = d.queue_ns + ns_between(dispatched, Clock::now());
    svc.request_latency().record(Verb::kOther, d);
    return result;
  }

  const Verb verb = verb_from_op(op);
  {
    obs::ScopedSpan dispatch_span("req_dispatch",
                                  static_cast<std::int64_t>(verb));
    if (op == "knn") result.response = handle_knn(svc, line, &d);
    else if (op == "coverage") result.response = handle_coverage(svc, line, &d);
    else if (op == "load") result.response = handle_load(svc, &d);
    else if (op == "stats") result.response = handle_stats(svc, &d);
    else if (op == "health") result.response = handle_health(svc, &d);
    else if (op == "event") result.response = handle_event(svc, line, &d);
    else if (op == "drain") result.response = handle_drain(svc, &d);
    else if (op == "shutdown") {
      std::ostringstream out;
      JsonWriter w(out, /*indent=*/0);
      w.begin_object();
      w.kv("ok", true);
      w.kv("stopping", true);
      w.end_object();
      result = {out.str(), HandleAction::kShutdown};
    } else {
      result.response = error_response("unknown op '" + op + "'");
    }
  }

  d.total_ns = d.queue_ns + ns_between(dispatched, Clock::now());
  svc.request_latency().record(verb, d);
  return result;
}

}  // namespace laacad::serve
