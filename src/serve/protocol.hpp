// Newline-delimited JSON request protocol of the serving daemon.
//
// One request per line, one flat JSON object, dispatched on "op":
//
//   {"op":"knn","x":150,"y":150,"k":3}     k nearest nodes to (x, y)
//   {"op":"coverage","x":150,"y":150}      sensing-coverage depth at (x, y)
//   {"op":"load"}                          load report of the snapshot
//   {"op":"stats"}                         service counters + latencies
//   {"op":"health"}                        heartbeat-schema health object
//   {"op":"event","spec":"fail_nodes count=3 pick=random"}
//                                          submit a churn event (the spec
//                                          event vocabulary, no trigger —
//                                          the daemon stamps the round)
//   {"op":"drain"}                         block until all events applied
//   {"op":"shutdown"}                      graceful stop
//
// Every response is one line. Errors: {"ok":false,"error":"..."}. Query
// responses carry the snapshot epoch and round they answered from, so a
// client can correlate answers with published state.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "serve/service.hpp"

namespace laacad::serve {

/// What the transport should do after sending the response.
enum class HandleAction {
  kRespond,   ///< send the response, keep the connection open
  kShutdown,  ///< send the response, then stop the service and transports
};

struct HandleResult {
  std::string response;  ///< one line, no trailing newline
  HandleAction action = HandleAction::kRespond;
};

/// Nanoseconds from `a` to `b`; 0 when `b` is not later.
std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b);

/// The one-line {"ok":false,"error":<what>} response every error takes.
std::string error_response(const std::string& what);

/// Parse and execute one request line. Never throws: malformed input and
/// rejected events become {"ok":false,...} responses. `shutdown` returns
/// kShutdown with the response; the transport owns calling
/// CoverageService::stop() (so it can stop accepting first).
///
/// Every request is recorded into the service's RequestLatency, attributed
/// to its verb and split into queue (received_at -> dispatch), query, and
/// serialize phases. The first overload stamps received_at = now (zero
/// queue wait); transports that know when the line finished arriving pass
/// it explicitly so head-of-line blocking on a connection is measured.
HandleResult handle_line(CoverageService& svc, const std::string& line);
HandleResult handle_line(CoverageService& svc, const std::string& line,
                         std::chrono::steady_clock::time_point received_at);

}  // namespace laacad::serve
