#include "serve/event_log.hpp"

#include <ostream>
#include <stdexcept>

#include "common/json_writer.hpp"
#include "scenario/runner.hpp"
#include "wsn/energy.hpp"

namespace laacad::serve {

EventLog::EventLog(const std::string& path,
                   const scenario::ScenarioSpec& spec)
    : path_(path) {
  if (path_.empty()) return;
  out_.open(path_, std::ios::trunc);
  if (!out_)
    throw std::runtime_error("cannot open event log for writing: " + path_);
  out_ << "# LAACAD serve event log: a replayable scenario spec.\n"
       << "# Events are appended as the daemon accepts them, stamped with\n"
       << "# the global round they were applied at.\n"
       << scenario::format_spec_header(spec);
  out_.flush();
  if (!out_) throw std::runtime_error("cannot write event log: " + path_);
}

void EventLog::append(const scenario::Event& ev) {
  if (!out_.is_open()) return;
  out_ << scenario::format_event(ev) << '\n';
  out_.flush();
  if (!out_) throw std::runtime_error("cannot append to event log: " + path_);
  ++events_;
}

void write_network_state(std::ostream& out, const wsn::Network& net,
                         const StateInfo& info) {
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "laacad.serve.state.v1");
  w.kv("name", info.name);
  w.kv("total_rounds", info.total_rounds);
  w.kv("phases", info.phases);
  w.kv("events_applied", info.events_applied);
  w.kv("aborted", info.aborted);
  w.kv("nodes", net.size());
  w.kv("gamma", net.gamma());

  const wsn::LoadReport load = wsn::load_report(net);
  w.kv("max_range", load.max_range);
  w.kv("min_range", load.min_range);

  w.key("load").begin_object();
  w.kv("max", load.max_load);
  w.kv("min", load.min_load);
  w.kv("total", load.total_load);
  w.kv("fairness", load.fairness);
  w.end_object();

  const scenario::CoverageCheck coverage =
      scenario::check_coverage(net, info.k, info.grid_resolution);
  w.key("coverage").begin_object();
  w.kv("min_depth", coverage.min_depth);
  w.kv("mean_depth", coverage.mean_depth);
  w.kv("fraction_at_k", coverage.fraction_at_k);
  w.end_object();

  w.key("positions").begin_array();
  for (const geom::Vec2 p : net.positions()) {
    w.begin_array();
    w.value(p.x);
    w.value(p.y);
    w.end_array();
  }
  w.end_array();

  w.key("sensing_ranges").begin_array();
  for (const double r : net.sensing_ranges()) w.value(r);
  w.end_array();

  w.end_object();
  out << '\n';
}

void replay_log_state(const std::string& log_path, std::ostream& out,
                      int num_threads) {
  scenario::ScenarioSpec spec = scenario::load_scenario_file(log_path);
  if (num_threads >= 0) spec.num_threads = num_threads;
  scenario::ScenarioRunner runner(std::move(spec));
  const scenario::ScenarioResult result = runner.run();

  StateInfo info;
  info.name = result.spec.name;
  info.total_rounds = result.total_rounds;
  info.phases = static_cast<int>(result.phases.size());
  info.events_applied = static_cast<int>(result.events.size());
  info.aborted = result.aborted;
  info.grid_resolution = result.spec.grid_resolution;
  info.k = result.spec.k;
  write_network_state(out, runner.network(), info);
}

}  // namespace laacad::serve
