#include "scenario/spec.hpp"

#include <cmath>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/json_writer.hpp"
#include "common/specparse.hpp"

namespace laacad::scenario {

namespace {

using specparse::fail;
using specparse::parse_double;
using specparse::parse_int;
using specparse::tokenize;
using Key = specparse::Key<ScenarioSpec>;

/// The physical keys: the experiment's configuration, and the only keys a
/// campaign may fix or sweep (set_key).
constexpr Key kPhysicalKeys[] = {
    {"domain", &ScenarioSpec::domain},   {"side", &ScenarioSpec::side},
    {"hole", &ScenarioSpec::hole},       {"deploy", &ScenarioSpec::deploy},
    {"nodes", &ScenarioSpec::nodes},     {"k", &ScenarioSpec::k},
    {"alpha", &ScenarioSpec::alpha},     {"epsilon", &ScenarioSpec::epsilon},
    {"max_rounds", &ScenarioSpec::max_rounds},
    {"gamma", &ScenarioSpec::gamma},     {"backend", &ScenarioSpec::backend},
    {"max_hops", &ScenarioSpec::max_hops},
    {"noise", &ScenarioSpec::noise},     {"flooding", &ScenarioSpec::flooding},
    {"battery", &ScenarioSpec::battery},
    {"grid_resolution", &ScenarioSpec::grid_resolution}};

/// Identity keys: part of the experiment, so format_spec_header writes
/// them, but never swept (a campaign derives each trial's seed).
constexpr Key kIdentityKeys[] = {{"name", &ScenarioSpec::name},
                                 {"seed", &ScenarioSpec::seed}};

/// Execution and output details: parsed, never written.
constexpr Key kExecutionKeys[] = {{"threads", &ScenarioSpec::num_threads},
                                  {"history", &ScenarioSpec::history}};

/// `name=value` pairs trailing an event line.
std::unordered_map<std::string, std::string> parse_args(
    const std::vector<std::string>& toks, std::size_t first, int line) {
  std::unordered_map<std::string, std::string> out;
  for (std::size_t i = first; i < toks.size(); ++i) {
    const auto eq = toks[i].find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == toks[i].size())
      fail(line, "event argument '" + toks[i] + "' is not name=value");
    if (!out.emplace(toks[i].substr(0, eq), toks[i].substr(eq + 1)).second)
      fail(line, "duplicate event argument '" + toks[i].substr(0, eq) + "'");
  }
  return out;
}

Event parse_event(const std::vector<std::string>& toks, int line) {
  if (toks.size() < 3)
    fail(line, "event needs a trigger and a type: event <converged|round=N> "
               "<type> [name=value ...]");
  Event ev;
  ev.line = line;

  const std::string& trig = toks[1];
  if (trig == "converged") {
    ev.trigger = Trigger::kOnConvergence;
  } else if (trig.rfind("round=", 0) == 0) {
    ev.trigger = Trigger::kAtRound;
    ev.round = parse_int(trig.substr(6), line, "round");
    // round=0 fires before the first engine step — a daemon event accepted
    // before any redeployment round replays with that stamp.
    if (ev.round < 0) fail(line, "event round must be >= 0");
  } else {
    fail(line, "unknown trigger '" + trig + "' (converged or round=N)");
  }

  auto args = parse_args(toks, 3, line);
  auto take = [&](const char* name) {
    auto it = args.find(name);
    if (it == args.end()) return std::string();
    std::string v = it->second;
    args.erase(it);
    return v;
  };
  auto take_double = [&](const char* name, double def) {
    const std::string v = take(name);
    return v.empty() ? def : parse_double(v, line, name);
  };
  auto take_int = [&](const char* name, int def) {
    const std::string v = take(name);
    return v.empty() ? def : parse_int(v, line, name);
  };

  const std::string& type = toks[2];
  if (type == "fail_nodes") {
    ev.type = EventType::kFailNodes;
    ev.count = take_int("count", 1);
    if (const std::string p = take("pick"); !p.empty()) ev.pick = p;
    if (ev.pick != "random" && ev.pick != "region" && ev.pick != "max_range")
      fail(line, "fail_nodes pick must be random, region, or max_range");
    // Rect arguments apply only to pick=region; in other modes they fall
    // through to the leftover-argument check below, so a forgotten
    // pick=region is a parse error, not a silently different experiment.
    if (ev.pick == "region") {
      ev.lo = {take_double("x0", 0.0), take_double("y0", 0.0)};
      ev.hi = {take_double("x1", 1.0), take_double("y1", 1.0)};
      if (!(ev.lo.x < ev.hi.x) || !(ev.lo.y < ev.hi.y))
        fail(line,
             "fail_nodes region rectangle is empty (need x0 < x1, y0 < y1)");
      if (ev.lo.x < 0.0 || ev.lo.y < 0.0 || ev.hi.x > 1.0 || ev.hi.y > 1.0)
        fail(line, "fail_nodes region coordinates are bbox fractions in [0,1]");
    }
    if (ev.count < 0) fail(line, "fail_nodes count must be >= 0");
    if (ev.count == 0 && ev.pick != "region")
      fail(line, "fail_nodes count=0 (meaning 'all') requires pick=region");
  } else if (type == "drain_battery") {
    ev.type = EventType::kDrainBattery;
    ev.epochs = take_double("epochs", 0.0);
    ev.fraction = take_double("fraction", 0.0);
    if (ev.epochs < 0.0 || ev.fraction < 0.0 || ev.fraction > 1.0)
      fail(line, "drain_battery needs epochs >= 0 and fraction in [0,1]");
    if (ev.epochs == 0.0 && ev.fraction == 0.0)
      fail(line, "drain_battery drains nothing: set epochs= or fraction=");
  } else if (type == "add_nodes") {
    ev.type = EventType::kAddNodes;
    ev.count = take_int("count", 1);
    if (ev.count <= 0) fail(line, "add_nodes count must be >= 1");
    if (ev.count > kMaxNodes)
      fail(line, "add_nodes count " + std::to_string(ev.count) +
                     " is above kMaxNodes " + std::to_string(kMaxNodes));
    if (const std::string d = take("deploy"); !d.empty()) ev.deploy = d;
    if (ev.deploy != "uniform" && ev.deploy != "corner" &&
        ev.deploy != "gaussian")
      fail(line, "add_nodes deploy must be uniform, corner, or gaussian");
    // Placement arguments apply only to deploy=gaussian; elsewhere they fall
    // through to the leftover-argument check and error out.
    if (ev.deploy == "gaussian") {
      ev.at = {take_double("x", 0.5), take_double("y", 0.5)};
      ev.sigma = take_double("sigma", 0.1);
      if (ev.sigma <= 0.0) fail(line, "add_nodes sigma must be > 0");
      if (ev.at.x < 0.0 || ev.at.y < 0.0 || ev.at.x > 1.0 || ev.at.y > 1.0)
        fail(line, "add_nodes x/y are bbox fractions in [0,1]");
    }
  } else if (type == "resize_boundary") {
    ev.type = EventType::kResizeBoundary;
    ev.scale = take_double("scale", 1.0);
    if (ev.scale <= 0.0) fail(line, "resize_boundary scale must be > 0");
  } else if (type == "jam_region") {
    ev.type = EventType::kJamRegion;
    ev.lo = {take_double("x0", 0.4), take_double("y0", 0.4)};
    ev.hi = {take_double("x1", 0.6), take_double("y1", 0.6)};
    if (!(ev.lo.x < ev.hi.x) || !(ev.lo.y < ev.hi.y))
      fail(line, "jam_region rectangle is empty (need x0 < x1 and y0 < y1)");
    if (ev.lo.x < 0.0 || ev.lo.y < 0.0 || ev.hi.x > 1.0 || ev.hi.y > 1.0)
      fail(line, "jam_region coordinates are bbox fractions in [0,1]");
  } else {
    fail(line, "unknown event type '" + type + "'");
  }

  if (!args.empty())
    fail(line, "event argument '" + args.begin()->first +
                   "' does not apply to " + type);
  return ev;
}

ScenarioSpec parse_scenario(std::istream& in) {
  ScenarioSpec spec;
  specparse::for_each_line(in, [&](const std::vector<std::string>& toks,
                                   int line) {
    const std::string& key = toks[0];
    if (key == "event") {
      spec.events.push_back(parse_event(toks, line));
      return;
    }
    if (key == "obstacle") {
      if (toks.size() != 5)
        fail(line, "obstacle needs four bbox fractions: "
                   "obstacle <x0> <y0> <x1> <y1>");
      ObstacleRect rect;
      rect.lo = {parse_double(toks[1], line, "x0"),
                 parse_double(toks[2], line, "y0")};
      rect.hi = {parse_double(toks[3], line, "x1"),
                 parse_double(toks[4], line, "y1")};
      rect.line = line;  // validate() checks the rectangle
      spec.obstacles.push_back(rect);
      return;
    }
    const std::string& val = specparse::value_of(toks, line);
    if (!set_key(spec, key, val, line) &&
        !specparse::set_key(kIdentityKeys, spec, key, val, line) &&
        !specparse::set_key(kExecutionKeys, spec, key, val, line))
      fail(line, "unknown key '" + key + "'");
  });

  // at-round events must be non-decreasing in file order, or the "fire in
  // file order" contract would deadlock on an unreachable round.
  int last_round = 0;
  for (const Event& ev : spec.events) {
    if (ev.trigger != Trigger::kAtRound) continue;
    if (ev.round < last_round)
      fail(ev.line, "round-triggered events must be in non-decreasing order");
    last_round = ev.round;
  }

  validate(spec);
  return spec;
}

}  // namespace

const char* to_string(EventType t) {
  switch (t) {
    case EventType::kFailNodes: return "fail_nodes";
    case EventType::kDrainBattery: return "drain_battery";
    case EventType::kAddNodes: return "add_nodes";
    case EventType::kResizeBoundary: return "resize_boundary";
    case EventType::kJamRegion: return "jam_region";
  }
  return "?";
}

bool set_key(ScenarioSpec& spec, const std::string& key,
             const std::string& val, int line) {
  return specparse::set_key(kPhysicalKeys, spec, key, val, line);
}

ScenarioSpec parse_scenario_string(const std::string& text) {
  std::istringstream ss(text);
  return parse_scenario(ss);
}

ScenarioSpec load_scenario_file(const std::string& path) {
  ScenarioSpec spec;
  specparse::read_file(
      path, "scenario", [&](std::istream& in) { spec = parse_scenario(in); },
      &spec.name);
  return spec;
}

std::string format_event(const Event& ev) {
  std::ostringstream out;
  const auto num = [](double v) { return JsonWriter::number_to_string(v); };
  out << "event ";
  if (ev.trigger == Trigger::kOnConvergence)
    out << "converged";
  else
    out << "round=" << ev.round;
  out << ' ' << to_string(ev.type);
  switch (ev.type) {
    case EventType::kFailNodes:
      out << " count=" << ev.count << " pick=" << ev.pick;
      if (ev.pick == "region")
        out << " x0=" << num(ev.lo.x) << " y0=" << num(ev.lo.y)
            << " x1=" << num(ev.hi.x) << " y1=" << num(ev.hi.y);
      break;
    case EventType::kDrainBattery:
      out << " epochs=" << num(ev.epochs) << " fraction=" << num(ev.fraction);
      break;
    case EventType::kAddNodes:
      out << " count=" << ev.count << " deploy=" << ev.deploy;
      if (ev.deploy == "gaussian")
        out << " x=" << num(ev.at.x) << " y=" << num(ev.at.y)
            << " sigma=" << num(ev.sigma);
      break;
    case EventType::kResizeBoundary:
      out << " scale=" << num(ev.scale);
      break;
    case EventType::kJamRegion:
      out << " x0=" << num(ev.lo.x) << " y0=" << num(ev.lo.y)
          << " x1=" << num(ev.hi.x) << " y1=" << num(ev.hi.y);
      break;
  }
  return out.str();
}

std::string format_spec_header(const ScenarioSpec& spec) {
  if (spec.name.find_first_of(" \t") != std::string::npos ||
      spec.name.empty() || spec.name[0] == '#')
    throw std::runtime_error("scenario name '" + spec.name +
                             "' cannot round-trip through the spec format");
  std::string out = specparse::format_keys(kIdentityKeys, spec) +
                    specparse::format_keys(kPhysicalKeys, spec);
  const auto num = [](double v) { return specparse::format_value(v); };
  for (const ObstacleRect& rect : spec.obstacles)
    out += "obstacle " + num(rect.lo.x) + ' ' + num(rect.lo.y) + ' ' +
           num(rect.hi.x) + ' ' + num(rect.hi.y) + '\n';
  return out;
}

Event parse_event_body(const std::string& text) {
  std::vector<std::string> toks = {"event", "converged"};
  const auto body = tokenize(text);
  toks.insert(toks.end(), body.begin(), body.end());
  // A body has no line: errors carry no "line 0: " prefix.
  if (toks.size() < 3)
    throw std::runtime_error(
        "event body needs a type: <type> [name=value ...]");
  try {
    return parse_event(toks, 0);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(specparse::without_line(e.what()));
  }
}

void validate(const ScenarioSpec& spec) {
  auto bad = [](const std::string& what) {
    throw std::runtime_error("scenario spec: " + what);
  };
  if (spec.side <= 0.0) bad("side must be > 0");
  if (spec.k < 1) bad("k must be >= 1");
  if (spec.nodes < spec.k) bad("nodes must be >= k");
  if (spec.alpha <= 0.0 || spec.alpha > 1.0) bad("alpha must be in (0, 1]");
  if (spec.epsilon <= 0.0) bad("epsilon must be > 0");
  if (spec.max_rounds < 1) bad("max_rounds must be >= 1");
  if (spec.gamma < 0.0) bad("gamma must be >= 0 (0 = auto)");
  if (spec.num_threads < 0) bad("threads must be >= 0 (0 = hardware)");
  if (spec.battery <= 0.0) bad("battery must be > 0");
  if (spec.grid_resolution <= 0.0) bad("grid_resolution must be > 0");
  const double per_side = std::ceil(spec.side / spec.grid_resolution);
  if (per_side * per_side > kMaxCoverageSamples) {
    const auto num = [](double v) { return JsonWriter::number_to_string(v); };
    bad("grid_resolution " + num(spec.grid_resolution) + " on side " +
        num(spec.side) + " asks for " + num(per_side * per_side) +
        " coverage samples, above kMaxCoverageSamples " +
        num(kMaxCoverageSamples));
  }
  long long total = spec.nodes;
  for (const Event& ev : spec.events)
    if (ev.type == EventType::kAddNodes) total += ev.count;
  if (total > kMaxNodes) {
    const std::string arrivals =
        total > spec.nodes ? " plus " + std::to_string(total - spec.nodes) +
                                 " add_nodes arrivals"
                           : "";
    bad("nodes " + std::to_string(spec.nodes) + arrivals +
        " is above kMaxNodes " + std::to_string(kMaxNodes));
  }
  if (spec.max_hops < 1) bad("max_hops must be >= 1");
  if (spec.noise < 0.0) bad("noise must be >= 0");
  if (spec.domain != "square" && spec.domain != "lshape" &&
      spec.domain != "cross")
    bad("unknown domain '" + spec.domain + "'");
  if (spec.deploy != "uniform" && spec.deploy != "corner" &&
      spec.deploy != "gaussian" && spec.deploy != "stacked")
    bad("unknown deploy '" + spec.deploy + "'");
  if (spec.backend != "global" && spec.backend != "localized" &&
      spec.backend != "auto")
    bad("unknown backend '" + spec.backend + "'");
  if (spec.flooding != "ideal" && spec.flooding != "ttl")
    bad("unknown flooding '" + spec.flooding + "' (ideal or ttl)");
  for (const ObstacleRect& rect : spec.obstacles) {
    const std::string obstacle =
        "obstacle (spec line " + std::to_string(rect.line) + ") ";
    if (!(rect.lo.x < rect.hi.x) || !(rect.lo.y < rect.hi.y))
      bad(obstacle + "rectangle is empty (need x0 < x1 and y0 < y1)");
    if (rect.lo.x < 0.0 || rect.lo.y < 0.0 || rect.hi.x > 1.0 ||
        rect.hi.y > 1.0)
      bad(obstacle + "coordinates are bbox fractions in [0,1]");
  }
}

}  // namespace laacad::scenario
