#include "serve/workload.hpp"

#include <sstream>
#include <stdexcept>

#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/specparse.hpp"
#include "scenario/spec.hpp"

namespace laacad::serve {

namespace {

using specparse::fail;
using Key = specparse::Key<WorkloadSpec>;

/// The `key value` keys.
constexpr Key kKeys[] = {
    {"name", &WorkloadSpec::name}, {"requests", &WorkloadSpec::requests, 1},
    {"rate", &WorkloadSpec::rate},
    {"connections", &WorkloadSpec::connections, 1},
    {"seed", &WorkloadSpec::seed}, {"knn_k", &WorkloadSpec::knn_k, 1}};

/// The verbs of a `mix verb=weight ...` line.
constexpr Key kMixVerbs[] = {{"knn", &WorkloadSpec::mix_knn, 0},
                             {"coverage", &WorkloadSpec::mix_coverage, 0},
                             {"load", &WorkloadSpec::mix_load, 0},
                             {"stats", &WorkloadSpec::mix_stats, 0},
                             {"health", &WorkloadSpec::mix_health, 0}};

/// Split "key=value", failing with the line number when malformed.
std::pair<std::string, std::string> split_kv(const std::string& token,
                                             int line) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
    fail(line, "expected key=value, got '" + token + "'");
  return {token.substr(0, eq), token.substr(eq + 1)};
}

void parse_mix(WorkloadSpec* spec, const std::vector<std::string>& tokens,
               int line) {
  spec->mix_knn = spec->mix_coverage = spec->mix_load = spec->mix_stats =
      spec->mix_health = 0;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const auto [verb, weight] = split_kv(tokens[t], line);
    if (!specparse::set_key(kMixVerbs, *spec, verb, weight, line))
      fail(line, "unknown mix verb '" + verb + "'");
  }
}

void parse_churn(WorkloadSpec* spec, const std::vector<std::string>& tokens,
                 int line) {
  if (tokens.size() < 3)
    fail(line, "churn needs: churn every=N <event body>");
  const auto [key, value] = split_kv(tokens[1], line);
  if (key != "every") fail(line, "churn needs every=N first, got " + key);
  ChurnSpec c;
  c.every = specparse::parse_int(value, line, "churn every", 1);
  std::string body;
  for (std::size_t t = 2; t < tokens.size(); ++t) {
    if (t > 2) body += ' ';
    body += tokens[t];
  }
  // Validate the event vocabulary now — a bench should fail at parse time,
  // not after the daemon rejects request #250.
  try {
    (void)scenario::parse_event_body(body);
  } catch (const std::exception& e) {
    fail(line, std::string("churn body: ") + e.what());
  }
  c.body = std::move(body);
  spec->churn.push_back(std::move(c));
}

WorkloadSpec parse_workload(std::istream& in) {
  WorkloadSpec spec;
  specparse::for_each_line(in, [&](const std::vector<std::string>& tokens,
                                   int line) {
    const std::string& key = tokens[0];
    if (key == "mix") {
      parse_mix(&spec, tokens, line);
    } else if (key == "churn") {
      parse_churn(&spec, tokens, line);
    } else if (!specparse::set_key(kKeys, spec, key,
                                   specparse::value_of(tokens, line), line)) {
      fail(line, "unknown workload key '" + key + "'");
    }
  });
  if (spec.rate < 0.0)
    throw std::runtime_error("workload: rate must be >= 0");
  if (spec.mix_knn + spec.mix_coverage + spec.mix_load + spec.mix_stats +
          spec.mix_health <=
      0)
    throw std::runtime_error("workload: mix weights sum to zero");
  return spec;
}

}  // namespace

WorkloadSpec parse_workload_string(const std::string& text) {
  std::istringstream in(text);
  return parse_workload(in);
}

WorkloadSpec load_workload_file(const std::string& path) {
  WorkloadSpec spec;
  specparse::read_file(path, "workload", [&](std::istream& in) {
    spec = parse_workload(in);
  });
  return spec;
}

std::string format_workload(const WorkloadSpec& spec) {
  std::string out = specparse::format_keys(kKeys, spec) + "mix";
  for (const Key& k : kMixVerbs)
    out.append(" ").append(k.name).append("=").append(k.value(spec));
  out += '\n';
  for (const ChurnSpec& c : spec.churn)
    out += "churn every=" + std::to_string(c.every) + ' ' + c.body + '\n';
  return out;
}

std::vector<ScheduledRequest> expand_schedule(const WorkloadSpec& spec,
                                              double side) {
  std::vector<ScheduledRequest> schedule;
  schedule.reserve(static_cast<std::size_t>(spec.requests));
  // Independent derived streams: adding a churn line or changing the mix
  // does not reshuffle coordinates, and vice versa.
  Rng verb_rng(Rng::derive(spec.seed, 1));
  Rng coord_rng(Rng::derive(spec.seed, 2));
  const int total_weight = spec.mix_knn + spec.mix_coverage + spec.mix_load +
                           spec.mix_stats + spec.mix_health;

  const auto point_request = [&](const char* op, bool with_k) {
    const double x = coord_rng.uniform(0.0, side);
    const double y = coord_rng.uniform(0.0, side);
    std::ostringstream out;
    JsonWriter w(out, /*indent=*/0);
    w.begin_object();
    w.kv("op", op);
    w.kv("x", x);
    w.kv("y", y);
    if (with_k) w.kv("k", spec.knn_k);
    w.end_object();
    return out.str();
  };

  for (int i = 0; i < spec.requests; ++i) {
    ScheduledRequest req;
    const int draw = verb_rng.uniform_int(1, total_weight);
    if (draw <= spec.mix_knn) {
      req.op = "knn";
      req.line = point_request("knn", /*with_k=*/true);
    } else if (draw <= spec.mix_knn + spec.mix_coverage) {
      req.op = "coverage";
      req.line = point_request("coverage", /*with_k=*/false);
    } else if (draw <= spec.mix_knn + spec.mix_coverage + spec.mix_load) {
      req.op = "load";
      req.line = "{\"op\":\"load\"}";
    } else if (draw <=
               spec.mix_knn + spec.mix_coverage + spec.mix_load +
                   spec.mix_stats) {
      req.op = "stats";
      req.line = "{\"op\":\"stats\"}";
    } else {
      req.op = "health";
      req.line = "{\"op\":\"health\"}";
    }
    schedule.push_back(std::move(req));

    for (const ChurnSpec& c : spec.churn) {
      if ((i + 1) % c.every != 0) continue;
      ScheduledRequest ev;
      ev.op = "event";
      std::ostringstream out;
      JsonWriter w(out, /*indent=*/0);
      w.begin_object();
      w.kv("op", "event");
      w.kv("spec", c.body);
      w.end_object();
      ev.line = out.str();
      schedule.push_back(std::move(ev));
    }
  }
  return schedule;
}

}  // namespace laacad::serve
