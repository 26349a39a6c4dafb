#include "campaign/spec.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/specparse.hpp"

namespace laacad::campaign {

namespace {

using specparse::fail;

/// The campaign-level `key value` keys; every other key is a physical
/// scenario key (scenario::set_key) or `sweep`.
constexpr specparse::Key<CampaignSpec> kCampaignKeys[] = {
    {"name", &CampaignSpec::name}, {"trials", &CampaignSpec::trials},
    {"seed", &CampaignSpec::seed}, {"scenario", &CampaignSpec::scenario_file}};

/// FNV-1a 64 over a canonical serialization.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

CampaignSpec parse_campaign(std::istream& in) {
  CampaignSpec spec;
  specparse::for_each_line(in, [&](const std::vector<std::string>& toks,
                                   int line) {
    const std::string& key = toks[0];
    if (key == "sweep") {
      if (toks.size() < 3)
        fail(line, "sweep needs a key and at least one value: "
                   "sweep <key> <v1> [v2 ...]");
      Axis axis;
      axis.key = toks[1];
      axis.values.assign(toks.begin() + 2, toks.end());
      for (const Axis& existing : spec.axes)
        if (existing.key == axis.key)
          fail(line, "axis '" + axis.key + "' swept twice");
      // Probe-apply each value so a malformed sweep fails now, not trials
      // later; a scenario file is checked when a trial loads it.
      scenario::ScenarioSpec probe;
      for (const std::string& v : axis.values)
        if (axis.key != "scenario" &&
            !scenario::set_key(probe, axis.key, v, line))
          fail(line, "'" + axis.key + "' is not a sweepable scenario key");
      spec.axes.push_back(std::move(axis));
      return;
    }
    const std::string& val = specparse::value_of(toks, line);
    if (specparse::set_key(kCampaignKeys, spec, key, val, line)) return;
    // `threads` is unknown on purpose: execution shape belongs to the
    // scheduler (--workers), never to the campaign identity.
    if (!scenario::set_key(spec.base, key, val, line))
      fail(line, "unknown campaign key '" + key + "'");
    spec.base_overrides.emplace_back(key, val);
  });
  validate(spec);
  return spec;
}

}  // namespace

CampaignSpec parse_campaign_string(const std::string& text) {
  std::istringstream ss(text);
  return parse_campaign(ss);
}

CampaignSpec load_campaign_file(const std::string& path) {
  CampaignSpec spec;
  specparse::read_file(
      path, "campaign", [&](std::istream& in) { spec = parse_campaign(in); },
      &spec.name);
  const auto slash = path.find_last_of("/\\");
  spec.dir = slash == std::string::npos ? "" : path.substr(0, slash);
  return spec;
}

void validate(const CampaignSpec& spec) {
  auto bad = [](const std::string& what) {
    throw std::runtime_error("campaign spec: " + what);
  };
  if (spec.name.empty()) bad("name must not be empty");
  if (spec.trials < 1) bad("trials must be >= 1");
  bool scenario_swept = false;
  for (const Axis& axis : spec.axes) {
    if (axis.values.empty()) bad("axis '" + axis.key + "' has no values");
    if (axis.key == "scenario") scenario_swept = true;
  }
  if (scenario_swept && !spec.scenario_file.empty())
    bad("'scenario' is both fixed and swept — pick one");
  // Static campaigns must start from a coherent base; scenario-based
  // campaigns are validated per loaded file at trial time.
  if (spec.scenario_file.empty() && !scenario_swept) {
    try {
      scenario::validate(spec.base);
    } catch (const std::exception& e) {
      bad(std::string("base config invalid: ") + e.what());
    }
  }
}

std::vector<TrialPoint> expand_grid(const CampaignSpec& spec) {
  std::size_t points = 1;
  for (const Axis& axis : spec.axes) points *= axis.values.size();

  std::vector<TrialPoint> out;
  out.reserve(points * static_cast<std::size_t>(spec.trials));
  for (std::size_t p = 0; p < points; ++p) {
    // Row-major decomposition: axis 0 varies slowest.
    std::vector<std::pair<std::string, std::string>> values;
    values.reserve(spec.axes.size());
    std::size_t rem = p;
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      const Axis& axis = spec.axes[a];
      values.emplace_back(axis.key, axis.values[rem % axis.values.size()]);
      rem /= axis.values.size();
    }
    std::reverse(values.begin(), values.end());

    for (int rep = 0; rep < spec.trials; ++rep) {
      TrialPoint pt;
      pt.point = static_cast<int>(p);
      pt.rep = rep;
      pt.trial = static_cast<int>(p) * spec.trials + rep;
      pt.seed = Rng::derive(spec.seed, p, static_cast<std::uint64_t>(rep));
      pt.values = values;
      out.push_back(std::move(pt));
    }
  }
  return out;
}

std::string resolve_scenario_path(const CampaignSpec& spec,
                                  const std::string& value) {
  const bool absolute =
      !value.empty() && (value[0] == '/' || value[0] == '\\');
  if (absolute || spec.dir.empty()) return value;
  return spec.dir + "/" + value;
}

std::uint64_t fingerprint(const CampaignSpec& spec) {
  // Canonical serialization of everything that determines the trial matrix.
  // num_threads is excluded by construction (it is not part of the spec).
  std::ostringstream ss;
  ss << "campaign.v2\n"
     << specparse::format_keys(kCampaignKeys, spec)
     << scenario::format_spec_header(spec.base);
  for (const auto& [key, value] : spec.base_overrides)
    ss << "override " << key << ' ' << value << '\n';
  for (const Axis& axis : spec.axes) {
    ss << "sweep " << axis.key;
    for (const std::string& v : axis.values) ss << ' ' << v;
    ss << '\n';
  }
  // Referenced scenario files contribute their *contents*, not just their
  // paths: editing a .scn between an interrupted run and a --resume must
  // flip the fingerprint, or the journal would silently mix two
  // experiments. An unreadable file hashes as missing — the trial will
  // fail the same way on every run, so the identity stays stable.
  std::vector<std::string> scenario_refs;
  if (!spec.scenario_file.empty()) scenario_refs.push_back(spec.scenario_file);
  for (const Axis& axis : spec.axes)
    if (axis.key == "scenario")
      scenario_refs.insert(scenario_refs.end(), axis.values.begin(),
                           axis.values.end());
  for (const std::string& ref : scenario_refs) {
    ss << "scn " << ref << '\n';
    std::ifstream in(resolve_scenario_path(spec, ref));
    if (in) ss << in.rdbuf();
    else ss << "<missing>";
    ss << '\n';
  }
  return fnv1a(ss.str());
}

}  // namespace laacad::campaign
