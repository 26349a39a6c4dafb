#include "lint/policy.hpp"

#include <algorithm>

#include "common/specparse.hpp"

namespace laacad::lint {

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> kRules = {
      "wall-clock",     "ambient-rng", "ambient-env",
      "unordered-iter", "float-arith", "pragma-once",
  };
  return kRules;
}

bool is_known_rule(const std::string& rule) {
  const auto& all = known_rules();
  return std::find(all.begin(), all.end(), rule) != all.end();
}

namespace {

const std::vector<std::string>& default_base() {
  static const std::vector<std::string> kBase = {
      "wall-clock", "ambient-rng", "ambient-env", "unordered-iter",
      "pragma-once",
  };
  return kBase;
}

std::vector<std::string> check_rules(const std::vector<std::string>& toks,
                                     std::size_t first, int line) {
  if (first >= toks.size())
    specparse::fail(line, "'" + toks[0] + "' needs at least one rule name");
  std::vector<std::string> rules;
  for (std::size_t i = first; i < toks.size(); ++i) {
    if (!is_known_rule(toks[i]))
      specparse::fail(line, "unknown rule '" + toks[i] + "'");
    rules.push_back(toks[i]);
  }
  return rules;
}

}  // namespace

Policy::Policy() : base_(default_base()) {}

Policy Policy::parse(std::istream& in) {
  Policy p;
  specparse::for_each_line(in, [&](const std::vector<std::string>& toks,
                                   int line) {
    if (toks[0] == "base") {
      p.base_ = check_rules(toks, 1, line);
    } else if (toks[0] == "extra" || toks[0] == "allow") {
      if (toks.size() < 2)
        specparse::fail(line, "'" + toks[0] + "' needs a path prefix");
      Entry e;
      e.prefix = toks[1];
      e.rules = check_rules(toks, 2, line);
      e.allow = (toks[0] == "allow");
      p.entries_.push_back(std::move(e));
    } else {
      specparse::fail(line, "unknown policy directive '" + toks[0] +
                                "' (want base/extra/allow)");
    }
  });
  return p;
}

Policy Policy::load(const std::string& path) {
  Policy p;
  specparse::read_file(path, "policy",
                       [&](std::istream& in) { p = parse(in); });
  return p;
}

std::vector<std::string> Policy::rules_for(const std::string& rel_path) const {
  std::vector<std::string> rules = base_;
  for (const auto& e : entries_) {
    if (rel_path.rfind(e.prefix, 0) != 0) continue;
    for (const auto& r : e.rules) {
      const auto it = std::find(rules.begin(), rules.end(), r);
      if (e.allow) {
        if (it != rules.end()) rules.erase(it);
      } else if (it == rules.end()) {
        rules.push_back(r);
      }
    }
  }
  return rules;
}

}  // namespace laacad::lint
