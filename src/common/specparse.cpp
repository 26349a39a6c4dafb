#include "common/specparse.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace laacad::specparse {

void fail(int line, const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line) + ": " + what);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    if (tok[0] == '#') break;  // trailing comment
    out.push_back(tok);
  }
  return out;
}

double parse_double(const std::string& s, int line, const std::string& key) {
  double v = 0.0;
  try {
    std::size_t used = 0;
    v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
  } catch (const std::exception&) {
    fail(line, "'" + key + "' expects a number, got '" + s + "'");
  }
  if (!std::isfinite(v))
    fail(line, "'" + key + "' expects a finite number, got '" + s + "'");
  return v;
}

int parse_int(const std::string& s, int line, const std::string& key,
              int min) {
  int v = 0;
  try {
    std::size_t used = 0;
    v = std::stoi(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
  } catch (const std::exception&) {
    fail(line, "'" + key + "' expects an integer, got '" + s + "'");
  }
  if (v < min)
    fail(line, "'" + key + "' expects an integer >= " + std::to_string(min) +
                   ", got '" + s + "'");
  return v;
}

std::uint64_t parse_uint64(const std::string& s, int line,
                           const std::string& key) {
  try {
    // std::stoull skips leading whitespace and wraps a leading '-' modulo
    // 2^64 ("-1" -> 2^64-1): demand a digit up front.
    if (s.empty() || s[0] < '0' || s[0] > '9') throw std::invalid_argument(s);
    std::size_t used = 0;
    const unsigned long long v = std::stoull(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    fail(line,
         "'" + key + "' expects an unsigned integer, got '" + s + "'");
  }
}

bool parse_bool(const std::string& s, int line, const std::string& key) {
  if (s == "1" || s == "true" || s == "yes") return true;
  if (s == "0" || s == "false" || s == "no") return false;
  fail(line, "'" + key + "' expects a boolean, got '" + s + "'");
}

std::string without_line(const std::string& what) {
  const auto colon = what.find(": ");
  return what.rfind("line ", 0) == 0 && colon != std::string::npos
             ? what.substr(colon + 2)
             : what;
}

}  // namespace laacad::specparse
