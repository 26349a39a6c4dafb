#include "common/specparse.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <stdexcept>

#include "common/json_writer.hpp"

namespace laacad::specparse {

void fail(int line, const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line) + ": " + what);
}

std::vector<std::string> tokenize(const std::string& line) {
  // The whitespace of `std::istream >> std::string` in the C locale.
  constexpr const char* kSpace = " \t\n\v\f\r";
  std::vector<std::string> out;
  for (auto i = line.find_first_not_of(kSpace);
       i != std::string::npos && line[i] != '#';  // '#': trailing comment
       i = line.find_first_not_of(kSpace, i)) {
    const auto end = line.find_first_of(kSpace, i);
    out.push_back(line.substr(i, end - i));
    i = end;
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

std::string format_value(const std::string& v) { return v; }
std::string format_value(int v) { return std::to_string(v); }
std::string format_value(std::uint64_t v) { return std::to_string(v); }
std::string format_value(double v) { return JsonWriter::number_to_string(v); }
std::string format_value(bool v) { return v ? "true" : "false"; }

std::string without_line(const std::string& what) {
  const auto colon = what.find(": ");
  return what.rfind("line ", 0) == 0 && colon != std::string::npos
             ? what.substr(colon + 2)
             : what;
}

const std::string& value_of(const std::vector<std::string>& toks, int line) {
  if (toks.size() != 2)
    fail(line, "expected 'key value', got " + std::to_string(toks.size()) +
                   " tokens");
  return toks[1];
}

LineRead read_line(std::istream& in, std::string& text,
                   std::size_t max_bytes) {
  using Traits = std::istream::traits_type;
  std::streambuf* buf = in.rdbuf();
  text.clear();
  auto c = buf->sbumpc();
  if (c == Traits::eof()) return LineRead::kEnd;
  for (; c != Traits::eof() && c != '\n'; c = buf->sbumpc()) {
    if (text.size() == max_bytes) return LineRead::kOverlong;
    text.push_back(Traits::to_char_type(c));
  }
  return LineRead::kLine;
}

void for_each_line(std::istream& in, const LineFn& on_line) {
  std::string text;
  for (int line = 1;; ++line) {
    const LineRead read = read_line(in, text);
    if (read == LineRead::kEnd) return;
    if (read == LineRead::kOverlong)
      fail(line, "line longer than kMaxLineBytes (" +
                     std::to_string(kMaxLineBytes) + " bytes)");
    const std::vector<std::string> toks = tokenize(text);
    if (!toks.empty()) on_line(toks, line);
  }
}

void read_file(const std::string& path, const std::string& kind,
               const std::function<void(std::istream&)>& parse,
               std::string* name) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + kind + " file: " + path);
  try {
    parse(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  if (name == nullptr || *name != "unnamed") return;
  // npos + 1 == 0: a path without a directory keeps its first character.
  std::string stem = path.substr(path.find_last_of("/\\") + 1);
  stem.resize(std::min(stem.size(), stem.find_last_of('.')));
  if (!stem.empty()) *name = stem;
}

}  // namespace laacad::specparse
