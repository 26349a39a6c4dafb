// Shared primitives for the line-oriented spec formats (scenarios/*.scn,
// campaigns/*.cmp, bench/workloads/*.wl) and the command-line tools' flag
// values: whitespace tokenization with '#' comments, and strict scalar
// parsing that reports "line N: ..." errors. Every parser must stay
// behaviorally identical — one definition keeps them that way.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace laacad::specparse {

/// Throw std::runtime_error("line N: <what>").
[[noreturn]] void fail(int line, const std::string& what);

/// Whitespace-split `line`, dropping everything from the first token that
/// starts with '#' (trailing comment) onward.
std::vector<std::string> tokenize(const std::string& line);

/// Strict scalar parsers: the whole token must consume, or fail() with a
/// message naming `key`. parse_double also fails on nan and inf; parse_int
/// also fails on a value below `min`.
double parse_double(const std::string& s, int line, const std::string& key);
int parse_int(const std::string& s, int line, const std::string& key,
              int min = std::numeric_limits<int>::min());
std::uint64_t parse_uint64(const std::string& s, int line,
                           const std::string& key);
bool parse_bool(const std::string& s, int line, const std::string& key);

/// Command-line tools parse flag values with the parsers above (line 0,
/// the flag as `key`); this strips fail()'s "line N: " prefix from such a
/// message, since a flag has no line.
std::string without_line(const std::string& what);

}  // namespace laacad::specparse
