// The one reader every line-oriented spec format shares (.scn, .cmp, .wl,
// .lint-policy, .budget): '#' starts a comment, a line with no token left is
// skipped, a line's first token is its keyword, a `key value` line holds
// exactly two tokens, and a line longer than kMaxLineBytes is refused.
// Errors read "line N: <what>"; a file loaded by path puts "<path>: " first.
// A format declares its `key value` keys once, in a table of Key entries
// that both parse and write them. common/cli's typed flags parse through
// the same scalar parsers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace laacad::specparse {

/// Longest spec line accepted, in bytes; the longest shipped line is 141.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

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

/// The parser above for T (`min` bounds an int); strings pass through.
template <class T>
T parse_as(const std::string& s, int line, const std::string& key,
           int min = std::numeric_limits<int>::min()) {
  if constexpr (std::is_same_v<T, int>) return parse_int(s, line, key, min);
  else if constexpr (std::is_same_v<T, double>)
    return parse_double(s, line, key);
  else if constexpr (std::is_same_v<T, std::uint64_t>)
    return parse_uint64(s, line, key);
  else if constexpr (std::is_same_v<T, bool>) return parse_bool(s, line, key);
  else return s;
}

/// The text parse_as reads back as `v` (doubles in shortest round-trip form).
std::string format_value(const std::string& v);
std::string format_value(int v);
std::string format_value(std::uint64_t v);
std::string format_value(double v);
std::string format_value(bool v);

/// Command-line tools parse flag values with the parsers above (line 0,
/// the flag as `key`); this strips fail()'s "line N: " prefix from such a
/// message, since a flag has no line.
std::string without_line(const std::string& what);

/// The value of a `key value` line; fail()s on any other token count.
const std::string& value_of(const std::vector<std::string>& toks, int line);

/// What read_line found.
enum class LineRead { kLine, kEnd, kOverlong };

/// std::getline with a cap: the next line of `in` into `text` without its
/// '\n' (kLine; a last line without one counts), or kEnd when no byte is
/// left. A line longer than `max_bytes` is kOverlong after reading at most
/// one byte past `max_bytes` of it; `text` then holds its first
/// `max_bytes` bytes and `in` stands inside the line.
LineRead read_line(std::istream& in, std::string& text,
                   std::size_t max_bytes = kMaxLineBytes);

/// Receives one line's tokens (never empty) and its 1-based number.
using LineFn = std::function<void(const std::vector<std::string>&, int)>;

/// Calls `on_line` for each line of `in` that holds a token, in order.
/// Refuses a line longer than kMaxLineBytes (read with read_line).
void for_each_line(std::istream& in, const LineFn& on_line);

/// Hands the file at `path` to `parse`, prefixing "<path>: " to any error
/// (or throws "cannot open <kind> file: <path>"). A `name` still "unnamed"
/// after `parse` becomes the file name without directory and extension.
void read_file(const std::string& path, const std::string& kind,
               const std::function<void(std::istream&)>& parse,
               std::string* name = nullptr);

/// One entry of a format's key table: a key and the Spec field it sets, a
/// std::string, int (at least `min`), std::uint64_t, double or bool.
template <class Spec>
struct Key {
  const char* name;
  std::variant<std::string Spec::*, int Spec::*, std::uint64_t Spec::*,
               double Spec::*, bool Spec::*>
      field;
  int min = std::numeric_limits<int>::min();

  void parse(Spec& spec, const std::string& value, int line) const {
    std::visit(
        [&](auto f) {
          spec.*f = parse_as<std::decay_t<decltype(spec.*f)>>(value, line,
                                                              name, min);
        },
        field);
  }

  /// The field's value as parse() reads it back.
  std::string value(const Spec& spec) const {
    return std::visit([&](auto f) { return format_value(spec.*f); }, field);
  }
};

/// Parses `value` into the field of the entry of `keys` named `key`;
/// false when no entry has that name.
template <class Keys, class Spec>
bool set_key(const Keys& keys, Spec& spec, const std::string& key,
             const std::string& value, int line) {
  for (const Key<Spec>& k : keys) {
    if (key != k.name) continue;
    k.parse(spec, value, line);
    return true;
  }
  return false;
}

/// One "key value" line per entry of `keys`, in table order.
template <class Keys, class Spec>
std::string format_keys(const Keys& keys, const Spec& spec) {
  std::string out;
  for (const Key<Spec>& k : keys)
    out += std::string(k.name) + ' ' + k.value(spec) + '\n';
  return out;
}

}  // namespace laacad::specparse
