#include "common/flatjson.hpp"

#include <cmath>
#include <cstdlib>

namespace laacad::flatjson {

std::size_t value_offset(std::string_view line, std::string_view key) {
  std::string needle(1, '"');
  needle.append(key).append("\":");
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      if (line.compare(i, needle.size(), needle) == 0) {
        // Skip the ": " an indented JsonWriter document puts after keys,
        // so flattened multi-line documents scan like compact ones.
        std::size_t at = i + needle.size();
        while (at < line.size() && line[at] == ' ') ++at;
        return at;
      }
      in_string = true;
    }
  }
  return std::string_view::npos;
}

bool get_string(std::string_view line, std::string_view key,
                std::string* out) {
  const std::size_t at = value_offset(line, key);
  if (at == std::string_view::npos || at >= line.size() || line[at] != '"')
    return false;
  std::string s;
  for (std::size_t i = at + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') {
      *out = std::move(s);
      return true;
    }
    if (c == '\\' && i + 1 < line.size()) {
      const char e = line[++i];
      switch (e) {
        case 'n': s += '\n'; break;
        case 't': s += '\t'; break;
        case 'r': s += '\r'; break;
        default: s += e; break;  // \" \\ \/ and anything exotic: literal
      }
    } else {
      s += c;
    }
  }
  return false;  // unterminated string
}

bool get_number(std::string_view line, std::string_view key, double* out) {
  const std::size_t at = value_offset(line, key);
  if (at == std::string_view::npos || at >= line.size()) return false;
  if (line.compare(at, 4, "null") == 0) {
    *out = std::nan("");
    return true;
  }
  // strtod needs a terminated buffer; numbers are short.
  char buf[64];
  std::size_t n = 0;
  for (std::size_t i = at; i < line.size() && n + 1 < sizeof(buf); ++i) {
    const char c = line[i];
    if ((c < '0' || c > '9') && c != '-' && c != '+' && c != '.' &&
        c != 'e' && c != 'E')
      break;
    buf[n++] = c;
  }
  if (n == 0) return false;
  buf[n] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + n;
}

bool get_raw(std::string_view line, std::string_view key, std::string* out) {
  const std::size_t at = value_offset(line, key);
  if (at == std::string_view::npos || at >= line.size()) return false;
  const char first = line[at];
  if (first == '"') {
    // String: scan to the closing quote, honoring escapes.
    for (std::size_t i = at + 1; i < line.size(); ++i) {
      if (line[i] == '\\') {
        ++i;
      } else if (line[i] == '"') {
        *out = std::string(line.substr(at, i + 1 - at));
        return true;
      }
    }
    return false;  // unterminated
  }
  if (first == '{' || first == '[') {
    // Balanced nesting; quotes suspend brace counting so escaped quotes
    // and structural characters inside string values are inert.
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = at; i < line.size(); ++i) {
      const char c = line[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
        continue;
      }
      if (c == '"') in_string = true;
      else if (c == '{' || c == '[') ++depth;
      else if (c == '}' || c == ']') {
        --depth;
        if (depth == 0) {
          *out = std::string(line.substr(at, i + 1 - at));
          return true;
        }
      }
    }
    return false;  // unbalanced
  }
  // Scalar (number / true / false / null): up to the enclosing , } or ].
  std::size_t end = at;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ']')
    ++end;
  if (end == at) return false;
  *out = std::string(line.substr(at, end - at));
  return true;
}

bool get_bool(std::string_view line, std::string_view key, bool* out) {
  const std::size_t at = value_offset(line, key);
  if (at == std::string_view::npos) return false;
  if (line.compare(at, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (line.compare(at, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace laacad::flatjson
