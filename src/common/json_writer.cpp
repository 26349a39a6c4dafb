#include "common/json_writer.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace laacad {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonWriter::number_to_string(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  // Integral values print as integers (300, not 3e+02) — exact and readable.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  // Shortest precision that round-trips, printed as %.<precision>g:
  // deterministic across platforms using the same IEEE doubles, and far
  // more readable than blanket %.17g. Shortest to_chars yields the digit
  // count; the correctly rounded %g form at that count can still miss
  // when the value sits on a power of two (the rounding interval is
  // asymmetric there), so bump the precision until it parses back.
  char* end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific)
          .ptr;
  int precision = 0;
  for (const char* p = buf; p != end && *p != 'e'; ++p)
    if (*p >= '0' && *p <= '9') ++precision;
  for (;; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        precision).ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v || precision >= 17) break;
  }
  return std::string(buf, end);
}

JsonWriter::JsonWriter(std::ostream& out, int indent)
    : out_(out), indent_(indent) {}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  out_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_);
       ++i)
    out_ << ' ';
}

void JsonWriter::before_value() {
  if (done_) throw std::logic_error("JsonWriter: document already complete");
  if (!stack_.empty() && stack_.back() == Scope::kObject && !key_pending_)
    throw std::logic_error("JsonWriter: value inside object requires key()");
  if (key_pending_) {
    key_pending_ = false;
    return;  // key() already wrote the separator and "key":
  }
  if (!stack_.empty()) {
    if (!first_in_scope_) out_ << ',';
    newline_indent();
  }
  first_in_scope_ = false;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (done_) throw std::logic_error("JsonWriter: document already complete");
  if (stack_.empty() || stack_.back() != Scope::kObject)
    throw std::logic_error("JsonWriter: key() outside object");
  if (key_pending_) throw std::logic_error("JsonWriter: key already pending");
  if (!first_in_scope_) out_ << ',';
  newline_indent();
  first_in_scope_ = false;
  out_ << '"' << json_escape(k) << "\":";
  if (indent_ > 0) out_ << ' ';
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ << '{';
  stack_.push_back(Scope::kObject);
  first_in_scope_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Scope::kObject || key_pending_)
    throw std::logic_error("JsonWriter: mismatched end_object()");
  const bool was_empty = first_in_scope_;
  stack_.pop_back();
  if (!was_empty) newline_indent();
  out_ << '}';
  first_in_scope_ = false;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ << '[';
  stack_.push_back(Scope::kArray);
  first_in_scope_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Scope::kArray)
    throw std::logic_error("JsonWriter: mismatched end_array()");
  const bool was_empty = first_in_scope_;
  stack_.pop_back();
  if (!was_empty) newline_indent();
  out_ << ']';
  first_in_scope_ = false;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ << '"' << json_escape(v) << '"';
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string_view(v));
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  out_ << number_to_string(v);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ << v;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ << v;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ << (v ? "true" : "false");
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view json) {
  before_value();
  out_ << json;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ << "null";
  if (stack_.empty()) done_ = true;
  return *this;
}

}  // namespace laacad
