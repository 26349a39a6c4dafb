#include "campaign/manifest.hpp"

#include <cstdlib>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/json_writer.hpp"
#include "common/specparse.hpp"

namespace laacad::campaign {

namespace {

constexpr const char* kMagic = "laacad.campaign.manifest.v1";

/// Parse one journaled double; "null" is NaN (how number_to_string prints
/// it). Returns false on garbage — the caller drops the line.
bool parse_metric(const std::string& tok, double* out) {
  if (tok == "null") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(tok.c_str(), &end);
  return end != tok.c_str() && *end == '\0';
}

/// Reversible single-line encoding for error text: the journal is
/// line-oriented, but the error must round-trip *exactly* (the aggregate
/// JSON emits it, so resumed runs reproduce failing campaigns byte for
/// byte even if some future exception message carries a newline).
std::string escape_error(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else if (c == '\r') out += "\\r";
    else out += c;
  }
  return out;
}

std::string unescape_error(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    const char next = s[++i];
    out += next == 'n' ? '\n' : next == 'r' ? '\r' : next;
  }
  return out;
}

/// Parse "key=<rest of token>"; returns the value part or nullopt.
std::optional<std::string> token_value(const std::string& tok,
                                       const std::string& key) {
  if (tok.rfind(key + "=", 0) != 0) return std::nullopt;
  return tok.substr(key.size() + 1);
}

}  // namespace

std::string format_manifest_header(const ManifestHeader& header) {
  std::ostringstream ss;
  ss << kMagic << " fp=" << std::hex << header.fingerprint << std::dec
     << " trials=" << header.trials << " metrics=" << header.metrics;
  if (header.shard.sharded())
    ss << " shard=" << dist::to_string(header.shard);
  return ss.str();
}

std::optional<ManifestHeader> parse_manifest_header(const std::string& line) {
  const auto toks = specparse::tokenize(line);
  if (toks.size() < 4 || toks.size() > 5 || toks[0] != kMagic)
    return std::nullopt;
  ManifestHeader header;
  {
    // 1-16 lowercase hex digits, as format_manifest_header writes them:
    // no sign, no 0x, no value past 64 bits.
    const auto fp = token_value(toks[1], "fp");
    if (!fp || fp->empty() || fp->size() > 16) return std::nullopt;
    header.fingerprint = 0;
    for (const char c : *fp) {
      const int digit = c >= '0' && c <= '9'   ? c - '0'
                        : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                               : -1;
      if (digit < 0) return std::nullopt;
      header.fingerprint =
          header.fingerprint << 4 | static_cast<unsigned>(digit);
    }
  }
  const auto t = token_value(toks[2], "trials");
  const auto m = token_value(toks[3], "metrics");
  if (!t || !m) return std::nullopt;
  try {
    header.trials = specparse::parse_int(*t, 0, "trials", 0);
    header.metrics = specparse::parse_int(*m, 0, "metrics", 0);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  if (toks.size() == 5) {
    const auto s = token_value(toks[4], "shard");
    if (!s) return std::nullopt;
    try {
      header.shard = dist::parse_shard(*s);
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return header;
}

std::string describe_manifest_header(const ManifestHeader& header) {
  std::ostringstream ss;
  ss << "fp=" << std::hex << header.fingerprint << std::dec
     << " trials=" << header.trials << " metrics=" << header.metrics;
  if (header.shard.sharded())
    ss << " shard=" << dist::to_string(header.shard);
  return ss.str();
}

/// One journal row, always closed by the " ;" terminator: a kill mid-write
/// cannot truncate a row into a different *valid* row (a cut final metric
/// like "83.43827" still parses as a plausible double — only the missing
/// terminator gives it away). The error message, if any, trails the fixed
/// metric columns as length-prefixed escaped text ("E<len> <text>").
std::string format_manifest_row(const TrialResult& r) {
  std::ostringstream ss;
  ss << "trial " << r.trial << ' ' << (r.ok ? 1 : 0);
  for (const double m : r.metrics)
    ss << ' ' << JsonWriter::number_to_string(m);
  if (!r.error.empty()) {
    const std::string escaped = escape_error(r.error);
    ss << " E" << escaped.size() << ' ' << escaped;
  }
  ss << " ;";
  return ss.str();
}

std::map<int, TrialResult> replay_manifest_rows(std::istream& in,
                                                int total_trials) {
  std::map<int, TrialResult> rows;
  std::string line;
  // An overlong line ends the replay like any other torn row.
  while (specparse::read_line(in, line) == specparse::LineRead::kLine) {
    std::istringstream ss(line);
    std::string tag;
    int trial = -1, ok = 0;
    if (!(ss >> tag >> trial >> ok) || tag != "trial" || trial < 0 ||
        trial >= total_trials)
      break;  // truncated/garbled tail: ignore from here on
    TrialResult r;
    r.trial = trial;
    r.ok = ok != 0;
    r.metrics.reserve(metric_names().size());
    std::string tok;
    bool good = true;
    for (std::size_t m = 0; m < metric_names().size(); ++m) {
      double v = 0.0;
      if (!(ss >> tok) || !parse_metric(tok, &v)) {
        good = false;
        break;
      }
      r.metrics.push_back(v);
    }
    if (!good) break;
    // The rest of the row must end with the " ;" terminator, with an
    // optional length-prefixed error before it. Either check failing
    // means the row was cut mid-write: drop it and everything after.
    std::string rest;
    std::getline(ss, rest);
    if (rest.size() < 2 || rest.compare(rest.size() - 2, 2, " ;") != 0)
      break;
    rest.resize(rest.size() - 2);
    if (!rest.empty()) {
      if (rest.size() < 4 || rest[0] != ' ' || rest[1] != 'E') break;
      const std::size_t sp = rest.find(' ', 2);
      if (sp == std::string::npos) break;
      char* end = nullptr;
      const long len = std::strtol(rest.c_str() + 2, &end, 10);
      if (end != rest.c_str() + sp || len <= 0) break;
      const std::string escaped = rest.substr(sp + 1);
      if (static_cast<long>(escaped.size()) != len) break;
      r.error = unescape_error(escaped);
    }
    rows.emplace(trial, std::move(r));
  }
  return rows;
}

}  // namespace laacad::campaign
