#include "obs/heartbeat.hpp"

#include <cmath>
#include <sstream>

#include "common/flatjson.hpp"
#include "common/json_writer.hpp"

namespace laacad::obs {

namespace {

constexpr std::string_view kPrefix = "{\"hb\":";

// Field access goes through the shared flat-JSON scanner: the only string
// values we emit are kind / name / shard, and name is JSON-escaped, so the
// scanner's escaped-quote handling keeps key matches out of string bodies.
using flatjson::get_number;
using flatjson::get_string;

}  // namespace

std::string format_heartbeat(const Heartbeat& hb) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.kv("hb", hb.kind);
  w.kv("name", hb.name);
  if (!hb.shard.empty()) w.kv("shard", hb.shard);
  w.kv("done", hb.done);
  w.kv("total", hb.total);
  w.kv("ok", hb.ok);
  if (hb.live >= 0) w.kv("live", hb.live);
  if (hb.round >= 0) w.kv("round", hb.round);
  if (hb.epoch >= 0) w.kv("epoch", hb.epoch);
  if (hb.queue >= 0) w.kv("queue", hb.queue);
  w.kv("rate_per_s", hb.rate_per_s);  // NaN -> null by JsonWriter
  w.kv("eta_s", hb.eta_s);
  w.kv("ts_ms", hb.ts_ms);
  w.end_object();
  std::string s = out.str();
  s += '\n';
  return s;
}

void write_heartbeat(std::FILE* sink, const Heartbeat& hb) {
  const std::string line = format_heartbeat(hb);
  std::fwrite(line.data(), 1, line.size(), sink);
  std::fflush(sink);
}

bool is_heartbeat_line(std::string_view line) {
  return line.compare(0, kPrefix.size(), kPrefix) == 0;
}

bool parse_heartbeat(std::string_view line, Heartbeat* out) {
  if (!is_heartbeat_line(line)) return false;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.remove_suffix(1);
  Heartbeat hb;
  if (!get_string(line, "hb", &hb.kind) || hb.kind.empty()) return false;
  get_string(line, "name", &hb.name);
  get_string(line, "shard", &hb.shard);
  double v = 0.0;
  if (get_number(line, "done", &v)) hb.done = static_cast<int>(v);
  if (get_number(line, "total", &v)) hb.total = static_cast<int>(v);
  if (get_number(line, "ok", &v)) hb.ok = static_cast<int>(v);
  if (get_number(line, "live", &v)) hb.live = static_cast<int>(v);
  if (get_number(line, "round", &v)) hb.round = static_cast<int>(v);
  if (get_number(line, "epoch", &v)) hb.epoch = static_cast<std::int64_t>(v);
  if (get_number(line, "queue", &v)) hb.queue = static_cast<int>(v);
  if (get_number(line, "rate_per_s", &v)) hb.rate_per_s = v;
  if (get_number(line, "eta_s", &v)) hb.eta_s = v;
  if (get_number(line, "ts_ms", &v)) hb.ts_ms = static_cast<std::uint64_t>(v);
  *out = std::move(hb);
  return true;
}

HeartbeatEmitter::HeartbeatEmitter(std::FILE* sink, std::string kind,
                                   std::string name, std::string shard,
                                   int total)
    : sink_(sink), start_(std::chrono::steady_clock::now()) {
  hb_.kind = std::move(kind);
  hb_.name = std::move(name);
  hb_.shard = std::move(shard);
  hb_.total = total;
}

void HeartbeatEmitter::tick(int done, int ok, int total, int live) {
  hb_.done = done;
  hb_.ok = ok;
  hb_.total = total;
  hb_.live = live;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  hb_.rate_per_s = elapsed > 0.0 ? done / elapsed : 0.0;
  hb_.eta_s = hb_.rate_per_s > 0.0 ? (hb_.total - done) / hb_.rate_per_s
                                   : std::nan("");
  hb_.ts_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  write_heartbeat(sink_, hb_);
}

}  // namespace laacad::obs
