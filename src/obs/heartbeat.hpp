// Structured progress heartbeats — machine-readable JSON lines on stderr.
//
// A heartbeat is one line, one JSON object, first key `"hb"`, so a consumer
// can classify a stream line with a prefix check and never has to scrape
// human stdout. campaign_runner emits `"hb":"campaign"` lines as trials
// land; campaign_fleet parses its children's heartbeats off the relay pipe
// (instead of scraping their stdout tables) and emits `"hb":"fleet"` lines
// carrying per-shard liveness.
//
// Heartbeats are observability output: they go to stderr (or whatever FILE*
// the emitter was given), carry wall-clock fields (rate, ETA, epoch
// timestamps), and must never be written into byte-identical BENCH_*
// artifacts. Each line is formatted into one buffer and handed to the OS in
// a single write, so concurrent emitters cannot shear a line.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace laacad::obs {

/// Parsed (or to-be-formatted) heartbeat. Numeric fields use -1 for
/// "absent" on the parse side; NaN rate/eta serialize as null.
struct Heartbeat {
  std::string kind;   ///< "campaign" | "fleet" (extensible)
  std::string name;   ///< campaign name
  std::string shard;  ///< "i/N", or "" when unsharded
  int done = 0;       ///< trials completed
  int total = 0;      ///< trials this process owns
  int ok = 0;         ///< completed trials that verified
  int live = -1;      ///< fleet only: shards currently running
  int round = -1;     ///< serve only: global rounds executed
  std::int64_t epoch = -1;  ///< serve only: published snapshot epoch
  int queue = -1;     ///< serve only: event-queue depth
  double rate_per_s = 0.0;  ///< completion rate (wall-clock)
  double eta_s = 0.0;       ///< projected seconds to completion (wall-clock)
  std::uint64_t ts_ms = 0;  ///< unix epoch milliseconds at emission
};

/// One-line JSON serialization, `\n`-terminated. Key order is fixed and
/// `hb` always leads, which is what makes the consumer's prefix check
/// (`is_heartbeat_line`) sufficient.
std::string format_heartbeat(const Heartbeat& hb);

/// format_heartbeat(hb) handed to `sink` in one write, then flushed:
/// heartbeats from concurrent emitters interleave at line granularity,
/// never mid-line.
void write_heartbeat(std::FILE* sink, const Heartbeat& hb);

/// Cheap classifier: does this relay line claim to be a heartbeat?
bool is_heartbeat_line(std::string_view line);

/// Parse a heartbeat line (as produced by format_heartbeat). Returns false
/// for anything else — including lines that pass is_heartbeat_line but are
/// malformed, so a consumer can fall back to relaying them verbatim.
bool parse_heartbeat(std::string_view line, Heartbeat* out);

/// Stateful emitter: tracks elapsed wall-clock to derive rate and ETA, and
/// writes each line atomically to `sink` (typically stderr). Not
/// thread-safe; call from one thread (campaign progress callbacks already
/// run under the scheduler lock).
class HeartbeatEmitter {
 public:
  HeartbeatEmitter(std::FILE* sink, std::string kind, std::string name,
                   std::string shard, int total);

  /// Emit one heartbeat for `done` completed / `ok` verified trials.
  void tick(int done, int ok) { tick(done, ok, hb_.total, hb_.live); }

  /// The fleet's form: its `total` grows as shards report their shares,
  /// and `live` counts the shards still running.
  void tick(int done, int ok, int total, int live);

 private:
  std::FILE* sink_;
  Heartbeat hb_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace laacad::obs
