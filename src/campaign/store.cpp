#include "campaign/store.hpp"

#include <stdexcept>

#include "common/specparse.hpp"

namespace laacad::campaign {

ResultStore::ResultStore(std::string path, ManifestHeader header, bool resume)
    : path_(std::move(path)) {
  if (path_.empty()) return;  // journaling disabled

  const std::string expected_header = format_manifest_header(header);
  if (resume) {
    std::ifstream in(path_);
    std::string line;
    // An overlong first line holds kMaxLineBytes bytes, so it is neither
    // the header nor a prefix of it: it is refused below.
    if (specparse::read_line(in, line) != specparse::LineRead::kEnd) {
      // The exact header this store writes: replay the journal. Anything
      // else is torn, foreign, or garbage — disambiguated below.
      if (line == expected_header) {
        recovered_ = replay_manifest_rows(in, header.trials);
      } else {
        // A kill inside the open-truncate-write window leaves a *strict
        // prefix* of the header this store would itself write — possibly
        // one that still parses (the shard token cut clean off reads as a
        // valid unsharded header) — and, because that write is the
        // journal's very first, nothing after it. Recover nothing and let
        // the rewrite below restore a valid journal, so a crash-restart
        // with --resume (what campaign_fleet does) never aborts on it.
        // Content *after* a prefix line is the decisive signal that this
        // is a complete foreign journal (e.g. pointing a shard at the
        // full unsharded manifest, whose header is a prefix of the
        // sharded one) — refuse rather than destroy its rows.
        const bool strict_prefix =
            line.size() < expected_header.size() &&
            expected_header.compare(0, line.size(), line) == 0;
        const bool trailing_content =
            in.peek() != std::ifstream::traits_type::eof();
        if (!strict_prefix || trailing_content) {
          if (const auto found = parse_manifest_header(line))
            throw std::runtime_error(
                "manifest " + path_ +
                " does not match this campaign spec: expected " +
                describe_manifest_header(header) + ", found " +
                describe_manifest_header(*found) +
                " (different sweep, trial count, metric schema, or shard) "
                "— delete it or drop --resume");
          throw std::runtime_error(
              "manifest " + path_ +
              " is not a campaign manifest — refusing to overwrite it "
              "(check the --manifest path)");
        }
      }
      // The header pinned this journal to one shard; a row the shard does
      // not own cannot be a truncated tail (those stop the replay) — it is
      // corruption or a renamed file, and trusting it would smuggle another
      // shard's trials past the merge's overlap check.
      for (const auto& [trial, r] : recovered_) {
        if (!dist::owns(header.shard, trial))
          throw std::runtime_error(
              "manifest " + path_ + " records trial " +
              std::to_string(trial) + ", which shard " +
              dist::to_string(header.shard) +
              " does not own — file corrupted or mixed up between shards");
      }
    }
  }

  // Rewrite header + recovered rows: this compacts away any garbled tail
  // and leaves the journal append-ready.
  out_.open(path_, std::ios::trunc);
  if (!out_)
    throw std::runtime_error("cannot open campaign manifest: " + path_);
  out_ << expected_header << '\n';
  for (const auto& [trial, r] : recovered_)
    out_ << format_manifest_row(r) << '\n';
  out_.flush();
}

void ResultStore::record(const TrialResult& result) {
  if (path_.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << format_manifest_row(result) << '\n';
  out_.flush();
}

}  // namespace laacad::campaign
