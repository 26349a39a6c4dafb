#include "dist/merge.hpp"

#include <fstream>
#include <map>
#include <stdexcept>

#include "campaign/manifest.hpp"
#include "common/specparse.hpp"

namespace laacad::dist {

namespace {

using campaign::ManifestHeader;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("manifest merge: " + what);
}

struct ShardFile {
  std::string path;
  ManifestHeader header;
  std::map<int, campaign::TrialResult> rows;
};

ShardFile load_shard(const std::string& path, const ManifestHeader& expected) {
  std::ifstream in(path);
  if (!in) fail("cannot open shard manifest " + path);
  ShardFile shard;
  shard.path = path;
  std::string line;
  const specparse::LineRead first = specparse::read_line(in, line);
  if (first == specparse::LineRead::kEnd)
    fail("shard manifest " + path + " is empty");
  const auto header = first == specparse::LineRead::kLine
                          ? campaign::parse_manifest_header(line)
                          : std::nullopt;
  if (!header)
    fail("shard manifest " + path + " has an unrecognized header line");
  // Identity first: a fingerprint mismatch means this file journals a
  // *different experiment* (other sweep, edited scenario file, other
  // metric schema) and nothing below it can be trusted.
  if (header->fingerprint != expected.fingerprint ||
      header->trials != expected.trials ||
      header->metrics != expected.metrics)
    fail("shard manifest " + path +
         " does not belong to this campaign: expected " +
         campaign::describe_manifest_header(expected) + ", found " +
         campaign::describe_manifest_header(*header));
  shard.header = *header;
  // Truncated tails (kill mid-write) are tolerated exactly like ResultStore
  // replay: rows stop at the first malformed line, and the gap is reported
  // as missing trials below.
  shard.rows = campaign::replay_manifest_rows(in, expected.trials);
  return shard;
}

}  // namespace

campaign::CampaignResult merge_manifests(
    const campaign::CampaignSpec& spec,
    const std::vector<std::string>& shard_paths,
    const std::string& merged_path) {
  if (shard_paths.empty()) fail("no shard manifests given");
  if (merged_path.empty()) fail("merged manifest path must not be empty");

  const auto points = campaign::expand_grid(spec);
  ManifestHeader expected;
  expected.fingerprint = campaign::fingerprint(spec);
  expected.trials = static_cast<int>(points.size());
  expected.metrics = static_cast<int>(campaign::metric_names().size());

  std::vector<ShardFile> shards;
  shards.reserve(shard_paths.size());
  for (const std::string& path : shard_paths)
    shards.push_back(load_shard(path, expected));

  // One shard scheme across the fleet: every header must declare the same
  // count, and together the files must cover each index exactly once.
  const int count = shards.front().header.shard.count;
  std::vector<const ShardFile*> by_index(static_cast<std::size_t>(count),
                                         nullptr);
  for (const ShardFile& shard : shards) {
    const ShardSpec& s = shard.header.shard;
    if (s.count != count)
      fail("shard scheme mismatch: " + shards.front().path + " declares " +
           std::to_string(count) + " shards but " + shard.path +
           " declares " + std::to_string(s.count));
    const ShardFile*& slot = by_index[static_cast<std::size_t>(s.index)];
    if (slot != nullptr)
      fail("duplicate shard " + to_string(s) + ": both " + slot->path +
           " and " + shard.path + " claim it");
    slot = &shard;
  }
  for (int i = 0; i < count; ++i)
    if (by_index[static_cast<std::size_t>(i)] == nullptr)
      fail("missing shard " + to_string(ShardSpec{i, count}) + " (" +
           std::to_string(shards.size()) + " of " + std::to_string(count) +
           " shard manifests given)");

  // Row ownership: the stride partition assigns each trial to exactly one
  // shard, so a row outside its file's slice is an overlap — two shards
  // would both claim that trial — and merging it would double-count or
  // shadow the rightful row. Hard error, never a silent drop.
  std::map<int, campaign::TrialResult> merged;
  for (const ShardFile& shard : shards) {
    for (const auto& [trial, r] : shard.rows) {
      if (!owns(shard.header.shard, trial))
        fail("trial " + std::to_string(trial) + " appears in shard " +
             to_string(shard.header.shard) + " (" + shard.path +
             ") which does not own it under the stride partition — "
             "duplicate/overlapping trial rows across shards");
      // Ownership + distinct shard indices make cross-shard duplicates
      // impossible here; within one file the replay already kept the
      // first occurrence.
      merged.emplace(trial, r);
    }
  }

  if (static_cast<int>(merged.size()) != expected.trials) {
    // Name the gap precisely: which trials, and which shard to resume.
    std::string missing;
    int shown = 0, absent = 0;
    for (int t = 0; t < expected.trials; ++t) {
      if (merged.count(t)) continue;
      ++absent;
      if (shown < 5) {
        if (shown) missing += ", ";
        missing += std::to_string(t) + " (shard " +
                   to_string(ShardSpec{t % count, count}) + ")";
        ++shown;
      }
    }
    if (absent > shown) missing += ", ...";
    fail(std::to_string(absent) + " of " + std::to_string(expected.trials) +
         " trials missing: " + missing +
         " — a shard was interrupted; rerun it with --shard i/N --resume "
         "and merge again");
  }

  // The unified journal: unsharded header + rows in trial order —
  // byte-identical to the manifest of an uninterrupted serial run, and a
  // valid resume journal in its own right.
  {
    std::ofstream out(merged_path, std::ios::trunc);
    if (!out) fail("cannot write merged manifest " + merged_path);
    out << campaign::format_manifest_header(expected) << '\n';
    for (const auto& [trial, r] : merged)
      out << campaign::format_manifest_row(r) << '\n';
  }

  // Replay the merged journal through the scheduler's own resume path: it
  // re-validates the header against the spec, recovers every row, runs the
  // zero remaining trials, and aggregates — one aggregation code path for
  // sharded and unsharded runs, so the outputs cannot drift apart.
  campaign::CampaignOptions opt;
  opt.workers = 1;
  opt.resume = true;
  opt.manifest_path = merged_path;
  campaign::CampaignScheduler scheduler(spec, std::move(opt));
  return scheduler.run();
}

}  // namespace laacad::dist
