#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/store.hpp"
#include "common/specparse.hpp"
#include "counting_buf.hpp"
#include "dist/merge.hpp"
#include "dist/partition.hpp"

namespace laacad::dist {
namespace {

// ----------------------------------------------------------- partition ----

TEST(ShardPartition, StrideOwnershipCoversExactlyOnce) {
  const int total = 17;
  for (int count = 1; count <= 5; ++count) {
    std::vector<int> owners(total, 0);
    for (int i = 0; i < count; ++i) {
      const ShardSpec shard{i, count};
      int seen = 0;
      for (const int t : shard_trials(shard, total)) {
        EXPECT_TRUE(owns(shard, t));
        ++owners[static_cast<std::size_t>(t)];
        ++seen;
      }
      EXPECT_EQ(seen, shard_size(shard, total));
    }
    for (const int n : owners) EXPECT_EQ(n, 1);  // a partition, exactly
  }
}

TEST(ShardPartition, ParseRoundTripsAndRejectsGarbage) {
  const ShardSpec shard = parse_shard("2/8");
  EXPECT_EQ(shard.index, 2);
  EXPECT_EQ(shard.count, 8);
  EXPECT_EQ(to_string(shard), "2/8");
  EXPECT_TRUE(shard.sharded());
  EXPECT_FALSE(ShardSpec{}.sharded());
  EXPECT_THROW(parse_shard("3"), std::runtime_error);
  EXPECT_THROW(parse_shard("3/"), std::runtime_error);
  EXPECT_THROW(parse_shard("/3"), std::runtime_error);
  EXPECT_THROW(parse_shard("x/3"), std::runtime_error);
  EXPECT_THROW(parse_shard("3/3"), std::runtime_error);   // index == count
  EXPECT_THROW(parse_shard("-1/3"), std::runtime_error);
  EXPECT_THROW(parse_shard("0/0"), std::runtime_error);
  // Halves past int's range are refused, not wrapped (2^32 -> 0, 2^32+3 ->
  // 3), and keep the format message.
  for (const char* text : {"4294967296/3", "1/4294967299"}) {
    try {
      parse_shard(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shard must be <index>/<count>"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardPartition, ManifestPathEncodesCoordinates) {
  EXPECT_EQ(shard_manifest_path("smoke", ShardSpec{1, 3}),
            "BENCH_campaign_smoke.shard-1-of-3.manifest");
}

// ------------------------------------------------------ manifest codec ----

TEST(ManifestCodec, HeaderRoundTripsWithAndWithoutShard) {
  campaign::ManifestHeader header;
  header.fingerprint = 0xdeadbeef12345678ULL;
  header.trials = 12;
  header.metrics = 19;
  EXPECT_EQ(campaign::parse_manifest_header(
                campaign::format_manifest_header(header)),
            header);
  header.shard = ShardSpec{2, 5};
  const std::string line = campaign::format_manifest_header(header);
  EXPECT_NE(line.find("shard=2/5"), std::string::npos);
  EXPECT_EQ(campaign::parse_manifest_header(line), header);
  EXPECT_FALSE(campaign::parse_manifest_header("not a header"));
  EXPECT_FALSE(campaign::parse_manifest_header(
      "laacad.campaign.manifest.v1 fp=zz trials=1 metrics=1"));
  EXPECT_FALSE(campaign::parse_manifest_header(
      "laacad.campaign.manifest.v1 fp=1 trials=1 metrics=1 shard=9/3"));
  // Counts past int's range are refused, not wrapped (2^32 + 12 -> 12).
  EXPECT_FALSE(campaign::parse_manifest_header(
      "laacad.campaign.manifest.v1 fp=1 trials=4294967308 metrics=1"));
  EXPECT_FALSE(campaign::parse_manifest_header(
      "laacad.campaign.manifest.v1 fp=1 trials=1 metrics=4294967315"));
  EXPECT_FALSE(campaign::parse_manifest_header(
      "laacad.campaign.manifest.v1 fp=1 trials=1 metrics=1 "
      "shard=4294967296/3"));
  // The fingerprint is 1-16 lowercase hex digits, nothing strtoull would
  // also take: no sign, no 0x prefix, no upper case, no 17th digit
  // (clamped to ffffffffffffffff) and no empty value.
  for (const char* fp : {"-1", "+1f", "0x1f", "1F", "10000000000000000",
                         "0000000000000001f", ""}) {
    EXPECT_FALSE(campaign::parse_manifest_header(
        std::string("laacad.campaign.manifest.v1 fp=") + fp +
        " trials=1 metrics=1"))
        << "fp=" << fp;
  }
  const auto widest = campaign::parse_manifest_header(
      "laacad.campaign.manifest.v1 fp=ffffffffffffffff trials=1 metrics=1");
  ASSERT_TRUE(widest);
  EXPECT_EQ(widest->fingerprint, 0xffffffffffffffffULL);
  header.fingerprint = 0;
  header.shard = ShardSpec{};
  EXPECT_EQ(campaign::parse_manifest_header(
                campaign::format_manifest_header(header)),
            header);
}

// A row longer than kMaxLineBytes ends the replay like a torn tail, even
// one that would parse, and the reader stops one chunk past the cap.
TEST(ManifestCodec, ReplayStopsAtAnOverlongRowLikeATornTail) {
  using specparse::kMaxLineBytes;
  campaign::TrialResult row;
  row.trial = 0;
  row.ok = true;
  row.metrics.assign(campaign::metric_names().size(), 1.5);
  const std::string first = campaign::format_manifest_row(row) + "\n";
  row.trial = 1;
  row.error = std::string(2 * kMaxLineBytes, 'e');
  test::CountingBuf buf(64 * kMaxLineBytes,
                        first + campaign::format_manifest_row(row) + "\n");
  std::istream in(&buf);
  const auto rows = campaign::replay_manifest_rows(in, 4);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.begin()->first, 0);
  EXPECT_LE(buf.taken, first.size() + kMaxLineBytes + 256);
}

// ------------------------------------------------- shard + merge pipeline --

/// Small but real campaign: 2 grid points x 2 seeds of a 12-node run
/// (mirrors test_campaign's kSmallCampaign but under a distinct name so
/// manifests never collide).
constexpr const char* kDistCampaign = R"(
name    dist_small
trials  2
seed    11
domain  square
side    150
deploy  uniform
nodes   12
k       1
epsilon 0.5
max_rounds 150
grid_resolution 8
sweep alpha 0.6 1.0
)";

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + name;
}

campaign::CampaignResult run_shard(const campaign::CampaignSpec& spec,
                                   const ShardSpec& shard,
                                   const std::string& manifest, int workers,
                                   bool resume = false) {
  campaign::CampaignOptions opt;
  opt.workers = workers;
  opt.shard = shard;
  opt.manifest_path = manifest;
  opt.resume = resume;
  campaign::CampaignScheduler scheduler(spec, std::move(opt));
  return scheduler.run();
}

std::string to_json(const campaign::CampaignResult& result) {
  std::ostringstream out;
  result.write_json(out);
  return out.str();
}

std::string to_csv(const campaign::CampaignResult& result) {
  std::ostringstream out;
  result.write_csv(out);
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Run `spec` as `count` shards with varying worker counts, returning the
/// shard manifest paths.
std::vector<std::string> run_fleet_in_process(
    const campaign::CampaignSpec& spec, int count, const std::string& tag) {
  std::vector<std::string> paths;
  for (int i = 0; i < count; ++i) {
    const ShardSpec shard{i, count};
    const std::string path = tmp_path(tag + shard_manifest_path(spec.name,
                                                                shard));
    run_shard(spec, shard, path, /*workers=*/1 + i);  // any worker count
    paths.push_back(path);
  }
  return paths;
}

TEST(ManifestMerge, ThreeShardsReproduceSingleProcessBytes) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);

  const std::string ref_manifest = tmp_path("dist_ref.manifest");
  campaign::CampaignOptions ref_opt;
  ref_opt.workers = 1;  // serial journals in trial order, like the merge
  ref_opt.manifest_path = ref_manifest;
  campaign::CampaignScheduler ref(spec, std::move(ref_opt));
  const campaign::CampaignResult reference = ref.run();

  const auto paths = run_fleet_in_process(spec, 3, "m3_");
  const std::string merged_path = tmp_path("dist_merged.manifest");
  const campaign::CampaignResult merged =
      merge_manifests(spec, paths, merged_path);

  EXPECT_EQ(to_json(reference), to_json(merged));
  EXPECT_EQ(to_csv(reference), to_csv(merged));
  // The unified journal is byte-identical to the serial run's journal.
  EXPECT_EQ(read_file(ref_manifest), read_file(merged_path));
  EXPECT_EQ(merged.recovered, 4);
  EXPECT_EQ(merged.executed, 0);
}

TEST(ManifestMerge, ShardOrderAndCountDoNotMatter) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const auto ref = merge_manifests(
      spec, run_fleet_in_process(spec, 1, "m1_"), tmp_path("m1.manifest"));
  auto paths4 = run_fleet_in_process(spec, 4, "m4_");
  std::swap(paths4[0], paths4[3]);  // merge input order is irrelevant
  const auto merged4 =
      merge_manifests(spec, paths4, tmp_path("m4.manifest"));
  EXPECT_EQ(to_json(ref), to_json(merged4));
  EXPECT_EQ(to_csv(ref), to_csv(merged4));
}

TEST(ManifestMerge, KilledAndResumedShardReproducesBytes) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const auto paths = run_fleet_in_process(spec, 3, "kill_");
  const std::string reference =
      to_json(merge_manifests(spec, paths, tmp_path("kill_ref.manifest")));

  // Kill shard 0 (it owns trials 0 and 3) mid-write: keep the header and
  // its first row, then a torn half-row. Resume re-runs only the lost
  // trial.
  std::ifstream in(paths[0]);
  std::string header, row1;
  std::getline(in, header);
  std::getline(in, row1);
  in.close();
  {
    std::ofstream out(paths[0], std::ios::trunc);
    out << header << '\n' << row1 << '\n'
        << row1.substr(0, row1.size() / 2);  // torn tail, no terminator
  }
  const campaign::CampaignResult resumed = run_shard(
      spec, ShardSpec{0, 3}, paths[0], /*workers=*/2, /*resume=*/true);
  EXPECT_EQ(resumed.recovered, 1);
  EXPECT_EQ(resumed.executed, 1);

  const auto merged =
      merge_manifests(spec, paths, tmp_path("kill_merged.manifest"));
  EXPECT_EQ(reference, to_json(merged));
}

TEST(ManifestMerge, TruncatedShardTailIsMissingTrialsError) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const auto paths = run_fleet_in_process(spec, 3, "trunc_");
  // Cut shard 0 to header only: its trials are simply absent, which must
  // be a hard error naming the shard to resume — never a silent gap.
  std::ifstream in(paths[0]);
  std::string header;
  std::getline(in, header);
  in.close();
  {
    std::ofstream out(paths[0], std::ios::trunc);
    out << header << '\n';
  }
  try {
    merge_manifests(spec, paths, tmp_path("trunc_merged.manifest"));
    FAIL() << "expected missing-trials error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("missing"), std::string::npos) << what;
    EXPECT_NE(what.find("0/3"), std::string::npos) << what;
    EXPECT_NE(what.find("--resume"), std::string::npos) << what;
  }
}

TEST(ManifestMerge, DuplicateTrialAcrossShardsIsRejected) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const auto paths = run_fleet_in_process(spec, 3, "dup_");
  // Graft shard 0's first row (trial 0) onto shard 1's manifest: a row in
  // a shard that does not own it is exactly what "two shards both ran
  // trial 0" looks like after a merge of mislabeled files.
  std::ifstream in0(paths[0]);
  std::string header0, row0;
  std::getline(in0, header0);
  std::getline(in0, row0);
  in0.close();
  std::ofstream(paths[1], std::ios::app) << row0 << '\n';
  try {
    merge_manifests(spec, paths, tmp_path("dup_merged.manifest"));
    FAIL() << "expected overlap error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does not own"), std::string::npos) << what;
    EXPECT_NE(what.find("trial 0"), std::string::npos) << what;
  }
}

TEST(ManifestMerge, DuplicateShardIndexIsRejected) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  auto paths = run_fleet_in_process(spec, 3, "dupidx_");
  paths[2] = paths[0];  // same shard file listed twice
  EXPECT_THROW(
      merge_manifests(spec, paths, tmp_path("dupidx_merged.manifest")),
      std::runtime_error);
}

TEST(ManifestMerge, MissingShardIsRejected) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  auto paths = run_fleet_in_process(spec, 3, "miss_");
  // (a) file simply absent
  auto two = paths;
  two.pop_back();
  try {
    merge_manifests(spec, two, tmp_path("miss_merged.manifest"));
    FAIL() << "expected missing-shard error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing shard 2/3"),
              std::string::npos)
        << e.what();
  }
  // (b) path to a file that does not exist
  auto gone = paths;
  gone[1] = tmp_path("does_not_exist.manifest");
  EXPECT_THROW(merge_manifests(spec, gone, tmp_path("m.manifest")),
               std::runtime_error);
}

TEST(ManifestMerge, MixedFingerprintShardsAreRejected) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  auto paths = run_fleet_in_process(spec, 3, "fp_");
  // Shard 1 re-run under a *different* campaign (extra sweep value):
  // its fingerprint cannot match and the merge must say so, naming both.
  std::string other_text = kDistCampaign;
  other_text += "sweep k 1 2\n";
  const auto other = campaign::parse_campaign_string(other_text);
  run_shard(other, ShardSpec{1, 3}, paths[1], 1);
  try {
    merge_manifests(spec, paths, tmp_path("fp_merged.manifest"));
    FAIL() << "expected fingerprint error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected fp="), std::string::npos) << what;
    EXPECT_NE(what.find("found fp="), std::string::npos) << what;
  }
}

TEST(ManifestMerge, InconsistentShardSchemeIsRejected) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  auto paths3 = run_fleet_in_process(spec, 3, "scheme_");
  const auto paths2 = run_fleet_in_process(spec, 2, "scheme_");
  paths3[1] = paths2[1];  // a 1/2 shard in a 3-shard fleet
  try {
    merge_manifests(spec, {paths3[0], paths3[1]},
                    tmp_path("scheme_merged.manifest"));
    FAIL() << "expected scheme error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard scheme mismatch"),
              std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------- store shard header ----

TEST(ShardedStore, ResumeRejectsWrongShardWithBothHeaders) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const std::string path = tmp_path("wrong_shard.manifest");
  run_shard(spec, ShardSpec{0, 3}, path, 1);
  // Resuming the same journal as a different shard must fail and the
  // message must report both sides (the satellite contract: expected and
  // found values, not just "mismatch").
  try {
    run_shard(spec, ShardSpec{1, 3}, path, 1, /*resume=*/true);
    FAIL() << "expected shard mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected"), std::string::npos) << what;
    EXPECT_NE(what.find("found"), std::string::npos) << what;
    EXPECT_NE(what.find("shard=1/3"), std::string::npos) << what;
    EXPECT_NE(what.find("shard=0/3"), std::string::npos) << what;
  }
}

TEST(ShardedStore, ResumeReportsExpectedAndFoundValues) {
  // Unsharded flavor of the same satellite: trial-count and fingerprint
  // values of *both* manifests appear in the message.
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const std::string path = tmp_path("mismatch_values.manifest");
  {
    campaign::CampaignOptions opt;
    opt.manifest_path = path;
    campaign::CampaignScheduler scheduler(spec, std::move(opt));
    scheduler.run();
  }
  std::string other_text = kDistCampaign;
  other_text += "sweep k 1 2\n";  // 8 trials instead of 4, new fingerprint
  const auto other = campaign::parse_campaign_string(other_text);
  try {
    campaign::CampaignOptions opt;
    opt.manifest_path = path;
    opt.resume = true;
    campaign::CampaignScheduler scheduler(other, std::move(opt));
    scheduler.run();
    FAIL() << "expected mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    std::ostringstream expected_fp, found_fp;
    expected_fp << std::hex << campaign::fingerprint(other);
    found_fp << std::hex << campaign::fingerprint(spec);
    EXPECT_NE(what.find("expected fp=" + expected_fp.str()),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("found fp=" + found_fp.str()), std::string::npos)
        << what;
    EXPECT_NE(what.find("trials=8"), std::string::npos) << what;
    EXPECT_NE(what.find("trials=4"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(ShardedStore, TornHeaderResumesFreshInsteadOfAborting) {
  // A kill inside the open-truncate-write window leaves an empty file or a
  // half-written header. campaign_fleet restarts crashed shards with
  // --resume unconditionally, so that state must behave like a truncated
  // tail (recover nothing, rerun the shard), never like a fingerprint
  // mismatch that aborts the fleet.
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const std::string path = tmp_path("torn_header.manifest");
  std::ofstream(path, std::ios::trunc) << "";  // empty journal
  auto result = run_shard(spec, ShardSpec{0, 3}, path, 1, /*resume=*/true);
  EXPECT_EQ(result.recovered, 0);
  EXPECT_EQ(result.executed, 2);

  std::ofstream(path, std::ios::trunc)
      << "laacad.campaign.mani";  // torn mid-header, no newline
  result = run_shard(spec, ShardSpec{0, 3}, path, 1, /*resume=*/true);
  EXPECT_EQ(result.recovered, 0);
  EXPECT_EQ(result.executed, 2);
  EXPECT_TRUE(result.all_ok());

  // The insidious cut: a prefix that still *parses* as a valid header —
  // the shard token torn clean off leaves 4 well-formed tokens with an
  // unsharded default. It must be recognized as torn, never rejected as
  // a different campaign (which would abort a fleet's crash-restart).
  campaign::ManifestHeader header;
  header.fingerprint = campaign::fingerprint(spec);
  header.trials = 4;
  header.metrics = static_cast<int>(campaign::metric_names().size());
  header.shard = ShardSpec{0, 3};
  const std::string full = campaign::format_manifest_header(header);
  const auto shard_tok = full.find(" shard=");
  ASSERT_NE(shard_tok, std::string::npos);
  ASSERT_TRUE(campaign::parse_manifest_header(full.substr(0, shard_tok)));
  std::ofstream(path, std::ios::trunc) << full.substr(0, shard_tok);
  result = run_shard(spec, ShardSpec{0, 3}, path, 1, /*resume=*/true);
  EXPECT_EQ(result.recovered, 0);
  EXPECT_EQ(result.executed, 2);
  EXPECT_TRUE(result.all_ok());
}

TEST(ShardedStore, ShardResumeRefusesCompleteUnshardedManifest) {
  // The unsharded header is a strict prefix of every sharded one (the
  // shard token appends), so a complete full-campaign journal could
  // masquerade as a torn header. The rows after it are the tell: content
  // following a prefix line means a foreign journal — refuse and leave
  // the file untouched, never silently destroy its rows.
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const std::string path = tmp_path("full_unsharded.manifest");
  {
    campaign::CampaignOptions opt;
    opt.manifest_path = path;
    campaign::CampaignScheduler scheduler(spec, std::move(opt));
    scheduler.run();
  }
  const std::string before = read_file(path);
  try {
    run_shard(spec, ShardSpec{0, 3}, path, 1, /*resume=*/true);
    FAIL() << "expected shard mismatch error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("expected"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(read_file(path), before);  // untouched
  std::remove(path.c_str());
}

TEST(ShardedStore, ResumeRefusesToOverwriteNonManifestFiles) {
  // A mistyped --manifest path must never destroy data: only an empty
  // file or a torn prefix of this campaign's own header (the crash
  // window) is recoverable; arbitrary content is refused *before* the
  // truncating reopen.
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const std::string path = tmp_path("precious.txt");
  const std::string content = "alpha,rounds\n0.6,42\n";
  std::ofstream(path, std::ios::trunc) << content;
  EXPECT_THROW(run_shard(spec, ShardSpec{}, path, 1, /*resume=*/true),
               std::runtime_error);
  EXPECT_EQ(read_file(path), content);  // untouched
  std::remove(path.c_str());
}

/// Writes `prefix`, then up to `filler` bytes of 'x' with no newline, into
/// a FIFO at `path` while `read` runs, and returns how many bytes the FIFO
/// accepted before `read` closed it: what the reader took plus at most one
/// pipe buffer.
std::size_t bytes_fed_through_fifo(const std::string& path,
                                   const std::string& prefix,
                                   std::size_t filler,
                                   const std::function<void()>& read) {
  std::remove(path.c_str());
  if (::mkfifo(path.c_str(), 0600) != 0) {
    ADD_FAILURE() << "mkfifo " << path;
    return 0;
  }
  std::atomic<bool> opened{false};
  std::size_t fed = 0;
  std::thread writer([&] {
    // Writing after the reader closed raises SIGPIPE on this thread; keep
    // it blocked so the write fails with EPIPE instead.
    sigset_t pipe;
    sigemptyset(&pipe);
    sigaddset(&pipe, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe, nullptr);
    const int fd = ::open(path.c_str(), O_WRONLY);
    opened = true;
    if (fd < 0) return;
    const std::string data = prefix + std::string(filler, 'x');
    while (fed < data.size()) {
      const ssize_t n = ::write(fd, data.data() + fed,
                                std::min<std::size_t>(4096, data.size() - fed));
      if (n <= 0) break;
      fed += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  read();
  // A reader that never opened the FIFO leaves the writer blocked in open().
  if (!opened) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
    if (fd >= 0) ::close(fd);
  }
  writer.join();
  std::remove(path.c_str());
  return fed;
}

// Resuming reads a journal's first line with a cap: a file whose first line
// never ends is refused after at most kMaxLineBytes, as is one whose torn
// header is followed by such a line.
TEST(ShardedStore, ResumeReadsAnOverlongFirstLineOnlyToTheCap) {
  using specparse::kMaxLineBytes;
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  campaign::ManifestHeader header;
  header.fingerprint = campaign::fingerprint(spec);
  header.trials = 4;
  header.metrics = static_cast<int>(campaign::metric_names().size());
  const std::string path = tmp_path("overlong.manifest");
  for (const std::string prefix : {"", "laacad.campaign.mani\n"}) {
    SCOPED_TRACE("prefix '" + prefix + "'");
    std::string error;
    const std::size_t fed =
        bytes_fed_through_fifo(path, prefix, 64 * kMaxLineBytes, [&] {
          try {
            campaign::ResultStore store(path, header, /*resume=*/true);
          } catch (const std::runtime_error& e) {
            error = e.what();
          }
        });
    EXPECT_NE(error.find("is not a campaign manifest"), std::string::npos)
        << error;
    EXPECT_LT(fed, 4 * kMaxLineBytes);
  }
}

TEST(ManifestMerge, OverlongShardHeaderIsRefusedAtTheCap) {
  using specparse::kMaxLineBytes;
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const std::string path = tmp_path("overlong_shard.manifest");
  std::string error;
  const std::size_t fed =
      bytes_fed_through_fifo(path, "", 64 * kMaxLineBytes, [&] {
        try {
          merge_manifests(spec, {path}, tmp_path("overlong_merged.manifest"));
        } catch (const std::runtime_error& e) {
          error = e.what();
        }
      });
  EXPECT_NE(error.find("unrecognized header line"), std::string::npos)
      << error;
  EXPECT_LT(fed, 4 * kMaxLineBytes);
}

TEST(ShardedStore, ShardedResultRefusesToSerialize) {
  const auto spec = campaign::parse_campaign_string(kDistCampaign);
  const auto result =
      run_shard(spec, ShardSpec{0, 2}, tmp_path("noser.manifest"), 1);
  std::ostringstream out;
  EXPECT_THROW(result.write_json(out), std::logic_error);
  EXPECT_THROW(result.write_csv(out), std::logic_error);
  // But its own slice is judged: all owned trials ran ok.
  EXPECT_TRUE(result.all_ok());
  EXPECT_EQ(result.executed, 2);
}

// ------------------------------------- shipped campaigns, end to end ----

/// The acceptance contract: for a shipped campaign, a 3-shard fleet with
/// differing per-shard worker counts — one shard killed and resumed —
/// merges to byte-identical aggregates and trial CSV.
void check_shipped_campaign(const std::string& file, bool kill_one_shard) {
  const auto spec = campaign::load_campaign_file(
      std::string(LAACAD_SOURCE_DIR) + "/campaigns/" + file);
  const std::string tag = spec.name + "_e2e_";

  campaign::CampaignOptions ref_opt;
  ref_opt.workers = 0;  // hardware concurrency; outputs are invariant
  campaign::CampaignScheduler ref(spec, std::move(ref_opt));
  const campaign::CampaignResult reference = ref.run();

  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    const ShardSpec shard{i, 3};
    const std::string path =
        tmp_path(tag + shard_manifest_path(spec.name, shard));
    run_shard(spec, shard, path, /*workers=*/i == 0 ? 0 : i);
    paths.push_back(path);
  }

  if (kill_one_shard) {
    // Tear shard 2's journal mid-row and resume it.
    std::ifstream in(paths[2]);
    std::string header, row1;
    std::getline(in, header);
    std::getline(in, row1);
    in.close();
    {
      std::ofstream out(paths[2], std::ios::trunc);
      out << header << '\n' << row1.substr(0, row1.size() - 3);
    }
    const auto resumed = run_shard(spec, ShardSpec{2, 3}, paths[2],
                                   /*workers=*/0, /*resume=*/true);
    EXPECT_EQ(resumed.recovered, 0);  // the torn row was dropped
  }

  const auto merged =
      merge_manifests(spec, paths, tmp_path(tag + "merged.manifest"));
  EXPECT_EQ(to_json(reference), to_json(merged));
  EXPECT_EQ(to_csv(reference), to_csv(merged));
}

TEST(DistShippedCampaigns, SmokeThreeShardFleetByteIdentical) {
  check_shipped_campaign("smoke.cmp", /*kill_one_shard=*/true);
}

TEST(DistShippedCampaigns, Fig6ConvergenceThreeShardFleetByteIdentical) {
  check_shipped_campaign("fig6_convergence.cmp", /*kill_one_shard=*/true);
}

}  // namespace
}  // namespace laacad::dist
