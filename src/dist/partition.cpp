#include "dist/partition.hpp"

#include <stdexcept>

#include "common/specparse.hpp"

namespace laacad::dist {

void validate(const ShardSpec& shard) {
  if (shard.count < 1)
    throw std::runtime_error("shard count must be >= 1, got " +
                             std::to_string(shard.count));
  if (shard.index < 0 || shard.index >= shard.count)
    throw std::runtime_error("shard index " + std::to_string(shard.index) +
                             " out of range for " +
                             std::to_string(shard.count) + " shards");
}

bool owns(const ShardSpec& shard, int trial) {
  return trial % shard.count == shard.index;
}

std::vector<int> shard_trials(const ShardSpec& shard, int total_trials) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(shard_size(shard, total_trials)));
  for (int t = shard.index; t < total_trials; t += shard.count)
    out.push_back(t);
  return out;
}

int shard_size(const ShardSpec& shard, int total_trials) {
  if (total_trials <= shard.index) return 0;
  return (total_trials - shard.index + shard.count - 1) / shard.count;
}

std::string to_string(const ShardSpec& shard) {
  return std::to_string(shard.index) + "/" + std::to_string(shard.count);
}

ShardSpec parse_shard(const std::string& text) {
  const std::runtime_error bad("shard must be <index>/<count> (e.g. 0/3), "
                               "got '" + text + "'");
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 == text.size())
    throw bad;
  ShardSpec shard;
  try {
    // parse_int refuses values past int's range instead of wrapping them.
    shard.index = specparse::parse_int(text.substr(0, slash), 0, "index");
    shard.count = specparse::parse_int(text.substr(slash + 1), 0, "count");
  } catch (const std::runtime_error&) {
    throw bad;
  }
  validate(shard);
  return shard;
}

std::string shard_manifest_path(const std::string& campaign_name,
                                const ShardSpec& shard) {
  return "BENCH_campaign_" + campaign_name + ".shard-" +
         std::to_string(shard.index) + "-of-" + std::to_string(shard.count) +
         ".manifest";
}

}  // namespace laacad::dist
