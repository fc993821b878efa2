#include "runtime/result.hpp"

#include <utility>

#include "support/logging.hpp"

namespace cortex::runtime {

void append_shard(RunResult& merged, RunResult&& shard, ShardRecord rec) {
  merged.root_states.reserve(merged.root_states.size() +
                             shard.root_states.size());
  for (std::vector<float>& r : shard.root_states)
    merged.root_states.push_back(std::move(r));
  merged.profiler.accumulate(shard.profiler);
  merged.shards.push_back(rec);
}

std::vector<std::vector<std::vector<float>>> split_by_request(
    RunResult&& merged, const std::vector<std::int64_t>& roots_per_request) {
  std::int64_t total = 0;
  for (const std::int64_t n : roots_per_request) {
    CORTEX_CHECK(n >= 0) << "negative root count " << n;
    total += n;
  }
  CORTEX_CHECK(total == static_cast<std::int64_t>(merged.root_states.size()))
      << "request root counts sum to " << total << " but the batch produced "
      << merged.root_states.size() << " root states";
  std::vector<std::vector<std::vector<float>>> out;
  out.reserve(roots_per_request.size());
  std::size_t next = 0;
  for (const std::int64_t n : roots_per_request) {
    std::vector<std::vector<float>> slice;
    slice.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
      slice.push_back(std::move(merged.root_states[next++]));
    out.push_back(std::move(slice));
  }
  return out;
}

}  // namespace cortex::runtime
