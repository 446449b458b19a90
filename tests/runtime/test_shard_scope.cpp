#include "runtime/shard_scope.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"

namespace thermctl::runtime {
namespace {

using Range = std::pair<std::size_t, std::size_t>;

/// A partition that records each call and runs the body inline, whole.
struct CountingPartition {
  int calls = 0;
  Partition partition = [this](std::size_t n, const RangeFn& fn) {
    ++calls;
    fn(0, n);
  };
};

TEST(ShardScope, NoScopeRunsOneInlineCall) {
  std::vector<Range> ranges;
  std::thread::id ran_on;
  for_each_shard(10, [&](std::size_t begin, std::size_t end) {
    ranges.emplace_back(begin, end);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ranges, (std::vector<Range>{{0, 10}}));
  EXPECT_EQ(ran_on, std::this_thread::get_id());

  for_each_shard(0, [&](std::size_t begin, std::size_t end) { ranges.emplace_back(begin, end); });
  EXPECT_EQ(ranges.size(), 1u) << "an empty range runs nothing";
}

/// Ranges for_each_shard(n) hands out from inside a running engine of
/// `nodes` nodes and `workers` shards, sorted by begin.
std::vector<Range> ranges_inside_engine(std::size_t nodes, int workers, std::size_t n) {
  cluster::Cluster rack{nodes, cluster::NodeParams{}};
  cluster::EngineConfig cfg;
  cfg.horizon = Seconds{0.5};
  cfg.workers = workers;
  cluster::Engine engine{rack, cfg};
  std::mutex mu;
  std::vector<Range> ranges;
  std::vector<int> hits(n, 0);
  bool fired = false;
  engine.add_periodic(cfg.physics_dt, [&](SimTime) {
    if (fired) {
      return;
    }
    fired = true;
    for_each_shard(n, [&](std::size_t begin, std::size_t end) {
      std::lock_guard<std::mutex> lock{mu};
      ranges.emplace_back(begin, end);
      for (std::size_t i = begin; i < end; ++i) {
        ++hits[i];
      }
    });
  });
  (void)engine.run();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

TEST(ShardScope, EngineScopeCoversEveryIndexOnceInTheEngineSplit) {
  // n / shards per range, the remainder one each on the first ranges: the
  // physics phase's split of 7 nodes over 3 shards.
  EXPECT_EQ(ranges_inside_engine(7, 3, 7), (std::vector<Range>{{0, 3}, {3, 5}, {5, 7}}));
  // A family shorter than the fleet splits the same way over its length.
  EXPECT_EQ(ranges_inside_engine(7, 3, 5), (std::vector<Range>{{0, 2}, {2, 4}, {4, 5}}));
  // Fewer indices than shards: one per range, no empty ranges.
  EXPECT_EQ(ranges_inside_engine(7, 4, 2), (std::vector<Range>{{0, 1}, {1, 2}}));
  // A serial engine installs no scope: one inline range.
  EXPECT_EQ(ranges_inside_engine(7, 1, 7), (std::vector<Range>{{0, 7}}));
}

TEST(ShardScope, PreviousScopeIsRestoredAfterAnException) {
  CountingPartition outer;
  CountingPartition inner;
  {
    const ShardScope outer_scope{outer.partition};
    EXPECT_THROW(
        {
          const ShardScope inner_scope{inner.partition};
          for_each_shard(3, [](std::size_t, std::size_t) {});
          throw std::runtime_error("unwind");
        },
        std::runtime_error);
    EXPECT_EQ(inner.calls, 1);
    for_each_shard(3, [](std::size_t, std::size_t) {});
    EXPECT_EQ(outer.calls, 1) << "the outer scope must be back in place";
    EXPECT_EQ(inner.calls, 1);
  }
  for_each_shard(3, [](std::size_t, std::size_t) {});
  EXPECT_EQ(outer.calls, 1) << "no scope once the outer guard is gone";
}

TEST(ShardScope, OtherThreadsDoNotSeeTheScope) {
  CountingPartition scoped;
  const ShardScope scope{scoped.partition};
  std::vector<Range> ranges;
  std::thread other{[&] {
    for_each_shard(5, [&](std::size_t begin, std::size_t end) { ranges.emplace_back(begin, end); });
  }};
  other.join();
  EXPECT_EQ(scoped.calls, 0);
  EXPECT_EQ(ranges, (std::vector<Range>{{0, 5}}));
}

TEST(ShardScope, RangesRunWithNoScopeInstalled) {
  // A body that itself calls for_each_shard runs the nested call inline
  // instead of re-entering the partition.
  CountingPartition scoped;
  const ShardScope scope{scoped.partition};
  std::vector<Range> nested;
  for_each_shard(4, [&](std::size_t, std::size_t) {
    for_each_shard(6, [&](std::size_t begin, std::size_t end) { nested.emplace_back(begin, end); });
  });
  EXPECT_EQ(scoped.calls, 1);
  EXPECT_EQ(nested, (std::vector<Range>{{0, 6}}));
  for_each_shard(4, [](std::size_t, std::size_t) {});
  EXPECT_EQ(scoped.calls, 2) << "the scope is back after the partition returns";
}

}  // namespace
}  // namespace thermctl::runtime
