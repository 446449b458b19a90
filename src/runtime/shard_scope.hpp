// Shard scope: the calling thread's node partition, for code that only sees
// a node range.
//
// The sharded engine splits its per-node phases over contiguous node ranges
// on its worker pool. Code the engine reaches only through a periodic task
// — a controller bank's family tick — cannot be handed that pool, so for the
// length of a run the engine installs its partition as the engine thread's
// shard scope, and for_each_shard() runs a range body over it. With no scope
// installed (a serial engine, a bank ticked by hand) for_each_shard() runs
// the body inline over the whole range.
//
// The scope is thread_local: a pool worker, or any other thread, sees no
// scope, so a body that itself calls for_each_shard() runs inline instead of
// re-entering the pool. The same holds on the installing thread while a
// partition is running.
#pragma once

#include <cstddef>
#include <functional>

namespace thermctl::runtime {

/// A range body: handles every index in [begin, end).
using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;

/// Splits [0, n) into disjoint contiguous ranges, runs `fn` on each (possibly
/// concurrently), and returns once every range has finished.
using Partition = std::function<void(std::size_t n, const RangeFn& fn)>;

/// Installs `partition` as the calling thread's shard scope until
/// destruction, which restores the previous scope (also when unwinding).
/// `partition` must outlive the scope.
class ShardScope {
 public:
  explicit ShardScope(const Partition& partition);
  ~ShardScope();

  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  const Partition* previous_;
};

/// Runs `fn` over [0, n) through the calling thread's shard scope, or as one
/// inline fn(0, n) call when none is installed. Ranges run with no scope
/// installed. Nothing runs when n is 0.
void for_each_shard(std::size_t n, const RangeFn& fn);

}  // namespace thermctl::runtime
