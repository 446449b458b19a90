#include "runtime/shard_scope.hpp"

namespace thermctl::runtime {

namespace {

thread_local const Partition* t_scope = nullptr;

/// Clears the thread's scope for as long as it lives.
class SuspendedScope {
 public:
  SuspendedScope() : saved_(t_scope) { t_scope = nullptr; }
  ~SuspendedScope() { t_scope = saved_; }

  SuspendedScope(const SuspendedScope&) = delete;
  SuspendedScope& operator=(const SuspendedScope&) = delete;

 private:
  const Partition* saved_;
};

}  // namespace

ShardScope::ShardScope(const Partition& partition) : previous_(t_scope) { t_scope = &partition; }

ShardScope::~ShardScope() { t_scope = previous_; }

void for_each_shard(std::size_t n, const RangeFn& fn) {
  if (n == 0) {
    return;
  }
  const Partition* scope = t_scope;
  if (scope == nullptr) {
    fn(0, n);
    return;
  }
  const SuspendedScope suspended;
  (*scope)(n, fn);
}

}  // namespace thermctl::runtime
